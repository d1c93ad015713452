"""Seeded synthetic profile sets: 5 content themes, disjoint tag pools.

A stand-in for scraped data with the same shape as the real experiment
(themed influencers plus a brand profile). Generation runs on an explicitly
specified xorshift64* PRNG (constants in FORMATS.md) rather than any platform
default, so a given spec and seed produce byte-identical fixtures anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .content_synthesis import tokenize
from .errors import UnknownCategoryError
from .profile_store import Post, Profile, ProfileSet, TagPrediction

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULTIPLIER = 0x2545F4914F6CDD1D
_ZERO_SEED_SUBSTITUTE = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Confidence bands for tag ranks 1..3, each half-open [low, high).
_CONFIDENCE_BANDS = ((0.5, 1.0), (0.2, 0.5), (0.05, 0.2))
_TAGS_PER_POST = 3
_MAX_ENGAGEMENT = 1000

DEFAULT_SEED = 42
DEFAULT_USERS_PER_CATEGORY = 5
DEFAULT_POSTS_PER_USER = 20
DEFAULT_NOISE = 0.1

# Token-disjoint pools across the five themes of the original experiment.
DEFAULT_CATEGORIES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("dogs", ("golden retriever", "Labrador puppy", "beagle", "pug, pug-dog",
              "Siberian husky", "German shepherd", "border collie", "dalmatian")),
    ("cats", ("tabby cat", "Siamese kitten", "Persian longhair", "Maine coon",
              "tortoiseshell", "Bengal shorthair", "ragdoll", "sphynx")),
    ("mountains", ("alpine summit", "granite cliff", "glacier", "volcano crater",
                   "snowy ridge", "valley overlook", "scree slope", "timberline forest")),
    ("cars", ("sports coupe", "convertible roadster", "pickup truck", "vintage sedan",
              "racing wheel", "chrome grille, bumper", "limousine", "minivan")),
    ("pizza", ("pizza, pizza pie", "pepperoni slice", "mozzarella", "tomato sauce",
               "basil leaf", "crusty dough", "oven flatbread", "carbonara plate")),
)


class Xorshift64Star:
    """xorshift64* stream: shifts 12/25/27, multiplier 0x2545F4914F6CDD1D."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64 or _ZERO_SEED_SUBSTITUTE

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _XORSHIFT_MULTIPLIER) & _MASK64

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def next_below(self, bound: int) -> int:
        return int(self.next_float() * bound)


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 bytes; used to derive per-name substreams."""
    value = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * _FNV_PRIME) & _MASK64
    return value


@dataclass(frozen=True)
class FixtureSpec:
    seed: int = DEFAULT_SEED
    categories: tuple[tuple[str, tuple[str, ...]], ...] = DEFAULT_CATEGORIES
    users_per_category: int = DEFAULT_USERS_PER_CATEGORY
    posts_per_user: int = DEFAULT_POSTS_PER_USER
    cross_category_noise: float = DEFAULT_NOISE


def _validate_spec(spec: FixtureSpec) -> None:
    if not 0.0 <= spec.cross_category_noise < 1.0:
        raise ValueError("cross_category_noise must lie in [0, 1)")
    if spec.users_per_category < 1 or spec.posts_per_user < 1:
        raise ValueError("users_per_category and posts_per_user must be positive")
    if not spec.categories:
        raise ValueError("at least one category is required")
    seen: dict[str, str] = {}
    for name, pool in spec.categories:
        if len(pool) < 8:
            raise ValueError(f"category {name!r} has fewer than 8 tags")
        for tag in pool:
            for token in tokenize(tag):
                owner = seen.setdefault(token, name)
                if owner != name:
                    raise ValueError(
                        f"token {token!r} appears in pools {owner!r} and {name!r}")


def _other_pool(spec: FixtureSpec, category_name: str) -> tuple[str, ...]:
    return tuple(tag for name, pool in spec.categories if name != category_name
                 for tag in pool)


def _generate_posts(spec: FixtureSpec, category_name: str,
                    rng: Xorshift64Star) -> tuple[Post, ...]:
    pool = dict(spec.categories)[category_name]
    others = _other_pool(spec, category_name)
    posts = []
    for index in range(spec.posts_per_user):
        predictions = []
        for low, high in _CONFIDENCE_BANDS[:_TAGS_PER_POST]:
            stray = rng.next_float() < spec.cross_category_noise
            source = others if stray and others else pool
            label = source[rng.next_below(len(source))]
            confidence = low + rng.next_float() * (high - low)
            predictions.append(TagPrediction(label=label, confidence=confidence))
        posts.append(Post(
            id=f"{index:04d}.jpg",
            tag_predictions=tuple(predictions),
            like_count=rng.next_below(_MAX_ENGAGEMENT),
            comment_count=rng.next_below(_MAX_ENGAGEMENT),
            hashtags=(),
            is_video=False,
        ))
    return tuple(posts)


def generate_profile_set(spec: FixtureSpec) -> ProfileSet:
    """users_per_category profiles per category, a pure function of the spec."""
    _validate_spec(spec)
    rng = Xorshift64Star(spec.seed)
    profiles = []
    for name, _ in spec.categories:
        for user_index in range(spec.users_per_category):
            username = f"{name}_{user_index + 1:02d}"
            posts = _generate_posts(spec, name, rng)
            profiles.append(Profile(username=username, posts=posts, category=name))
    return ProfileSet(profiles=tuple(profiles))


def generate_brand_profile(spec: FixtureSpec, category_name: str, username: str) -> Profile:
    """One brand profile drawing from the named category's pool; category is "target".

    The brand's stream is seeded from the spec seed mixed with the FNV-1a hash
    of the username, so it is independent of the influencer stream.
    """
    _validate_spec(spec)
    if category_name not in dict(spec.categories):
        raise UnknownCategoryError(f"no category {category_name!r} in fixture spec")
    rng = Xorshift64Star(spec.seed ^ fnv1a64(username))
    posts = _generate_posts(spec, category_name, rng)
    return Profile(username=username, posts=posts, category="target")
