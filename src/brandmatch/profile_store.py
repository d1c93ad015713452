"""Load, validate, and serialize per-profile post metadata.

The on-disk format is the scraper-plus-classifier JSON produced upstream:
one file per username holding an array of post objects. Each image post
carries up to five predicted tags (``image_contents``) with confidence
scores (``image_scores``) aligned by position. Video posts are never
classified. See FORMATS.md for the full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .errors import (
    DuplicateUsernameError,
    MalformedFileError,
    MissingProfileFileError,
    ScoreLengthMismatchError,
    UnknownTargetError,
)

MAX_TAGS_PER_POST = 5
DEFAULT_IMAGE_CAP = 50


@dataclass(frozen=True)
class TagPrediction:
    """One (label, confidence) pair emitted by the image classifier."""

    label: str
    confidence: float

    def __post_init__(self) -> None:
        if not self.label.strip():
            raise ValueError("tag label is empty")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence!r} outside [0, 1]")


@dataclass(frozen=True)
class Post:
    id: str
    tag_predictions: tuple[TagPrediction, ...] = ()
    like_count: int = 0
    comment_count: int = 0
    caption: Optional[str] = None
    hashtags: tuple[str, ...] = ()
    is_video: bool = False


@dataclass(frozen=True)
class Profile:
    username: str
    posts: tuple[Post, ...] = ()
    category: Optional[str] = None

    @property
    def classifiable_post_count(self) -> int:
        return sum(1 for p in self.posts if p.tag_predictions)

    @property
    def is_vectorizable(self) -> bool:
        """True when at least one post carries tag predictions."""
        return self.classifiable_post_count > 0


@dataclass(frozen=True)
class ProfileSet:
    """Ordered profiles; position defines the row index in every downstream matrix."""

    profiles: tuple[Profile, ...]
    target_index: Optional[int] = None

    def __post_init__(self) -> None:
        names = [p.username for p in self.profiles]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DuplicateUsernameError(f"duplicate usernames: {', '.join(dupes)}")
        if self.target_index is not None and not 0 <= self.target_index < len(self.profiles):
            raise IndexError(f"target_index {self.target_index} outside 0..{len(self.profiles) - 1}")

    @property
    def usernames(self) -> tuple[str, ...]:
        return tuple(p.username for p in self.profiles)

    @property
    def target(self) -> Optional[Profile]:
        return None if self.target_index is None else self.profiles[self.target_index]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedFileError(message)


def _parse_count(raw: object, key: str) -> int:
    if raw is None:
        return 0
    _require(isinstance(raw, dict), f"{key} is not an object")
    count = raw.get("count", 0)
    _require(isinstance(count, int) and not isinstance(count, bool),
             f"{key}.count is not an integer")
    _require(count >= 0, f"{key}.count is negative")
    return count


def _parse_caption(raw: object) -> Optional[str]:
    if raw is None:
        return None
    _require(isinstance(raw, dict), "edge_media_to_caption is not an object")
    edges = raw.get("edges", [])
    _require(isinstance(edges, list), "caption edges is not an array")
    if not edges:
        return None
    _require(isinstance(edges[0], dict), "caption edge is not an object")
    node = edges[0].get("node", {})
    _require(isinstance(node, dict), "caption node is not an object")
    text = node.get("text")
    if text is None:
        return None
    _require(isinstance(text, str), "caption text is not a string")
    return text


def _parse_predictions(raw: dict) -> tuple[TagPrediction, ...]:
    contents = raw.get("image_contents")
    scores = raw.get("image_scores")
    if contents is None and scores is None:
        return ()
    contents = contents if contents is not None else []
    scores = scores if scores is not None else []
    _require(isinstance(contents, list), "image_contents is not an array")
    _require(isinstance(scores, list), "image_scores is not an array")
    if len(contents) != len(scores):
        raise ScoreLengthMismatchError(
            f"{len(contents)} image_contents vs {len(scores)} image_scores")
    _require(len(contents) <= MAX_TAGS_PER_POST,
             f"more than {MAX_TAGS_PER_POST} image_contents")
    predictions = []
    for label, score in zip(contents, scores):
        _require(isinstance(label, str), "image_contents entry is not a string")
        _require(isinstance(score, (int, float)) and not isinstance(score, bool),
                 "image_scores entry is not a number")
        try:
            predictions.append(TagPrediction(label=label, confidence=float(score)))
        except (ValueError, OverflowError) as exc:
            raise MalformedFileError(str(exc)) from None
    for a, b in zip(predictions, predictions[1:]):
        _require(a.confidence >= b.confidence, "image_scores not sorted non-increasing")
    return tuple(predictions)


def _parse_post(raw: object, fallback_id: str) -> Post:
    _require(isinstance(raw, dict), "post entry is not an object")
    is_video = raw.get("is_video", False)
    _require(isinstance(is_video, bool), "is_video is not a boolean")

    urls = raw.get("urls", [])
    _require(isinstance(urls, list) and all(isinstance(u, str) for u in urls),
             "urls is not an array of strings")
    post_id = urls[0].rsplit("/", 1)[-1] if urls else fallback_id

    hashtags = raw.get("tags", [])
    _require(isinstance(hashtags, list) and all(isinstance(t, str) for t in hashtags),
             "tags is not an array of strings")

    return Post(
        id=post_id,
        tag_predictions=() if is_video else _parse_predictions(raw),
        like_count=_parse_count(raw.get("edge_media_preview_like"), "edge_media_preview_like"),
        comment_count=_parse_count(raw.get("edge_media_to_comment"), "edge_media_to_comment"),
        caption=_parse_caption(raw.get("edge_media_to_caption")),
        hashtags=tuple(hashtags),
        is_video=is_video,
    )


def apply_image_cap(profile: Profile, image_cap: Optional[int]) -> Profile:
    """Drop video posts and keep the first ``image_cap`` remaining posts.

    ``None`` disables both the filter and the cap (the profile is returned
    unchanged). First-listed posts are the most recent ones upstream, so the
    cap keeps the newest media.
    """
    if image_cap is None:
        return profile
    if image_cap < 1:
        raise ValueError("image_cap must be a positive integer")
    kept = tuple(p for p in profile.posts if not p.is_video)[:image_cap]
    return replace(profile, posts=kept)


def load_profile(path: str | Path, username: str,
                 image_cap: Optional[int] = None) -> Profile:
    """Parse one metadata file into a Profile, preserving file order of posts.

    Raises MalformedFileError for structural problems, ScoreLengthMismatchError
    when tag labels and scores disagree in length. Unknown keys are ignored.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise MissingProfileFileError(f"{username}: no metadata file at {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedFileError(f"{username}: invalid JSON in {path}: {exc}") from None
    if not isinstance(data, list):
        raise MalformedFileError(f"{username}: {path} does not hold a JSON array")
    posts = []
    for i, raw in enumerate(data):
        try:
            posts.append(_parse_post(raw, f"post-{i}"))
        except (MalformedFileError, ScoreLengthMismatchError) as exc:
            raise type(exc)(f"{username}: post {i}: {exc}") from None
    return apply_image_cap(Profile(username=username, posts=tuple(posts)), image_cap)


def parse_user_list(path: str | Path) -> list[tuple[str, Optional[str]]]:
    """Read ``username[,category]`` lines; ``#`` comments and blank lines are skipped.

    Raises MissingProfileFileError when the file is absent, MalformedFileError
    when it is not UTF-8, and DuplicateUsernameError for a repeated username.
    """
    entries: list[tuple[str, Optional[str]]] = []
    seen: set[str] = set()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise MissingProfileFileError(f"user list not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"user list {path} is not UTF-8: {exc}") from None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        username, _, category = line.partition(",")
        username = username.strip()
        category = category.strip() or None
        if username in seen:
            raise DuplicateUsernameError(f"duplicate username in user list: {username}")
        seen.add(username)
        entries.append((username, category))
    return entries


def load_profile_set(user_list_path: str | Path, metadata_dir: str | Path,
                     target_username: Optional[str] = None,
                     image_cap: Optional[int] = DEFAULT_IMAGE_CAP) -> ProfileSet:
    """Load every listed profile from ``metadata_dir`` in user-list order.

    The optional per-line category annotates each profile for plotting.
    ``image_cap`` defaults to the upstream pipeline's 50-image analysis window.
    """
    entries = parse_user_list(user_list_path)
    metadata_dir = Path(metadata_dir)
    target_index: Optional[int] = None
    profiles = []
    for i, (username, category) in enumerate(entries):
        profile = load_profile(metadata_dir / f"{username}.json", username, image_cap=image_cap)
        profiles.append(replace(profile, category=category))
        if target_username is not None and username == target_username:
            target_index = i
    if target_username is not None and target_index is None:
        raise UnknownTargetError(f"target {target_username!r} not in user list")
    return ProfileSet(profiles=tuple(profiles), target_index=target_index)


def serialize_profile(profile: Profile) -> list[dict]:
    """Render a Profile back to the metadata-file schema (JSON-ready objects)."""
    out = []
    for post in profile.posts:
        raw: dict = {
            "is_video": post.is_video,
            "urls": [post.id] if post.id else [],
            "edge_media_preview_like": {"count": post.like_count},
            "edge_media_to_comment": {"count": post.comment_count},
            "edge_media_to_caption": {
                "edges": [] if post.caption is None else [{"node": {"text": post.caption}}]
            },
            "tags": list(post.hashtags),
        }
        if not post.is_video:
            raw["image_contents"] = [t.label for t in post.tag_predictions]
            raw["image_scores"] = [t.confidence for t in post.tag_predictions]
        out.append(raw)
    return out


def save_profile(profile: Profile, path: str | Path) -> None:
    """Write a profile's metadata file with the upstream dump settings."""
    text = json.dumps(serialize_profile(profile), sort_keys=True, indent=4,
                      separators=(",", ": "))
    Path(path).write_text(text + "\n", encoding="utf-8")
