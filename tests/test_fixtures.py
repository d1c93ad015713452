from __future__ import annotations

import pytest

from brandmatch import (
    BrandMatchError,
    FixtureSpec,
    Xorshift64Star,
    build_vocabulary,
    count_vectorize,
    generate_brand_profile,
    generate_profile_set,
    knn_match,
    save_profile,
    synthesize_document,
    tokenize,
)
from brandmatch.fixtures import DEFAULT_CATEGORIES

POOL_A = tuple(f"alpha tag{i}" for i in range(8))
POOL_B = tuple(f"beta item{i + 10}" for i in range(8))
SMALL_SPEC = FixtureSpec(seed=7, categories=(("aa", POOL_A), ("bb", POOL_B)),
                         users_per_category=2, posts_per_user=4,
                         cross_category_noise=0.0)


def _pool_tokens(pool):
    return {token for tag in pool for token in tokenize(tag)}


def test_default_pools_are_token_disjoint():
    seen = {}
    for name, pool in DEFAULT_CATEGORIES:
        for token in _pool_tokens(pool):
            assert token not in seen, f"{token} in both {seen.get(token)} and {name}"
            seen[token] = name


def test_default_pools_have_eight_plus_tags():
    assert len(DEFAULT_CATEGORIES) == 5
    assert all(len(pool) >= 8 for _, pool in DEFAULT_CATEGORIES)


def test_shape_of_generated_set():
    profile_set = generate_profile_set(SMALL_SPEC)
    assert len(profile_set.profiles) == 4
    assert profile_set.profiles[0].username == "aa_01"
    assert profile_set.profiles[0].category == "aa"
    assert all(len(p.posts) == 4 for p in profile_set.profiles)
    assert all(len(post.tag_predictions) == 3
               for p in profile_set.profiles for post in p.posts)


def test_confidences_descend_within_bands():
    for profile in generate_profile_set(SMALL_SPEC).profiles:
        for post in profile.posts:
            first, second, third = (t.confidence for t in post.tag_predictions)
            assert 0.5 <= first < 1.0
            assert 0.2 <= second < 0.5
            assert 0.05 <= third < 0.2


def test_zero_noise_stays_in_own_pool():
    tokens_a = _pool_tokens(POOL_A)
    tokens_b = _pool_tokens(POOL_B)
    for profile in generate_profile_set(SMALL_SPEC).profiles:
        own = tokens_a if profile.category == "aa" else tokens_b
        doc = synthesize_document(profile)
        assert set(doc.tokens) <= own


def test_same_spec_same_seed_identical():
    assert generate_profile_set(SMALL_SPEC) == generate_profile_set(SMALL_SPEC)


def test_different_seeds_differ():
    other = FixtureSpec(seed=8, categories=SMALL_SPEC.categories,
                        users_per_category=2, posts_per_user=4,
                        cross_category_noise=0.0)
    assert generate_profile_set(SMALL_SPEC) != generate_profile_set(other)


def test_serialized_fixture_is_reproducible(tmp_path):
    def dump():
        files = []
        for profile in generate_profile_set(FixtureSpec()).profiles:
            save_profile(profile, tmp_path / "profile.json")
            files.append((tmp_path / "profile.json").read_bytes())
        return files
    assert dump() == dump()


def test_default_noise_fraction_in_binomial_band():
    spec = FixtureSpec()  # 5 users x 20 posts x 3 tags = 300 draws per category
    profiles = generate_profile_set(spec).profiles
    pools = {name: _pool_tokens(pool) for name, pool in spec.categories}
    for name in pools:
        total = stray = 0
        for profile in profiles:
            if profile.category != name:
                continue
            for post in profile.posts:
                for prediction in post.tag_predictions:
                    total += 1
                    if not set(tokenize(prediction.label)) <= pools[name]:
                        stray += 1
        assert total == 300
        assert 0.04 <= stray / total <= 0.16


def test_zero_noise_matrix_is_block_structured():
    profiles = generate_profile_set(SMALL_SPEC).profiles
    docs = [synthesize_document(p) for p in profiles]
    matrix = count_vectorize(docs, build_vocabulary(docs))
    for i, left in enumerate(profiles):
        for j, right in enumerate(profiles):
            if left.category != right.category:
                assert int(matrix.values[i] @ matrix.values[j]) == 0


def test_brand_profile_draws_from_named_pool():
    brand = generate_brand_profile(SMALL_SPEC, "bb", "bb_brand")
    assert brand.category == "target"
    assert brand.username == "bb_brand"
    assert set(synthesize_document(brand).tokens) <= _pool_tokens(POOL_B)


def test_brand_deterministic_and_name_sensitive():
    one = generate_brand_profile(SMALL_SPEC, "aa", "brand_x")
    two = generate_brand_profile(SMALL_SPEC, "aa", "brand_x")
    other_name = generate_brand_profile(SMALL_SPEC, "aa", "brand_y")
    assert one == two
    assert one.posts != other_name.posts


def test_brand_unknown_category():
    with pytest.raises(BrandMatchError, match=r"^no category 'aa\+bb' in fixture spec$"):
        generate_brand_profile(SMALL_SPEC, "aa+bb", "blend_brand")


def test_brand_neighbors_all_from_its_category():
    spec = FixtureSpec(seed=11)
    profiles = list(generate_profile_set(spec).profiles)
    profiles.append(generate_brand_profile(spec, "cats", "cats_brand"))
    docs = [synthesize_document(p) for p in profiles]
    matrix = count_vectorize(docs, build_vocabulary(docs))
    result = knn_match(matrix, target_index=len(profiles) - 1, k=5)
    by_name = {p.username: p for p in profiles}
    assert all(by_name[name].category == "cats" for name, _ in result.neighbors)


def test_overlapping_pools_rejected():
    overlapping = (("aa", POOL_A), ("bb", POOL_B[:-1] + ("alpha tag0",)))
    spec = FixtureSpec(categories=overlapping)
    message = "^token 'alpha' appears in pools 'aa' and 'bb'$"
    with pytest.raises(ValueError, match=message):
        generate_profile_set(spec)
    with pytest.raises(ValueError, match=message):
        generate_brand_profile(spec, "aa", "b")


def test_spec_validation():
    with pytest.raises(ValueError):
        generate_profile_set(FixtureSpec(cross_category_noise=1.0))
    with pytest.raises(ValueError):
        generate_profile_set(FixtureSpec(users_per_category=0))
    with pytest.raises(ValueError):
        generate_profile_set(FixtureSpec(categories=(("aa", POOL_A[:5]),)))
    with pytest.raises(ValueError, match="^at least one category is required$"):
        generate_profile_set(FixtureSpec(categories=()))


def test_prng_stream_properties():
    rng = Xorshift64Star(12345)
    values = [rng.next_u64() for _ in range(1000)]
    assert all(0 <= v < 2 ** 64 for v in values)
    assert len(set(values)) == len(values)
    again = Xorshift64Star(12345)
    assert [again.next_u64() for _ in range(1000)] == values
    rng = Xorshift64Star(99)
    floats = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= f < 1.0 for f in floats)
    rng = Xorshift64Star(5)
    assert all(0 <= rng.next_below(7) < 7 for _ in range(1000))


def test_prng_zero_seed_usable():
    rng = Xorshift64Star(0)
    assert len({rng.next_u64() for _ in range(10)}) == 10
