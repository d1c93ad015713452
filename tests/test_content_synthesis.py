from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from brandmatch import (
    ContentDocument,
    FixtureSpec,
    Post,
    Profile,
    TagPrediction,
    content_synthesis,
    generate_brand_profile,
    generate_profile_set,
    synthesize_document,
    tokenize,
)


def _post(labels_scores, video=False):
    predictions = tuple(TagPrediction(label, score) for label, score in labels_scores)
    return Post(id="p", tag_predictions=predictions, is_video=video)


def test_tokenize_splits_on_non_alphanumerics():
    assert tokenize("Eskimo dog, husky") == ["eskimo", "dog", "husky"]
    assert tokenize("pizza, pizza pie") == ["pizza", "pizza", "pie"]


def test_tokenize_drops_single_character_runs():
    assert tokenize("a I x") == []
    assert tokenize("it's a dog") == ["it", "dog"]


def test_tokenize_empty_and_separator_only():
    assert tokenize("") == []
    assert tokenize(", -- '") == []


def test_tokenize_underscore_is_a_separator():
    assert tokenize("pizza_nightmare") == ["pizza", "nightmare"]


def test_tokenize_keeps_digit_runs():
    assert tokenize("route 66 trail") == ["route", "66", "trail"]


def test_document_from_single_post():
    profile = Profile(username="u", posts=(
        _post([("golden retriever", 0.8), ("tennis ball", 0.15), ("lawn", 0.05)]),))
    doc = synthesize_document(profile, top_k=3)
    assert doc.username == "u"
    assert doc.tokens == ("golden", "retriever", "tennis", "ball", "lawn")


def test_only_top_k_labels_contribute():
    profile = Profile(username="u", posts=(
        _post([("aa", 0.5), ("bb", 0.2), ("cc", 0.1), ("dd", 0.05), ("ee", 0.01)]),))
    assert synthesize_document(profile, top_k=3).tokens == ("aa", "bb", "cc")


def test_video_only_profile_yields_empty_document():
    profile = Profile(username="u", posts=(_post([], video=True),))
    assert synthesize_document(profile).tokens == ()


def test_posts_with_fewer_predictions_use_what_exists():
    profile = Profile(username="u", posts=(_post([("solo tag", 0.9)]),))
    assert synthesize_document(profile, top_k=3).tokens == ("solo", "tag")


def test_post_order_then_rank_order():
    profile = Profile(username="u", posts=(
        _post([("bb", 0.9), ("cc", 0.1)]),
        _post([("aa", 0.7)]),
    ))
    assert synthesize_document(profile).tokens == ("bb", "cc", "aa")


def test_top_k_monotonicity():
    profile = Profile(username="u", posts=(
        _post([("aa", 0.5), ("bb", 0.4), ("cc", 0.3), ("dd", 0.2), ("ee", 0.1)]),
        _post([("ff gg", 0.6), ("hh", 0.5), ("ii", 0.4), ("jj", 0.3)]),
    ))
    smaller = Counter(synthesize_document(profile, top_k=3).tokens)
    larger = Counter(synthesize_document(profile, top_k=5).tokens)
    assert all(larger[token] >= count for token, count in smaller.items())


def test_post_permutation_preserves_token_multiset():
    posts = (
        _post([("aa", 0.9), ("bb", 0.5)]),
        _post([("cc dd", 0.8)]),
        _post([("ee", 0.7), ("aa", 0.3)]),
    )
    forward = synthesize_document(Profile(username="u", posts=posts))
    backward = synthesize_document(Profile(username="u", posts=posts[::-1]))
    assert Counter(forward.tokens) == Counter(backward.tokens)
    assert forward.tokens != backward.tokens


def test_determinism():
    profile = Profile(username="u", posts=(_post([("aa bb", 0.9)]),))
    assert synthesize_document(profile) == synthesize_document(profile)


def test_top_k_must_be_positive():
    with pytest.raises(ValueError):
        synthesize_document(Profile(username="u"), top_k=0)


def _reference_synthesize_document(profile, top_k=3):
    # the plain loop: every kept label is tokenized where it occurs
    tokens = []
    for post in profile.posts:
        if post.is_video:
            continue
        for prediction in post.tag_predictions[:top_k]:
            tokens.extend(tokenize(prediction.label))
    return ContentDocument(username=profile.username, tokens=tuple(tokens))


def _repetitive_profile():
    return Profile(username="u", posts=(
        _post([("pug, pug-dog", 0.9), ("Pug", 0.5), ("pug, pug-dog", 0.2), ("lawn", 0.1)]),
        _post([("pug, pug-dog", 0.8), ("a b", 0.4), ("Tennis ball", 0.3)]),
        _post([("pug, pug-dog", 0.7), ("lawn", 0.6)], video=True),
        _post([]),
        _post([("tennis ball", 0.95), ("Pug", 0.05), ("lawn", 0.04), ("route 66", 0.01)]),
    ))


def _synth_profiles():
    spec = FixtureSpec(seed=11, users_per_category=3, posts_per_user=40,
                       cross_category_noise=0.4)
    return [*generate_profile_set(spec).profiles,
            generate_brand_profile(spec, "dogs", "dogs_brand")]


def _with_confidence(profile, confidence):
    posts = tuple(replace(post, tag_predictions=tuple(
        TagPrediction(prediction.label, confidence) for prediction in post.tag_predictions))
        for post in profile.posts)
    return replace(profile, posts=posts)


@pytest.mark.parametrize("top_k", [1, 2, 3, 4])
@pytest.mark.parametrize("confidence", [0.0, 0.05, 0.3, 0.96])
def test_document_equals_the_plain_loop(top_k, confidence):
    # every tag scored ``confidence``: a tag counts whatever its score, 0.0 included
    for profile in [_repetitive_profile(), *_synth_profiles()]:
        profile = _with_confidence(profile, confidence)
        assert (synthesize_document(profile, top_k=top_k)
                == _reference_synthesize_document(profile, top_k))


def test_each_distinct_label_tokenized_once_per_call(monkeypatch):
    calls = Counter()

    def counting(text):
        calls[text] += 1
        return tokenize(text)

    monkeypatch.setattr(content_synthesis, "tokenize", counting)
    profile = _repetitive_profile()
    expected = synthesize_document(profile).tokens
    assert calls == Counter({"pug, pug-dog": 1, "Pug": 1, "lawn": 1, "a b": 1,
                             "Tennis ball": 1, "tennis ball": 1})
    # nothing is kept between calls
    assert synthesize_document(profile).tokens == expected
    assert set(calls.values()) == {2}
