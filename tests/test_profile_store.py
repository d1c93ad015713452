from __future__ import annotations

import copy
import errno
import gc
import json
import os
import pickle
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brandmatch import (
    BrandMatchError,
    MalformedFileError,
    MissingProfileFileError,
    Post,
    Profile,
    ProfileSet,
    TagPrediction,
    UnknownTargetError,
    apply_image_cap,
    load_profile,
    load_profile_set,
    parse_user_list,
    save_profile,
)
from brandmatch.cli import main
from brandmatch.errors import EXIT_FAILURE, EXIT_MALFORMED
from helpers import image_post, video_post, write_profile_file, write_user_list


def test_load_single_image_post(tmp_path):
    write_profile_file(tmp_path, "pete", [
        image_post(["pizza, pizza pie", "plate", "espresso"], [0.91, 0.05, 0.02]),
    ])
    profile = load_profile(tmp_path / "pete.json", "pete")
    assert len(profile.posts) == 1
    predictions = profile.posts[0].tag_predictions
    assert [p.label for p in predictions] == ["pizza, pizza pie", "plate", "espresso"]
    assert [p.confidence for p in predictions] == [0.91, 0.05, 0.02]


def test_load_video_post_has_no_predictions(tmp_path):
    tagged = {**video_post(), "image_contents": ["dog"], "image_scores": [0.9]}
    write_profile_file(tmp_path, "vid", [video_post(), tagged])
    profile = load_profile(tmp_path / "vid.json", "vid")
    assert len(profile.posts) == 2
    assert all(post.is_video for post in profile.posts)
    # a video's well-formed tags are checked, then dropped
    assert [post.tag_predictions for post in profile.posts] == [(), ()]


def test_score_length_mismatch_rejected(tmp_path):
    write_profile_file(tmp_path, "bad", [
        image_post(["dog", "cat", "pug"], [0.9, 0.1]),
    ])
    with pytest.raises(MalformedFileError,
                       match="^bad: post 0: 3 image_contents vs 2 image_scores$"):
        load_profile(tmp_path / "bad.json", "bad")


def test_post_id_comes_from_url_basename(tmp_path):
    posts = [image_post(["dog"], [0.9])]
    posts[0]["urls"] = ["https://cdn.example/media/abc123.jpg"]
    write_profile_file(tmp_path, "u", posts)
    profile = load_profile(tmp_path / "u.json", "u")
    assert profile.posts[0].id == "abc123.jpg"


def test_caption_hashtags_and_counts_parsed(tmp_path):
    write_profile_file(tmp_path, "u", [
        image_post(["dog"], [0.9], likes=42, comments=7, caption="walkies",
                   tags=["#dog", "#walk"]),
    ])
    post = load_profile(tmp_path / "u.json", "u").posts[0]
    assert post.like_count == 42
    assert post.comment_count == 7
    assert post.caption == "walkies"
    assert post.hashtags == ("#dog", "#walk")


def test_unknown_keys_ignored(tmp_path):
    posts = [image_post(["dog"], [0.9])]
    posts[0]["display_url"] = "x"
    posts[0]["owner"] = {"id": 5}
    write_profile_file(tmp_path, "u", posts)
    assert len(load_profile(tmp_path / "u.json", "u").posts) == 1


def test_scores_outside_unit_interval_rejected(tmp_path):
    for bad_score in (1.5, -0.1):
        write_profile_file(tmp_path, "u", [image_post(["dog"], [bad_score])])
        with pytest.raises(MalformedFileError):
            load_profile(tmp_path / "u.json", "u")


def test_scores_must_be_sorted_non_increasing(tmp_path):
    write_profile_file(tmp_path, "u", [image_post(["dog", "cat"], [0.1, 0.9])])
    with pytest.raises(MalformedFileError):
        load_profile(tmp_path / "u.json", "u")


def test_post_errors_name_user_and_post_once(tmp_path, capsys):
    cases = [
        ({"image_contents": ["  "], "image_scores": [0.5]}, MalformedFileError,
         "tag label is empty"),
        ({"image_contents": ["dog"], "image_scores": [1.5]}, MalformedFileError,
         "confidence 1.5 outside [0, 1]"),
        ({"image_contents": ["dog"], "image_scores": [10 ** 400]}, MalformedFileError,
         "int too large to convert to float"),
        ({"image_contents": ["dog"], "image_scores": [True]}, MalformedFileError,
         "image_scores entry is not a number"),
        ({"edge_media_to_comment": {"count": -1}}, MalformedFileError,
         "edge_media_to_comment.count is negative"),
        ({"image_contents": ["dog", "cat"], "image_scores": [0.5]}, MalformedFileError,
         "2 image_contents vs 1 image_scores"),
        ({"edge_media_to_caption": {"edges": {}}}, MalformedFileError,
         "caption edges is not an array"),
        ({"edge_media_to_caption": {"edges": ["text"]}}, MalformedFileError,
         "caption edge is not an object"),
        ({"urls": ["a.jpg", 7]}, MalformedFileError, "urls is not an array of strings"),
        ({"image_contents": ["dog", 7], "image_scores": [0.9, 0.5]}, MalformedFileError,
         "image_contents entry is not a string"),
        # a video keeps no tags, but they are checked like any post's
        ({**video_post(), "image_contents": 7}, MalformedFileError,
         "image_contents is not an array"),
        ({**video_post(), "image_contents": ["dog"], "image_scores": [1.5]},
         MalformedFileError, "confidence 1.5 outside [0, 1]"),
    ]
    write_profile_file(tmp_path, "brand", [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, ["brand", "u"])
    inputs = ["--users", str(users), "--metadata", str(tmp_path)]
    for bad_post, error_type, detail in cases:
        write_profile_file(tmp_path, "u", [image_post(["dog"], [0.9]), bad_post])
        with pytest.raises(error_type) as excinfo:
            load_profile(tmp_path / "u.json", "u")
        message = str(excinfo.value)
        assert message == f"u: post 1: {detail}"
        assert main(["match", *inputs, "--target", "brand"]) == EXIT_MALFORMED
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["validate", *inputs]) == EXIT_FAILURE
        assert f"u\tERROR: {message}\n" in capsys.readouterr().out


def test_user_list_errors(tmp_path):
    with pytest.raises(MissingProfileFileError) as excinfo:
        parse_user_list(tmp_path / "nope.txt")
    assert str(excinfo.value) == (f"user list: cannot read {tmp_path / 'nope.txt'}: "
                                  f"{os.strerror(errno.ENOENT)}")
    (tmp_path / "users.txt").write_bytes(b"\xff\xfe bad\n")
    with pytest.raises(MalformedFileError, match="not UTF-8"):
        parse_user_list(tmp_path / "users.txt")


def test_missing_file(tmp_path):
    with pytest.raises(MissingProfileFileError):
        load_profile(tmp_path / "nobody.json", "nobody")


def test_not_an_array_rejected(tmp_path):
    (tmp_path / "u.json").write_text('{"posts": []}', encoding="utf-8")
    with pytest.raises(MalformedFileError):
        load_profile(tmp_path / "u.json", "u")


def test_image_cap_filters_videos_then_truncates():
    posts = [
        Post(id="v0", is_video=True),
        Post(id="a", tag_predictions=(TagPrediction("dog", 0.9),)),
        Post(id="v1", is_video=True),
        Post(id="b", tag_predictions=(TagPrediction("cat", 0.8),)),
        Post(id="c"),
    ]
    profile = Profile(username="u", posts=tuple(posts))
    capped = apply_image_cap(profile, 2)
    assert [p.id for p in capped.posts] == ["a", "b"]
    assert [p.id for p in apply_image_cap(profile, 5).posts] == ["a", "b", "c"]


def _capped_load(directory, username, image_cap):
    """Load ``username`` through ``load_profile_set`` on a one-line user list."""
    users = write_user_list(directory, [username])
    return load_profile_set(users, directory, image_cap=image_cap).profiles[0]


def test_load_respects_image_cap(tmp_path):
    posts = [video_post()] + [image_post([f"tag{i}"], [0.5]) for i in range(4)]
    write_profile_file(tmp_path, "u", posts)
    profile = _capped_load(tmp_path, "u", 2)
    assert len(profile.posts) == 2
    assert all(not p.is_video for p in profile.posts)


def test_malformed_post_after_the_cap_still_raises(tmp_path, capsys):
    posts = [image_post([f"tag{i}"], [0.5]) for i in range(200)]
    posts[180]["image_scores"] = [1.5]
    write_profile_file(tmp_path, "u", posts)
    with pytest.raises(MalformedFileError) as excinfo:
        _capped_load(tmp_path, "u", 50)
    assert str(excinfo.value) == "u: post 180: confidence 1.5 outside [0, 1]"

    write_profile_file(tmp_path, "brand", [image_post(["tag1"], [0.9])])
    users = write_user_list(tmp_path, ["brand", "u"])
    code = main(["match", "--users", str(users), "--metadata", str(tmp_path),
                 "--target", "brand", "--image-cap", "50"])
    assert code == EXIT_MALFORMED
    assert capsys.readouterr().err == "error: u: post 180: confidence 1.5 outside [0, 1]\n"


def test_capped_load_equals_cap_applied_to_full_load(tmp_path):
    posts = [video_post(), image_post(["dog", "cat"], [0.9, 0.1], caption="first"),
             video_post(likes=9), image_post(["pug"], [0.4], tags=["#pug"]),
             image_post([], []), video_post(), image_post(["car"], [1.0], comments=0)]
    write_profile_file(tmp_path, "u", posts)
    full = load_profile(tmp_path / "u.json", "u")
    assert len(full.posts) == len(posts)
    for image_cap in (1, 3, len(posts) + 1):
        capped = _capped_load(tmp_path, "u", image_cap)
        assert capped == apply_image_cap(full, image_cap)
    assert len(_capped_load(tmp_path, "u", 3).posts) == 3


def test_load_restores_the_cyclic_collector_state(tmp_path):
    write_profile_file(tmp_path, "good", [image_post(["dog"], [0.9])])
    write_profile_file(tmp_path, "bad", [image_post(["dog"], [1.5])])
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            load_profile(tmp_path / "good.json", "good")
            assert gc.isenabled() is enabled
            with pytest.raises(MalformedFileError):
                load_profile(tmp_path / "bad.json", "bad")
            assert gc.isenabled() is enabled
            with pytest.raises(MissingProfileFileError):
                load_profile(tmp_path / "nobody.json", "nobody")
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_image_cap_below_one_rejected(tmp_path):
    write_profile_file(tmp_path, "u", [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, ["u"])
    profile = load_profile(tmp_path / "u.json", "u")
    empty = write_user_list(tmp_path, [], name="empty.txt")
    for image_cap in (0, -1):
        with pytest.raises(ValueError, match="image_cap must be a positive integer"):
            apply_image_cap(profile, image_cap)
        # checked before the user list is read, so an empty or missing list makes no difference
        for user_list, metadata in ((users, tmp_path), (empty, tmp_path / "nowhere"),
                                    (tmp_path / "missing.txt", tmp_path / "nowhere")):
            with pytest.raises(ValueError, match="image_cap must be a positive integer"):
                load_profile_set(user_list, metadata, image_cap=image_cap)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=10)
_count = st.fixed_dictionaries({}, optional={"count": st.integers(-1, 10 ** 6)})
_caption = st.fixed_dictionaries({}, optional={"edges": st.lists(st.fixed_dictionaries(
    {}, optional={"node": st.fixed_dictionaries({}, optional={"text": st.text(max_size=6)})}),
    max_size=2)})
_predictions = st.lists(st.tuples(st.text(max_size=6), st.floats(0.0, 1.0)), max_size=5).map(
    lambda pairs: sorted(pairs, key=lambda pair: -pair[1]))
_well_typed_posts = st.tuples(st.fixed_dictionaries({}, optional={
    "is_video": st.booleans(),
    "urls": st.lists(st.text(max_size=6), max_size=2),
    "tags": st.lists(st.text(max_size=6), max_size=3),
    "edge_media_preview_like": _count,
    "edge_media_to_comment": _count,
    "edge_media_to_caption": _caption,
}), st.none() | _predictions).map(lambda drawn: drawn[0] if drawn[1] is None else {
    **drawn[0], "image_contents": [label for label, _ in drawn[1]],
    "image_scores": [score for _, score in drawn[1]]})
# A well-typed post with one field replaced by any JSON value reaches every check.
_posts = _well_typed_posts | st.tuples(
    _well_typed_posts,
    st.sampled_from(["is_video", "urls", "tags", "image_contents", "image_scores",
                     "edge_media_preview_like", "edge_media_to_comment",
                     "edge_media_to_caption"]),
    _json_values).map(lambda drawn: {**drawn[0], drawn[1]: drawn[2]})


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


@settings(max_examples=200, deadline=None)
@given(value=st.lists(_posts, max_size=6) | st.lists(_posts | _json_values, max_size=4)
       | _json_values,
       image_cap=st.sampled_from([None, 1, 3]))
def test_any_json_value_loads_or_raises_a_package_error(property_dir, value, image_cap):
    path = property_dir / "u.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    try:
        profile = (load_profile(path, "u") if image_cap is None
                   else _capped_load(property_dir, "u", image_cap))
    except BrandMatchError as capped:
        # posts the cap drops are checked all the same: the uncapped load fails alike
        with pytest.raises(BrandMatchError) as uncapped:
            load_profile(path, "u")
        assert (type(uncapped.value), str(uncapped.value)) == (type(capped), str(capped))
        return
    full = load_profile(path, "u")
    assert profile == (full if image_cap is None else apply_image_cap(full, image_cap))


def test_user_list_parsing(tmp_path):
    path = tmp_path / "users.txt"
    path.write_text("# comment\n\nalice,dogs\nbob\n  carol , pizza \n", encoding="utf-8")
    assert parse_user_list(path) == [("alice", "dogs"), ("bob", None), ("carol", "pizza")]


def test_user_list_duplicate_rejected(tmp_path):
    path = tmp_path / "users.txt"
    path.write_text("alice\nbob\nalice\n", encoding="utf-8")
    with pytest.raises(MalformedFileError, match="^duplicate username in user list: alice$"):
        parse_user_list(path)


def test_load_profile_set_order_and_target(tmp_path):
    for name in ("alice", "bob", "carol"):
        write_profile_file(tmp_path, name, [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, ["alice", "bob", "carol"])
    profile_set = load_profile_set(users, tmp_path, target_username="bob")
    assert [p.username for p in profile_set.profiles] == ["alice", "bob", "carol"]
    assert profile_set.target_index == 1
    assert profile_set.profiles[profile_set.target_index].username == "bob"


def test_load_profile_set_missing_file_names_user(tmp_path):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, ["alice", "ghost_user"])
    with pytest.raises(MissingProfileFileError, match="ghost_user"):
        load_profile_set(users, tmp_path)


def test_load_profile_set_unknown_target(tmp_path):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, ["alice"])
    with pytest.raises(UnknownTargetError):
        load_profile_set(users, tmp_path, target_username="nobody")


def test_categories_come_from_user_list(tmp_path):
    write_profile_file(tmp_path, "alice", [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, [("alice", "dogs")])
    profile_set = load_profile_set(users, tmp_path)
    assert profile_set.profiles[0].category == "dogs"


def test_twenty_six_profiles_target_last(tmp_path):
    """25 influencers plus one brand listed last: target row index 25."""
    names = [f"user{i:02d}" for i in range(25)] + ["brandname"]
    for name in names:
        write_profile_file(tmp_path, name, [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, names)
    profile_set = load_profile_set(users, tmp_path, target_username="brandname")
    assert len(profile_set.profiles) == 26
    assert profile_set.target_index == 25


def test_round_trip_preserves_profile(tmp_path):
    no_basename = [image_post(["dough"], [0.44]), image_post(["crust"], [0.3])]
    no_basename[0]["urls"] = [""]
    no_basename[1]["urls"] = ["https://host.example/p/"]
    write_profile_file(tmp_path, "u", [
        image_post(["pizza, pizza pie", "plate"], [0.91, 0.05], caption="yum",
                   tags=["#pizza"]),
        video_post(likes=3),
        image_post(["dough"], [0.44]),
        *no_basename,
    ])
    original = load_profile(tmp_path / "u.json", "u")
    assert [post.id for post in original.posts[3:]] == ["", ""]
    save_profile(original, tmp_path / "copy.json")
    assert load_profile(tmp_path / "copy.json", "u") == original


def test_save_profile_round_trip(tmp_path):
    write_profile_file(tmp_path, "u", [image_post(["dog", "cat"], [0.7, 0.2])])
    original = load_profile(tmp_path / "u.json", "u")
    save_profile(original, tmp_path / "saved.json")
    assert load_profile(tmp_path / "saved.json", "u") == original


def test_loading_twice_is_deterministic(tmp_path):
    for name in ("alice", "bob"):
        write_profile_file(tmp_path, name, [image_post(["dog"], [0.9])])
    users = write_user_list(tmp_path, ["alice", "bob"])
    first = load_profile_set(users, tmp_path, target_username="bob")
    second = load_profile_set(users, tmp_path, target_username="bob")
    assert first == second


def test_profile_set_rejects_duplicates_and_bad_target():
    profile = Profile(username="a")
    with pytest.raises(MalformedFileError, match="^duplicate usernames: a$"):
        ProfileSet(profiles=(profile, Profile(username="a")))
    with pytest.raises(UnknownTargetError, match=r"^target_index 3 outside 0\.\.0$"):
        ProfileSet(profiles=(profile,), target_index=3)
    with pytest.raises(UnknownTargetError, match=r"^target_index 0 outside 0\.\.-1$"):
        ProfileSet((), target_index=0)


def test_vectorizable_flag():
    with_tags = Profile(username="a", posts=(
        Post(id="p", tag_predictions=(TagPrediction("dog", 0.5),)),))
    only_video = Profile(username="b", posts=(Post(id="v", is_video=True),))
    assert with_tags.classifiable_post_count == 1
    assert only_video.classifiable_post_count == 0


def test_tag_prediction_validation():
    with pytest.raises(ValueError):
        TagPrediction(label="  ", confidence=0.5)
    with pytest.raises(ValueError):
        TagPrediction(label="dog", confidence=1.5)


def test_records_are_slotted_and_frozen(tmp_path):
    write_profile_file(tmp_path, "u", [image_post(["dog", "cat"], [0.7, 0.2], caption="hi",
                                                  tags=["#dog"])])
    profile = load_profile(tmp_path / "u.json", "u")
    post = profile.posts[0]
    tag = post.tag_predictions[0]
    for record, field, value in ((tag, "label", "cat"), (post, "like_count", 1),
                                 (profile, "category", "pets")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, value)
        changed = replace(record, **{field: value})
        assert getattr(changed, field) == value and changed != record
        assert replace(record) == record and hash(replace(record)) == hash(record)
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record
    assert replace(tag, confidence=0.7) == TagPrediction("dog", 0.7)
    with pytest.raises(ValueError):
        replace(tag, confidence=1.5)


def test_equal_strings_of_a_load_are_one_object(tmp_path):
    posts = [image_post(["dog", "cat"], [0.7, 0.2], tags=["#pet", "#dog"]),
             image_post(["cat", "dog"], [0.6, 0.1], tags=["#dog", "#pet"])]
    write_profile_file(tmp_path, "u", posts)
    write_profile_file(tmp_path, "v", posts)
    first, second = (load_profile(tmp_path / f"{name}.json", name) for name in "uv")
    for profile in (first, second):
        a, b = profile.posts
        assert a.tag_predictions[0].label is b.tag_predictions[1].label
        assert a.tag_predictions[1].label is b.tag_predictions[0].label
        assert a.hashtags[0] is b.hashtags[1] and a.hashtags[1] is b.hashtags[0]
    # each call shares strings within its own result only: nothing outlives the load
    assert first.posts == second.posts
    assert first.posts[0].tag_predictions[0].label is not second.posts[0].tag_predictions[0].label
