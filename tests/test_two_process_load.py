"""Profiles are read in two processes; the results must equal a plain loop's.

``profile_store._map_in_two_processes`` forks one child for the second half of
the user list. These tests run every loader both ways: forced through the fork
(two usable CPUs reported) and forced through the plain loop (no ``os.fork``).
"""

from __future__ import annotations

import os
import struct
import threading
from contextlib import nullcontext

import pytest

from brandmatch import BrandMatchError, load_profile_set
from brandmatch import profile_store
from brandmatch.cli import main
from helpers import image_post, write_profile_file, write_user_list

# a non-BMP character, a lone surrogate (JSON escapes it as \udc80), and scores
# whose bits == does not fully compare
LABELS = ["\U0001F355 pizza", "lone \udc80 surrogate", "plate", "crust"]
SCORES = [0.1 + 0.2, 0.0, -0.0, -0.0]
DEFECTS = ("malformed past the cap", "missing file", "directory")


def _write_case(directory, m, defect=None, position=None):
    """m profiles of four posts, the one at ``position`` with ``defect``."""
    names = [f"user{i}" for i in range(m)]
    for i, name in enumerate(names):
        posts = [image_post(LABELS, SCORES), image_post(["dog"], [5e-324]),
                 image_post(["cat"], [1.0]), image_post(["pug"], [0.5])]
        if i == position and defect == "malformed past the cap":
            posts[3]["image_scores"] = [1.5]
        if i == position and defect == "directory":
            (directory / f"{name}.json").mkdir()
        elif not (i == position and defect == "missing file"):
            write_profile_file(directory, name, posts)
    return write_user_list(directory, [(name, "pizza") for name in names])


def _cases():
    for m in range(1, 8):
        yield m, None, None
        for defect in DEFECTS:
            for position in range(m):
                yield m, defect, position


@pytest.fixture
def forced(monkeypatch):
    """Switch between the fork path ("fork") and the plain loop ("plain"); count forks."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    def force(path):
        monkeypatch.undo()
        if path == "fork":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            monkeypatch.setattr(os, "fork", counting_fork)
        else:
            monkeypatch.delattr(os, "fork")
        forks.clear()
        return forks

    return force


def _load(users, directory):
    try:
        return load_profile_set(users, directory, target_username="user0", image_cap=2)
    except BrandMatchError as error:
        return type(error), str(error)


def _bits(profile_set):
    return [[[(t.label, struct.pack("<d", t.confidence)) for t in post.tag_predictions]
             for post in profile.posts] for profile in profile_set.profiles]


@pytest.mark.parametrize("m,defect,position", list(_cases()))
def test_fork_and_plain_loop_agree(m, defect, position, tmp_path, forced, capsys):
    users = _write_case(tmp_path, m, defect, position)
    validate = ["validate", "--users", str(users), "--metadata", str(tmp_path),
                "--target", "user0", "--image-cap", "2"]
    results = {}
    for path in ("fork", "plain"):
        forks = forced(path)
        loaded = _load(users, tmp_path)
        code = main(validate)
        results[path] = loaded, code, capsys.readouterr().out
        assert len(forks) == (m >= 2 and path == "fork") * 2  # one per loader
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert results["fork"] == results["plain"]
    loaded = results["fork"][0]
    if defect is None:
        assert _bits(loaded) == _bits(results["plain"][0])
        # the last profile is the child's when m >= 2
        last = loaded.profiles[-1].posts[0].tag_predictions
        assert [t.label for t in last] == LABELS
        assert [struct.pack("<d", t.confidence) for t in last] == [
            struct.pack("<d", score) for score in SCORES]
    else:
        assert loaded[1].startswith(f"user{position}: ")


def _raise_at(bad):
    def function(item):
        if item == bad:
            raise KeyError(item)
        return item * 2.5
    return function


@pytest.mark.parametrize("bad", [None, 0, 3, 4, 6])
def test_values_before_an_error_come_first_then_the_error(bad, forced):
    results = {}
    for path in ("fork", "plain"):
        forks = forced(path)
        seen = []
        with pytest.raises(KeyError) if bad is not None else nullcontext():
            for value in profile_store._map_in_two_processes(_raise_at(bad), list(range(7))):
                seen.append(value)
        results[path] = seen
        assert len(forks) == (path == "fork")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert results["fork"] == results["plain"] == [i * 2.5 for i in range(7 if bad is None
                                                                          else bad)]


def test_this_process_computes_only_the_first_half(forced):
    forced("fork")
    calls = []  # the child's calls land in the child's copy
    values = list(profile_store._map_in_two_processes(lambda item: calls.append(item) or item,
                                                      list(range(7))))
    assert values == list(range(7))
    assert calls == [0, 1, 2, 3]


@pytest.mark.parametrize("defect_at", [None, 0, 4])
def test_no_child_is_left_after_a_load(defect_at, tmp_path, forced):
    users = _write_case(tmp_path, 5, "missing file" if defect_at is not None else None,
                        defect_at)
    forks = forced("fork")
    result = _load(users, tmp_path)
    assert len(forks) == 1
    assert isinstance(result, tuple) == (defect_at is not None)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_caller_that_stops_early_leaves_no_child(forced):
    forks = forced("fork")
    values = profile_store._map_in_two_processes(lambda item: item, list(range(6)))
    assert next(values) == 0
    values.close()
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_fork_falls_back_to_one_process(tmp_path, forced, monkeypatch):
    users = _write_case(tmp_path, 4)
    forced("plain")
    expected = _load(users, tmp_path)
    forced("fork")

    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert _load(users, tmp_path) == expected


def test_no_fork_while_another_thread_runs(forced):
    forks = forced("fork")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert list(profile_store._map_in_two_processes(str, [1, 2, 3])) == ["1", "2", "3"]
    finally:
        release.set()
        thread.join()
    assert forks == []


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(not hasattr(os, "fork") or _usable_cpus() < 2,
                    reason="fewer than 2 usable CPUs: profiles load in one process")
@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_one_fork_per_load_with_two_cpus(m, tmp_path, monkeypatch):
    users = _write_case(tmp_path, m)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    assert len(load_profile_set(users, tmp_path, image_cap=2).profiles) == m
    assert len(forks) == (m >= 2)
