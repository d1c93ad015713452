"""Profiles are read in two processes; the results must equal a plain loop's.

``profile_store._map_in_two_processes`` forks one child for the second half of
the user list. These tests run every loader both ways: forced through the fork
(two usable CPUs reported) and forced through the plain loop (no ``os.fork``).
"""

from __future__ import annotations

import marshal
import os
import pickle
import struct
import subprocess
import sys
import threading
from contextlib import nullcontext
from pathlib import Path

import pytest

import brandmatch
from brandmatch import BrandMatchError, MalformedFileError, load_profile, load_profile_set
from brandmatch import profile_store
from brandmatch.cli import main
from brandmatch.errors import EXIT_MALFORMED
from helpers import image_post, write_profile_file, write_user_list

# a non-BMP character, a lone surrogate (JSON escapes it as \udc80), and scores
# whose bits == does not fully compare
LABELS = ["\U0001F355 pizza", "lone \udc80 surrogate", "plate", "crust"]
SCORES = [0.1 + 0.2, 0.0, -0.0, -0.0]
DEFECTS = ("malformed past the cap", "missing file", "directory", "symlink loop")


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
        elif i == position and defect == "symlink loop":
            (directory / f"{name}.json").symlink_to(f"{name}.json")
        elif not (i == position and defect == "missing file"):
            write_profile_file(directory, name, posts)
    return write_user_list(directory, [(name, "pizza") for name in names])


def _cases():
    for m in range(1, 8):
        yield m, None, None
        for defect in DEFECTS:
            for position in range(m):
                yield m, defect, position


def _ignore_running_threads(monkeypatch):
    """Have the thread probe see only threads started from now on.

    numpy, imported by other test modules, may already run native threads here."""
    real_count = profile_store._thread_count
    running = real_count() - 1
    monkeypatch.setattr(profile_store, "_thread_count", lambda: real_count() - running)


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
            _ignore_running_threads(monkeypatch)
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


@pytest.mark.parametrize("where", ["ignored key", "image_scores"])
@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_json_constants_are_invalid_json(constant, where, tmp_path, forced, capsys):
    # Python's json reads these three literals; JSON has none of them
    post = image_post(["dog"], [0.9])
    if where == "image_scores":
        post["image_scores"] = [float(constant)]
    else:
        post["unknown"] = float(constant)
    write_profile_file(tmp_path, "user0", [image_post(["cat"], [0.8])])
    path = write_profile_file(tmp_path, "user1", [post])  # the child's half when forked
    assert constant in path.read_text(encoding="utf-8")
    users = write_user_list(tmp_path, ["user0", "user1"])
    message = f"user1: invalid JSON in {path}: {constant} is not a JSON value"
    with pytest.raises(MalformedFileError) as error:
        load_profile(path, "user1")
    assert str(error.value) == message
    for mode in ("fork", "plain"):
        forced(mode)
        assert _load(users, tmp_path) == (MalformedFileError, message)
        assert main(["match", "--users", str(users), "--metadata", str(tmp_path),
                     "--target", "user0"]) == EXIT_MALFORMED
        assert capsys.readouterr().err == f"error: {message}\n"


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


class _CutPipe:
    """The child's end of the pipe: it sends only the first ``size`` bytes it is given."""

    def __init__(self, fd, size):
        self.fd, self.size, self.data = fd, size, b""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        os.write(self.fd, self.data[:self.size])
        os.close(self.fd)

    def write(self, data):
        self.data += data

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


# frames 4, 5 and 6 are the child's; each is an 8-byte length and the value's marshal
@pytest.mark.parametrize("sent, cut", [(0, 0), (1, 0), (2, 0), (3, 0), (0, 3), (1, 5),
                                       (2, 8), (2, 10)],
                         ids=["none", "one", "two", "all", "part-of-a-length",
                              "one-and-part-of-a-length", "two-and-a-length",
                              "two-and-part-of-a-value"])
def test_a_cut_stream_costs_only_the_missing_items(sent, cut, forced, monkeypatch):
    forced("fork")
    items = list(range(7))
    size = sum(8 + len(marshal.dumps(item * 2.5)) for item in items[4:4 + sent]) + cut
    real_open = open
    monkeypatch.setattr(profile_store, "open", lambda fd, mode: (
        _CutPipe(fd, size) if mode == "wb" else real_open(fd, mode)), raising=False)
    calls = []  # the child's calls land in the child's copy
    values = list(profile_store._map_in_two_processes(
        lambda item: calls.append(item) or item * 2.5, items))
    assert values == [item * 2.5 for item in items]
    assert calls == [0, 1, 2, 3, *items[4 + sent:]]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    for taken in (1, 5):  # a value of this process's half, then one of the child's
        forks = forced("fork")
        values = profile_store._map_in_two_processes(lambda item: item, list(range(6)))
        assert [next(values) for _ in range(taken)] == list(range(taken))
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


def test_thread_probe_falls_back_to_python_threads_without_proc(monkeypatch):
    def no_proc(path):
        raise FileNotFoundError(path)

    monkeypatch.setattr(os, "listdir", no_proc)
    assert profile_store._thread_count() == threading.active_count()


# A ``_thread`` thread is invisible to ``threading.active_count()``, as are the native
# threads a C library starts. Python 3.12+ warns about a fork beside one; it clears
# the exception ``-W error`` would make of that warning, so the test reads stderr.
_FORK_BESIDE_A_NATIVE_THREAD = """
import _thread, os, pickle, sys, threading
from brandmatch import load_profile_set
users, directory = sys.argv[1:]
os.sched_getaffinity = lambda pid: {0, 1}
real_fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or real_fork()
alone = load_profile_set(users, directory, target_username="user0", image_cap=2)
forked = len(forks)
lock = _thread.allocate_lock()
lock.acquire()
_thread.start_new_thread(lock.acquire, ())
assert threading.active_count() == 1
beside = load_profile_set(users, directory, target_username="user0", image_cap=2)
sys.stdout.buffer.write(pickle.dumps((forked, len(forks) - forked, alone, beside)))
"""


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/task"),
                    reason="native threads are counted only where /proc/self/task lists them")
def test_no_fork_beside_a_native_thread(tmp_path, forced):
    users = _write_case(tmp_path, 4)
    forced("plain")
    expected = _load(users, tmp_path)
    source = str(Path(brandmatch.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-W", "always::DeprecationWarning", "-c",
                             _FORK_BESIDE_A_NATIVE_THREAD, str(users), str(tmp_path)],
                            capture_output=True, env={**os.environ, "PYTHONPATH": source},
                            timeout=60)
    assert (result.returncode, result.stderr) == (0, b"")
    forks_alone, forks_beside, alone, beside = pickle.loads(result.stdout)
    assert (forks_alone, forks_beside) == (1, 0)
    assert alone == beside == expected


def _objects_per_string(profiles):
    """For each distinct tag label and hashtag, how many string objects hold it."""
    objects: dict[str, set] = {}
    for profile in profiles:
        for post in profile.posts:
            for text in (*(tag.label for tag in post.tag_predictions), *post.hashtags):
                objects.setdefault(text, set()).add(id(text))
    return {text: len(ids) for text, ids in objects.items()}


@pytest.mark.parametrize("path", ["fork", "plain"])
def test_equal_strings_within_a_loaded_half_are_one_object(path, tmp_path, forced):
    names = [f"user{i}" for i in range(5)]
    for name in names:
        write_profile_file(tmp_path, name, [
            image_post(["dog", "cat"], [0.7, 0.2], tags=["#pet", "#dog"]),
            image_post(["cat"], [0.6], tags=["#pet"])])
    users = write_user_list(tmp_path, names)
    forks = forced(path)
    profiles = load_profile_set(users, tmp_path).profiles
    assert len(forks) == (path == "fork")
    # the forked child reads user3 and user4 with its own copy of the strings
    for half in ((profiles[:3], profiles[3:]) if path == "fork" else (profiles,)):
        assert _objects_per_string(half) == {"dog": 1, "cat": 1, "#pet": 1, "#dog": 1}
    # the child's strings come back one frame at a time and are shared again here
    assert _objects_per_string(profiles) == {"dog": 1, "cat": 1, "#pet": 1, "#dog": 1}


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
    _ignore_running_threads(monkeypatch)
    assert len(load_profile_set(users, tmp_path, image_cap=2).profiles) == m
    assert len(forks) == (m >= 2)
