"""Load, validate, and serialize per-profile post metadata.

The on-disk format is the scraper-plus-classifier JSON produced upstream:
one file per username holding an array of post objects. Each image post
carries up to five predicted tags (``image_contents``) with confidence
scores (``image_scores``) aligned by position. Video posts are never
classified. See FORMATS.md for the full schema.
"""

from __future__ import annotations

import gc
import json
import marshal
import os
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Optional

from .errors import MalformedFileError, MissingProfileFileError, UnknownTargetError
from .visualization import _NOT_IN_XML

MAX_TAGS_PER_POST = 5
DEFAULT_IMAGE_CAP = 50
# line breaks XML allows; a user-list line ends only at LF, CR or CRLF
_LINE_BREAKS = frozenset("\x85\u2028\u2029")


@dataclass(frozen=True, slots=True)
class TagPrediction:
    """One (label, confidence) pair emitted by the image classifier."""

    label: str
    confidence: float

    def __post_init__(self) -> None:
        _check_tag(self.label, self.confidence)


def _check_tag(label: str, confidence: float) -> None:
    """Raise ValueError for a blank label or a confidence outside [0, 1]."""
    if not label.strip():
        raise ValueError("tag label is empty")
    if not 0.0 <= confidence <= 1.0:
        raise ValueError(f"confidence {confidence!r} outside [0, 1]")


@dataclass(frozen=True, slots=True)
class Post:
    id: str
    tag_predictions: tuple[TagPrediction, ...] = ()
    like_count: int = 0
    comment_count: int = 0
    caption: Optional[str] = None
    hashtags: tuple[str, ...] = ()
    is_video: bool = False


@dataclass(frozen=True, slots=True)
class Profile:
    username: str
    posts: tuple[Post, ...] = ()
    category: Optional[str] = None

    @property
    def classifiable_post_count(self) -> int:
        return sum(1 for p in self.posts if p.tag_predictions)


@dataclass(frozen=True)
class ProfileSet:
    """Ordered profiles; position defines the row index in every downstream matrix."""

    profiles: tuple[Profile, ...]
    target_index: Optional[int] = None

    def __post_init__(self) -> None:
        names = [p.username for p in self.profiles]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise MalformedFileError(f"duplicate usernames: {', '.join(dupes)}")
        if self.target_index is not None and not 0 <= self.target_index < len(self.profiles):
            raise UnknownTargetError(
                f"target_index {self.target_index} outside 0..{len(self.profiles) - 1}")


def _parse_count(raw: object, key: str) -> int:
    if raw is None:
        return 0
    if type(raw) is not dict:
        raise MalformedFileError(f"{key} is not an object")
    count = raw.get("count", 0)
    if type(count) is not int:
        raise MalformedFileError(f"{key}.count is not an integer")
    if count < 0:
        raise MalformedFileError(f"{key}.count is negative")
    return count


def _parse_caption(raw: object) -> Optional[str]:
    if raw is None:
        return None
    if type(raw) is not dict:
        raise MalformedFileError("edge_media_to_caption is not an object")
    edges = raw.get("edges", [])
    if type(edges) is not list:
        raise MalformedFileError("caption edges is not an array")
    if not edges:
        return None
    if type(edges[0]) is not dict:
        raise MalformedFileError("caption edge is not an object")
    node = edges[0].get("node", {})
    if type(node) is not dict:
        raise MalformedFileError("caption node is not an object")
    text = node.get("text")
    if text is not None and type(text) is not str:
        raise MalformedFileError("caption text is not a string")
    return text


def apply_image_cap(profile: Profile, image_cap: int) -> Profile:
    """Drop video posts and keep the first ``image_cap`` remaining posts.

    First-listed posts are the most recent ones upstream, so the cap keeps the
    newest media.
    """
    if image_cap < 1:
        raise ValueError("image_cap must be a positive integer")
    kept = tuple(p for p in profile.posts if not p.is_video)[:image_cap]
    return replace(profile, posts=kept)


def load_profile(path: str | Path, username: str) -> Profile:
    """Parse one metadata file into a Profile holding every post, videos too, in file order.

    ``apply_image_cap`` keeps what a capped load would. A video's tags are checked
    but never kept. Raises MissingProfileFileError when ``path`` is not a file, and
    MalformedFileError for any break of the format, tag labels and scores of
    different lengths included. Unknown keys are ignored.
    """
    with _collector_paused():
        return _build_profile(username, _read_posts(Path(path), username, None), None, {})


@contextmanager
def _collector_paused() -> Iterator[None]:
    # The records hold no reference cycles; full collections would rescan all loaded so far.
    collector_was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collector_was_enabled:
            gc.enable()


def _build_profile(username: str, rows: list, category: Optional[str],
                   strings: dict[str, str]) -> Profile:
    """A Profile from ``_read_posts`` rows; tag labels and hashtags are looked up in ``strings``.

    ``strings`` is a dict owned by the load, so each distinct label and hashtag is stored
    once, also across profiles that a forked child sent in frames of their own. Not
    ``sys.intern``: interned strings live as long as the process does.
    """
    shared = strings.setdefault
    posts = [Post(post_id, tuple([TagPrediction(shared(label, label), score)
                                  for label, score in tags]),
                  likes, comments, caption, tuple(map(shared, hashtags, hashtags)), is_video)
             for post_id, tags, likes, comments, caption, hashtags, is_video in rows]
    return Profile(username, tuple(posts), category)


def _reject_constant(name: str) -> None:
    """``json``'s hook for ``NaN``, ``Infinity`` and ``-Infinity``, which are not JSON."""
    raise ValueError(f"{name} is not a JSON value")


def _read_posts(path: Path, username: str, image_cap: Optional[int]) -> list[tuple]:
    """Decode and check one file; each kept post as ``Post``'s fields, tags as pairs.

    The tags and hashtags stay lists: ``_build_profile`` makes the tuples.
    """
    try:
        with path.open("r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=_reject_constant)
    except (FileNotFoundError, NotADirectoryError):
        raise MissingProfileFileError(f"{username}: no metadata file at {path}") from None
    except IsADirectoryError:
        raise MissingProfileFileError(f"{username}: {path} is a directory, "
                                      "not a metadata file") from None
    except (ValueError, RecursionError) as exc:
        raise MalformedFileError(f"{username}: invalid JSON in {path}: {exc}") from None
    if type(data) is not list:
        raise MalformedFileError(f"{username}: {path} does not hold a JSON array")

    posts = []
    try:
        for i, raw in enumerate(data):
            if type(raw) is not dict:
                raise MalformedFileError("post entry is not an object")
            is_video = raw.get("is_video", False)
            if type(is_video) is not bool:
                raise MalformedFileError("is_video is not a boolean")
            urls = raw.get("urls", [])
            if type(urls) is not list:
                raise MalformedFileError("urls is not an array of strings")
            for url in urls:
                if type(url) is not str:
                    raise MalformedFileError("urls is not an array of strings")
            hashtags = raw.get("tags", [])
            if type(hashtags) is not list:
                raise MalformedFileError("tags is not an array of strings")
            for hashtag in hashtags:
                if type(hashtag) is not str:
                    raise MalformedFileError("tags is not an array of strings")

            keep = image_cap is None or (not is_video and len(posts) < image_cap)
            predictions = []
            contents = raw.get("image_contents")
            scores = raw.get("image_scores")
            if contents is not None or scores is not None:
                if contents is None:
                    contents = []
                if scores is None:
                    scores = []
                if type(contents) is not list:
                    raise MalformedFileError("image_contents is not an array")
                if type(scores) is not list:
                    raise MalformedFileError("image_scores is not an array")
                if len(contents) != len(scores):
                    raise MalformedFileError(
                        f"{len(contents)} image_contents vs {len(scores)} image_scores")
                if len(contents) > MAX_TAGS_PER_POST:
                    raise MalformedFileError(
                        f"more than {MAX_TAGS_PER_POST} image_contents")
                for label, score in zip(contents, scores):
                    if type(label) is not str:
                        raise MalformedFileError("image_contents entry is not a string")
                    if type(score) is not float and type(score) is not int:
                        raise MalformedFileError("image_scores entry is not a number")
                    confidence = float(score)
                    _check_tag(label, confidence)
                    if keep and not is_video:  # checked, but a video keeps no tags
                        predictions.append((label, confidence))
                if scores != sorted(scores, reverse=True):
                    raise MalformedFileError("image_scores not sorted non-increasing")

            like_count = _parse_count(raw.get("edge_media_preview_like"),
                                      "edge_media_preview_like")
            comment_count = _parse_count(raw.get("edge_media_to_comment"),
                                         "edge_media_to_comment")
            caption = _parse_caption(raw.get("edge_media_to_caption"))
            if keep:
                posts.append((urls[0].rsplit("/", 1)[-1] if urls else f"post-{i}",
                              predictions, like_count, comment_count, caption, hashtags,
                              is_video))
    # ValueError from _check_tag, OverflowError from float() of a huge int
    except (MalformedFileError, ValueError, OverflowError) as exc:
        raise MalformedFileError(f"{username}: post {i}: {exc}") from None
    return posts


def check_username(username: str) -> None:
    """Raise ValueError unless ``username`` can name a file in the metadata directory.

    It names ``<metadata>/<username>.json`` and one field of a TSV line, so it
    must not be empty, ``.`` or ``..``, nor contain ``/``, ``\\``, NUL, tab, CR or LF.
    It labels a point of the SVG plot, so it must not hold a character XML 1.0 forbids,
    nor a line break.
    """
    if username in ("", ".", "..") or any(c in username for c in "/\\\0\t\r\n"):
        raise ValueError(f"invalid username {username!r}: it must not be empty, '.' or '..', "
                         "nor contain '/', '\\', NUL, tab, CR or LF")
    _check_plot_label("username", username)


def _check_plot_label(kind: str, text: str) -> None:
    """Raise ValueError if ``text`` holds a character XML 1.0 forbids or a line break."""
    if _NOT_IN_XML.search(text):
        raise ValueError(f"invalid {kind} {text!r}: "
                         "it must not contain a character XML 1.0 forbids")
    if not _LINE_BREAKS.isdisjoint(text):
        raise ValueError(f"invalid {kind} {text!r}: it must not contain a line break")


def parse_user_list(path: str | Path) -> list[tuple[str, Optional[str]]]:
    """Read ``username[,category]`` lines; ``#`` comments and blank lines are skipped.

    Raises MissingProfileFileError when the file is absent or is a directory,
    and MalformedFileError when it is not UTF-8, a username breaks the
    ``check_username`` rule or is repeated, or a category holds a tab, a line break or
    a character XML 1.0 forbids. Lines end only at LF, CR or CRLF; spaces and tabs
    around a line and each field are stripped, and a leading BOM is ignored.
    """
    entries: list[tuple[str, Optional[str]]] = []
    seen: set[str] = set()
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (FileNotFoundError, NotADirectoryError):
        raise MissingProfileFileError(f"user list not found: {path}") from None
    except IsADirectoryError:
        raise MissingProfileFileError(f"user list {path} is a directory") from None
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"user list {path} is not UTF-8: {exc}") from None
    # read_text has turned CR and CRLF into LF; str.splitlines would also split at the
    # line breaks the name rules reject
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.strip(" \t")
        if not line or line.startswith("#"):
            continue
        username, _, category = line.partition(",")
        username = username.strip(" \t")
        category = category.strip(" \t") or None
        try:
            check_username(username)
            if category:
                if "\t" in category or "\0" in category:
                    raise ValueError(f"invalid category {category!r}: "
                                     "it must not contain tab or NUL")
                _check_plot_label("category", category)
        except ValueError as exc:
            raise MalformedFileError(f"user list {path} line {number}: {exc}") from None
        if username in seen:
            raise MalformedFileError(f"duplicate username in user list: {username}")
        seen.add(username)
        entries.append((username, category))
    return entries


def load_profile_set(user_list_path: str | Path, metadata_dir: str | Path,
                     target_username: Optional[str] = None,
                     image_cap: int = DEFAULT_IMAGE_CAP) -> ProfileSet:
    """Load every listed profile from ``metadata_dir`` in user-list order.

    The optional per-line category annotates each profile for plotting.
    ``image_cap`` defaults to the upstream pipeline's 50-image analysis window; an
    ``image_cap`` below 1 raises ValueError before the list is read, and a target
    missing from it UnknownTargetError before any file is loaded.

    With two usable CPUs a forked child reads the second half of the list and sends its
    profiles back one at a time; if it dies partway, this process reads only the
    profiles it did not send.
    """
    if image_cap < 1:
        raise ValueError("image_cap must be a positive integer")
    entries = parse_user_list(user_list_path)
    usernames = [username for username, _ in entries]
    if target_username is not None and target_username not in usernames:
        raise UnknownTargetError(f"target {target_username!r} not in user list")
    metadata_dir = Path(metadata_dir)
    strings: dict[str, str] = {}
    with _collector_paused():
        rows = _map_in_two_processes(lambda entry: _read_posts(
            metadata_dir / f"{entry[0]}.json", entry[0], image_cap), entries)
        profiles = tuple(_build_profile(username, posts, category, strings)
                         for posts, (username, category) in zip(rows, entries))
    return ProfileSet(profiles, None if target_username is None
                      else usernames.index(target_username))


def _thread_count() -> int:
    """This process's threads; where ``/proc`` lists them, native ones (OpenBLAS's) too."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _map_in_two_processes(function: Callable, items: list) -> Iterator:
    """Yield ``function(item)`` for every item in order; a forked child computes the second half.

    The child's values come back through a pipe as ``marshal`` frames, one per value, so
    they must be builtins. It stops at its first exception, and this process runs that
    item and the rest, so errors are raised here in item order. A stream cut short (the
    child died) costs only the values it lacks: this process computes those. With one
    usable core, or another thread running, this is a plain loop."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if len(items) < 2 or (cpus or 1) < 2 or not hasattr(os, "fork") or _thread_count() > 1:
        yield from map(function, items)
        return
    half, pid = (len(items) + 1) // 2, None
    read_end, write_end = os.pipe()
    with suppress(OSError):  # without a child, this process computes the second half too
        pid = os.fork()
    if pid == 0:
        try:
            frames = []
            with suppress(Exception):  # the parent runs the failing item again
                for item in items[half:]:
                    frame = marshal.dumps(function(item))
                    frames += (len(frame).to_bytes(8, "little"), frame)
            # written only once the half is done, so the child never waits on a full pipe
            # while this process reads its own half
            with open(write_end, "wb") as pipe:
                pipe.writelines(frames)
        finally:
            os._exit(0)
    os.close(write_end)
    received, stopped = 0, True
    try:
        with open(read_end, "rb") as pipe:
            yield from map(function, items[:half])
            for value in _read_frames(pipe):
                received += 1
                yield value
            stopped = False
    finally:
        if pid and stopped:  # this half raised, or the caller stopped early
            import signal
            os.kill(pid, signal.SIGKILL)
        if pid:
            os.waitpid(pid, 0)
    yield from map(function, items[half + received:])


def _read_frames(pipe: BinaryIO) -> Iterator:
    """Unmarshal length-prefixed frames until the stream ends or one is cut short."""
    while len(header := pipe.read(8)) == 8:
        size = int.from_bytes(header, "little")
        frame = pipe.read(size)
        if len(frame) < size:
            return
        try:
            value = marshal.loads(frame)
        except (EOFError, ValueError, TypeError):
            return
        yield value


def save_profile(profile: Profile, path: str | Path) -> None:
    """Write a profile back to the metadata-file schema with the upstream dump settings."""
    out = []
    for post in profile.posts:
        raw: dict = {
            "is_video": post.is_video,
            "urls": [post.id],
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
    text = json.dumps(out, sort_keys=True, indent=4, separators=(",", ": "))
    Path(path).write_text(text + "\n", encoding="utf-8")
