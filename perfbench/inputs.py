"""Seeded inputs for the benchmark workloads, and the expected outputs for them.

Inputs come from the package's own fixture generator (``FixtureSpec``,
``generate_profile_set``, ``generate_brand_profile``, ``save_profile``). The
expected outputs are computed here, from the generator's in-memory profiles,
by code that shares nothing with the pipeline beyond the file formats in
FORMATS.md: an independent tokenizer, count and TF-IDF matrices in numpy, a
brute-force k-NN with row-order tie-breaks, and a reference embedding
(numpy ``eigh`` classical MDS, then the same SMACOF update the seed commit
uses). Everything is written to a cache directory keyed by workload shape,
seed and the source of this file, so generation stays outside every timed
region and runs once per seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGE_CAP = 50  # the CLI's default --image-cap, which every request uses
TOP_K_TAGS = 3  # the CLI's default --top-k-tags
K_NEIGHBORS = 10
SMACOF_MAX_ITER = 300
SMACOF_TOL = 1e-6
CACHE_ENTRIES_KEPT = 10  # per workload; a full-scale entry holds up to 60 MB

_HISTORY_STREAM = 0x5EED0F415  # seeds the history additions apart from the tag stream
_TOKEN_RE = re.compile(r"[^\W_]{2,}")
_HASHTAGS = ("love", "instagood", "photooftheday", "travel", "foodie", "weekend",
             "nofilter", "summer", "dogsofinstagram", "carlife", "hiking", "catlover")


@dataclass(frozen=True)
class Shape:
    """Size of one workload's data set; the tiny shapes serve the smoke run."""

    users_per_category: int
    posts_per_user: int
    brand_categories: tuple[str, ...]
    history: bool = False  # add videos, captions and hashtags (the scraper shape)


SHAPES = {
    "full": {
        "match-wide": Shape(400, 50, ("dogs", "cats", "mountains", "cars", "pizza")),
        "embed-map": Shape(20, 50, ("pizza",)),
        "history-ingest": Shape(60, 200, ("pizza",), history=True),
    },
    "tiny": {
        "match-wide": Shape(5, 20, ("dogs", "cats", "mountains", "cars", "pizza")),
        "embed-map": Shape(5, 20, ("pizza",)),
        "history-ingest": Shape(5, 60, ("pizza",), history=True),
    },
}


def _with_history(profile, rng):
    """Interleave video posts (about 20% of all posts) and add captions and hashtags.

    Each image post keeps its tags; before it, a video post appears with
    probability 1/4, so videos make up about a fifth of the result.
    """
    from brandmatch import Post

    posts = []
    for post in profile.posts:
        if rng.next_below(4) == 0:
            posts.append(Post(id=f"v{len(posts):04d}.mp4", like_count=rng.next_below(1000),
                              comment_count=rng.next_below(1000),
                              caption=f"clip {len(posts)} from {profile.username}",
                              hashtags=_draw_hashtags(rng), is_video=True))
        posts.append(dataclasses.replace(
            post, caption=f"post {len(posts)} by {profile.username} #{_HASHTAGS[0]}",
            hashtags=_draw_hashtags(rng)))
    return dataclasses.replace(profile, posts=tuple(posts))


def _draw_hashtags(rng) -> tuple[str, ...]:
    return tuple(_HASHTAGS[rng.next_below(len(_HASHTAGS))] for _ in range(1 + rng.next_below(4)))


def generate_profiles(shape: Shape, seed: int):
    """The workload's profiles in user-list order: influencers, then brands."""
    from brandmatch import FixtureSpec, Xorshift64Star, generate_brand_profile, generate_profile_set

    spec = FixtureSpec(seed=seed, users_per_category=shape.users_per_category,
                       posts_per_user=shape.posts_per_user)
    profiles = list(generate_profile_set(spec).profiles)
    profiles += [generate_brand_profile(spec, category, f"{category}_brand")
                 for category in shape.brand_categories]
    if shape.history:
        rng = Xorshift64Star(seed ^ _HISTORY_STREAM)
        profiles = [_with_history(p, rng) for p in profiles]
    return profiles


# ---- independent reference for the pipeline's outputs ----------------------

def _capped(profile) -> list:
    """The posts ``--image-cap`` keeps: the first IMAGE_CAP that are not videos."""
    return [post for post in profile.posts if not post.is_video][:IMAGE_CAP]


def _document(profile) -> list[str]:
    return [m.lower() for post in _capped(profile) for t in post.tag_predictions[:TOP_K_TAGS]
            for m in _TOKEN_RE.findall(t.label)]


def _count_matrix(profiles) -> tuple[list[str], np.ndarray]:
    documents = [_document(p) for p in profiles]
    vocabulary = sorted({t for doc in documents for t in doc})
    column = {t: j for j, t in enumerate(vocabulary)}
    counts = np.zeros((len(profiles), len(vocabulary)), dtype=np.int64)
    for i, doc in enumerate(documents):
        counts[i] = np.bincount(np.array([column[t] for t in doc], dtype=np.int64),
                                minlength=len(vocabulary))
    return vocabulary, counts


def _tfidf(counts: np.ndarray) -> np.ndarray:
    m = counts.shape[0]
    idf = np.log((1.0 + m) / (1.0 + (counts > 0).sum(axis=0))) + 1.0
    weighted = counts * idf
    norms = np.linalg.norm(weighted, axis=1)
    weighted[norms > 0] /= norms[norms > 0, None]
    return weighted


def _knn_report(names: list[str], rows: np.ndarray, target: int, k: int) -> str:
    """The ``match --output`` file a correct program writes (FORMATS.md)."""
    # integer counts give exact squared distances, so ties stay ties
    distances = np.sqrt(((rows - rows[target]) ** 2).sum(axis=1).astype(np.float64))
    order = [i for i in np.argsort(distances, kind="stable") if i != target][:k]
    lines = [f"# target: {names[target]}"]
    lines += [f"{r}\t{names[i]}\t{distances[i]:.6f}" for r, i in enumerate(order, start=1)]
    return "\n".join(lines) + "\n"


def raw_stress(distances: np.ndarray, x: np.ndarray) -> float:
    embedded = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    upper = np.triu_indices(len(x), k=1)
    return float(((embedded - distances)[upper] ** 2).sum())


def _reference_embedding(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Classical MDS by LAPACK ``eigh``, then SMACOF with the seed commit's settings."""
    d = np.sqrt(((counts[:, None, :] - counts[None, :, :]) ** 2).sum(axis=2).astype(np.float64))
    m = len(d)
    j = np.eye(m) - 1.0 / m
    b = -0.5 * j @ (d * d) @ j
    values, vectors = np.linalg.eigh((b + b.T) / 2.0)
    top = np.argsort(-values, kind="stable")[:2]
    x = vectors[:, top] * np.sqrt(np.clip(values[top], 0.0, None))
    for c in range(2):
        if x[int(np.argmax(np.abs(x[:, c]))), c] < 0.0:
            x[:, c] = -x[:, c]
    previous = current = raw_stress(d, x)
    for _ in range(SMACOF_MAX_ITER):
        embedded = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            bx = np.where(embedded > 0.0, -d / embedded, 0.0)
        np.fill_diagonal(bx, 0.0)
        np.fill_diagonal(bx, -bx.sum(axis=1))
        x = bx @ x / m
        current = raw_stress(d, x)
        if (previous - current) / max(previous, 1e-12) < SMACOF_TOL:
            break
        previous = current
    return d, x - x.mean(axis=0), current


def _expected(workload: str, profiles) -> dict:
    names = [p.username for p in profiles]
    vocabulary, counts = _count_matrix(profiles)
    brands = [i for i, p in enumerate(profiles) if p.category == "target"]
    expected: dict = {"users": names, "categories": [p.category for p in profiles]}
    if workload == "match-wide":
        expected["reports"] = {names[t]: _knn_report(names, counts, t, K_NEIGHBORS)
                               for t in brands}
    elif workload == "embed-map":
        distances, coordinates, stress = _reference_embedding(counts)
        expected.update(target=names[brands[0]], distances=distances.tolist(),
                        coordinates=coordinates.tolist(), stress=stress)
    else:
        target = brands[0]
        expected.update(
            target=names[target],
            reports={names[target]: _knn_report(names, _tfidf(counts), target, K_NEIGHBORS)},
            vocabulary=vocabulary,
            validate={p.username: [len(p.posts), sum(1 for q in _capped(p) if q.tag_predictions)]
                      for p in profiles})
    return expected


# ---- cache -------------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    directory: Path
    users: Path
    expected: dict
    manifest: Path  # username -> posts in that profile's metadata file
    info: dict  # generation and reference wall times, input bytes and files, cached or not


def _cache_key(workload: str, shape: Shape, seed: int) -> str:
    digest = hashlib.sha256(Path(__file__).read_bytes())
    digest.update(repr((workload, shape, seed)).encode())
    return f"{workload}-seed{seed}-{digest.hexdigest()[:12]}"


def prepare(workload: str, scale: str, seed: int, cache_root: Path) -> Inputs:
    """Generated inputs and expected outputs for (workload, scale, seed), cached."""
    from brandmatch import save_profile

    shape = SHAPES[scale][workload]
    directory = cache_root / _cache_key(workload, shape, seed)
    cached = directory.is_dir()
    if not cached:
        started = time.perf_counter()
        profiles = generate_profiles(shape, seed)
        partial = directory.with_name(directory.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        files = [partial / f"{profile.username}.json" for profile in profiles]
        for profile, path in zip(profiles, files):
            save_profile(profile, path)
        files.append(partial / "users.txt")
        files[-1].write_text("".join(f"{p.username},{p.category}\n" for p in profiles),
                             encoding="utf-8")
        generated = time.perf_counter()
        (partial / "manifest.json").write_text(
            json.dumps({p.username: len(p.posts) for p in profiles}), encoding="utf-8")
        (partial / "expected.json").write_text(json.dumps(_expected(workload, profiles)),
                                               encoding="utf-8")
        (partial / "info.json").write_text(json.dumps({
            "generate_s": generated - started,
            "reference_s": time.perf_counter() - generated,
            "input_bytes": sum(f.stat().st_size for f in files),
            "input_files": len(files),
            "profiles": len(profiles),
            "posts": sum(len(p.posts) for p in profiles),
        }), encoding="utf-8")
        partial.rename(directory)
    os.utime(directory)
    _evict(cache_root, workload)
    info = json.loads((directory / "info.json").read_text(encoding="utf-8"))
    info["cached"] = cached
    return Inputs(directory=directory, users=directory / "users.txt",
                  expected=json.loads((directory / "expected.json").read_text(encoding="utf-8")),
                  manifest=directory / "manifest.json", info=info)


def _evict(cache_root: Path, workload: str) -> None:
    entries = sorted((d for d in cache_root.glob(f"{workload}-seed*") if d.is_dir()),
                     key=lambda d: d.stat().st_mtime, reverse=True)
    for stale in entries[CACHE_ENTRIES_KEPT:]:
        shutil.rmtree(stale, ignore_errors=True)
