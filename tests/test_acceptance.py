"""Acceptance suite: every criterion prints its own pass/fail line.

Run ``pytest -s tests/test_acceptance.py`` to see the lines as they pass;
without ``-s`` the lines still appear for any failing criterion.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import brandmatch
from brandmatch import (
    DocTermMatrix,
    FixtureSpec,
    MalformedFileError,
    build_vocabulary,
    classical_mds,
    count_vectorize,
    generate_brand_profile,
    generate_profile_set,
    knn_match,
    load_profile,
    pairwise_distances,
    save_profile,
    smacof_refine,
    synthesize_document,
    tfidf_transform,
)
from brandmatch.cli import EXIT_OK, main


def criterion(number: int, label: str, budget_seconds: float | None = None):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            elapsed = time.perf_counter() - started
            print(f"criterion {number} ({label}): PASS [{elapsed:.2f}s]")
            if budget_seconds is not None:
                assert elapsed < budget_seconds, (
                    f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s")
        return wrapper
    return decorate


def _count_matrix(values):
    values = np.asarray(values)
    return DocTermMatrix(rows=tuple(map(tuple, values.tolist())),
                         row_labels=tuple(f"u{i}" for i in range(values.shape[0])),
                         vocabulary=tuple(f"t{j}" for j in range(values.shape[1])))


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@criterion(1, "brand assigned to its own content cluster", budget_seconds=5.0)
def test_criterion_1_cluster_assignment(tmp_path):
    categories = ("dogs", "cats", "mountains", "cars", "pizza")
    for category in categories:
        directory = tmp_path / category
        assert _quiet_main(["synth", "--out", str(directory),
                            "--brand", category]) == EXIT_OK
        report = directory / "report.txt"
        code = _quiet_main(["match",
                            "--users", str(directory / "users.txt"),
                            "--metadata", str(directory),
                            "--target", f"{category}_brand",
                            "--k", "5",
                            "--output", str(report)])
        assert code == EXIT_OK
        lines = report.read_text().splitlines()
        assert lines[0] == f"# target: {category}_brand"
        neighbors = [line.split("\t")[1] for line in lines[1:]]
        assert len(neighbors) == 5
        assert all(name.startswith(f"{category}_") for name in neighbors), neighbors


@criterion(2, "k-NN equals brute-force full sort", budget_seconds=10.0)
def test_criterion_2_knn_oracle_equivalence():
    rng = np.random.RandomState(1234)
    checked = 0
    for _ in range(200):
        m = int(rng.randint(2, 31))
        n = int(rng.randint(1, 51))
        rows = rng.randint(0, 8, size=(m, n))  # count-valued: float ops stay exact
        target = int(rng.randint(m))
        k = int(rng.randint(1, m + 3))
        scored = []
        for i in range(m):
            if i == target:
                continue
            total = 0
            for a, b in zip(rows[i], rows[target]):
                total += (int(a) - int(b)) ** 2
            scored.append((math.sqrt(total), i))
        scored.sort()
        expected = [(f"u{i}", d) for d, i in scored[:min(k, m - 1)]]
        got = list(knn_match(_count_matrix(rows), target, k).neighbors)
        assert got == expected
        checked += 1
    assert checked == 200


@criterion(3, "classical MDS recovers planted 2-D configurations", budget_seconds=10.0)
def test_criterion_3_mds_recovery():
    rng = np.random.RandomState(77)
    for _ in range(100):
        m = int(rng.randint(3, 26))
        planar = np.zeros((m, 5))
        planar[:, :2] = rng.rand(m, 2) * 10.0
        # a seeded rotation into R^5, so the rows are not already the answer
        rotation, _ = np.linalg.qr(rng.randn(5, 5))
        points = planar @ rotation
        distances = pairwise_distances(points)
        embedded = pairwise_distances(classical_mds(points=points))
        i, j = np.triu_indices(m, k=1)
        relative = np.abs(embedded[i, j] - distances[i, j]) / distances[i, j]
        assert relative.max() < 1e-6


# max_iter=150 with tol=1e-10 stops some runs at the cap, which warns by design
@pytest.mark.filterwarnings("ignore:SMACOF stopped after:RuntimeWarning")
@criterion(4, "SMACOF stress never increases")
def test_criterion_4_smacof_monotonicity():
    rng = np.random.RandomState(99)
    for _ in range(100):
        m = int(rng.randint(4, 16))
        points = rng.rand(m, 5)
        distances = pairwise_distances(points)
        initial = classical_mds(points=points)
        refined, history = smacof_refine(distances, initial, max_iter=150,
                                         tol=1e-10, return_history=True)
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-12
        assert history[-1] <= history[0] + 1e-12
        assert refined.stress == history[-1]


@criterion(5, "vectorizer counts and TF-IDF hand checks")
def test_criterion_5_vectorizer_hand_checks():
    from brandmatch import ContentDocument

    def docs(*token_lists):
        return [ContentDocument(username=f"u{i}", tokens=tuple(ts))
                for i, ts in enumerate(token_lists)]

    vocab = build_vocabulary(docs(["dog", "cat"], ["dog", "pug"]))
    assert vocab == ("cat", "dog", "pug")

    counted = count_vectorize(docs(["dog", "dog", "cat"]), vocab)
    assert counted.values.tolist() == [[1, 2, 0]]

    two_by_two = count_vectorize(docs(["aa", "bb"], ["aa"]),
                                 build_vocabulary(docs(["aa", "bb"], ["aa"])))
    assert two_by_two.values.tolist() == [[1, 1], [1, 0]]
    weighted = tfidf_transform(two_by_two)
    # frozen from an independent 50-digit evaluation of the idf formula
    assert abs(weighted.values[0, 0] - 0.5797386715376657) <= 1e-9
    assert abs(weighted.values[0, 1] - 0.8148024746671689) <= 1e-9
    assert abs(weighted.values[1, 0] - 1.0) <= 1e-9
    assert weighted.values[1, 1] == 0.0

    idf_ratio = weighted.values[0, 1] / weighted.values[0, 0]
    assert abs(idf_ratio - (math.log(1.5) + 1.0)) <= 1e-9


# Frozen bytes of the quick-start outputs. A change that moves a number
# updates its digest here and says in CHANGES.md why the bytes changed.
QUICK_START_SHA256 = {
    "report.txt": "32a517221c4a43204261d7365d10c7363dd9a31c1c2f5d0a2bb5a47e559ba2c9",
    "matrix.tsv": "808fa8a1a46f03e4536f49bbca1b3632ca5ff73901f04d10e60ae0efee81d586",
    "embedding.tsv": "3cf37c7824c8de08e403a4a3b5cace733f16528ced6e5aa4f47b7a552e6a4854",
    "plot.svg": "eef7f9924444f1b05b84d35908c9fcc3aca0e66bc7c502913ebf17e7571b7f0c",
    "users.txt": "def904b20652fa81e679a5ece8231ed9832b9c1286cf6ef05bf01566a52ef88f",
}


@criterion(6, "end-to-end runs are byte-identical")
def test_criterion_6_determinism(tmp_path):
    digests = []
    for run in ("one", "two"):
        directory = tmp_path / run
        assert _quiet_main(["synth", "--out", str(directory), "--seed", "42",
                            "--brand", "pizza"]) == EXIT_OK
        args = ["--users", str(directory / "users.txt"), "--metadata", str(directory),
                "--target", "pizza_brand"]
        assert _quiet_main(["match", *args, "--output", str(directory / "report.txt"),
                            "--export-matrix", str(directory / "matrix.tsv")]) == EXIT_OK
        assert _quiet_main(["embed", *args,
                            "--embedding", str(directory / "embedding.tsv"),
                            "--plot", str(directory / "plot.svg")]) == EXIT_OK
        names = sorted(p.name for p in directory.iterdir())
        digests.append({name: (directory / name).read_bytes() for name in names})
    assert sorted(digests[0]) == sorted(digests[1])
    for name in digests[0]:
        assert digests[0][name] == digests[1][name], f"{name} differs between runs"
    assert any(name.endswith(".json") for name in digests[0])
    for name, digest in QUICK_START_SHA256.items():
        assert hashlib.sha256(digests[0][name]).hexdigest() == digest, f"{name} bytes changed"


def _openblas_with_dynamic_arch() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without mode="dicts", or no BLAS entry
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _openblas_with_dynamic_arch(),
                    reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH, "
                           "so OPENBLAS_CORETYPE cannot choose its kernel")
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_quick_start_embedding_bytes_on_other_blas_kernels(tmp_path, coretype):
    # an AVX2 and an SSE3 kernel, each in a new interpreter: OpenBLAS reads
    # OPENBLAS_CORETYPE once, when numpy loads it
    assert _quiet_main(["synth", "--out", str(tmp_path), "--seed", "42",
                        "--brand", "pizza"]) == EXIT_OK
    embedding = tmp_path / "embedding.tsv"
    argv = ["embed", "--users", str(tmp_path / "users.txt"), "--metadata", str(tmp_path),
            "--target", "pizza_brand", "--embedding", str(embedding),
            "--plot", str(tmp_path / "plot.svg")]
    source = str(Path(brandmatch.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", "import sys\nfrom brandmatch.cli import main\n"
                    "sys.exit(main(sys.argv[1:]))", *argv], capture_output=True, check=True,
                   env={**os.environ, "PYTHONPATH": source, "OPENBLAS_CORETYPE": coretype})
    assert hashlib.sha256(embedding.read_bytes()).hexdigest() == \
        QUICK_START_SHA256["embedding.tsv"]


@pytest.mark.parametrize("weighting, digest", [
    ("counts", "5f1a621485110fcedb53ad7c0412116df2c4771dd81353b2bf705a17aa793eae"),
    ("tfidf", "8ad643f483817841384185a14928bd74ec7e361c047b51de667f1943b4a6d863"),
])
def test_embed_plot_bytes_at_twenty_per_category(tmp_path, weighting, digest):
    # m = 101 > V' = 42: the quick start (m = 26) solves the m x m Gram matrix
    # of the merged columns, this the V' x V' one
    assert _quiet_main(["synth", "--out", str(tmp_path), "--users-per-category", "20",
                        "--brand", "pizza"]) == EXIT_OK
    plot = tmp_path / "plot.svg"
    assert _quiet_main(["embed", "--users", str(tmp_path / "users.txt"),
                        "--metadata", str(tmp_path), "--target", "pizza_brand",
                        "--weighting", weighting, "--embedding", str(tmp_path / "e.tsv"),
                        "--plot", str(plot)]) == EXIT_OK
    assert hashlib.sha256(plot.read_bytes()).hexdigest() == digest


def test_match_tfidf_bytes_at_twenty_per_category(tmp_path):
    # the quick start pins counts outputs only; these pin TF-IDF's idf, row norms,
    # distances and matrix export
    assert _quiet_main(["synth", "--out", str(tmp_path), "--users-per-category", "20",
                        "--brand", "pizza"]) == EXIT_OK
    report, matrix = tmp_path / "report.txt", tmp_path / "matrix.tsv"
    assert _quiet_main(["match", "--users", str(tmp_path / "users.txt"),
                        "--metadata", str(tmp_path), "--target", "pizza_brand",
                        "--weighting", "tfidf", "--output", str(report),
                        "--export-matrix", str(matrix)]) == EXIT_OK
    assert hashlib.sha256(report.read_bytes()).hexdigest() == \
        "8644546d2d0686c2f7e639da63821f55a6fadfe13e08e8168da61f61a5f7fc9f"
    assert hashlib.sha256(matrix.read_bytes()).hexdigest() == \
        "c700510401c77a69c5dfdd6979a4b63e9ea814a71a500a4881cfc5cd56188ea3"


CORRUPTED_FILES = [
    ("object_not_array", {"posts": []}, MalformedFileError),
    ("post_not_object", ["just a string"], MalformedFileError),
    ("is_video_wrong_type", [{"is_video": "no"}], MalformedFileError),
    ("urls_wrong_type", [{"urls": "not-a-list"}], MalformedFileError),
    ("likes_negative",
     [{"edge_media_preview_like": {"count": -3}}], MalformedFileError),
    ("comments_wrong_type",
     [{"edge_media_to_comment": {"count": "many"}}], MalformedFileError),
    ("contents_wrong_type",
     [{"image_contents": "dog", "image_scores": [0.5]}], MalformedFileError),
    ("scores_missing",
     [{"image_contents": ["dog", "cat"]}], MalformedFileError,
     "post 0: 2 image_contents vs 0 image_scores$"),
    ("contents_missing",
     [{"image_scores": [0.9, 0.1]}], MalformedFileError,
     "post 0: 0 image_contents vs 2 image_scores$"),
    ("length_mismatch",
     [{"image_contents": ["a", "b", "c"], "image_scores": [0.9, 0.1]}],
     MalformedFileError, "post 0: 3 image_contents vs 2 image_scores$"),
    ("score_above_one",
     [{"image_contents": ["dog"], "image_scores": [1.5]}], MalformedFileError),
    ("score_below_zero",
     [{"image_contents": ["dog"], "image_scores": [-0.2]}], MalformedFileError),
    ("score_not_number",
     [{"image_contents": ["dog"], "image_scores": ["high"]}], MalformedFileError),
    ("empty_label",
     [{"image_contents": ["  "], "image_scores": [0.5]}], MalformedFileError),
    ("too_many_tags",
     [{"image_contents": list("abcdef"), "image_scores": [0.6, 0.5, 0.4, 0.3, 0.2, 0.1]}],
     MalformedFileError),
    ("scores_not_sorted",
     [{"image_contents": ["dog", "cat"], "image_scores": [0.1, 0.9]}],
     MalformedFileError),
    ("caption_wrong_type",
     [{"edge_media_to_caption": {"edges": [{"node": {"text": 7}}]}}],
     MalformedFileError),
    ("hashtags_wrong_type", [{"tags": [1, 2]}], MalformedFileError),
]


@criterion(7, "schema round-trip and corrupted-file rejection")
def test_criterion_7_schema_conformance(tmp_path):
    spec = FixtureSpec()
    profiles = list(generate_profile_set(spec).profiles)
    profiles.append(generate_brand_profile(spec, "dogs", "dogs_brand"))
    for profile in profiles:
        path = tmp_path / f"{profile.username}.json"
        save_profile(profile, path)
        loaded = load_profile(path, profile.username)
        rewritten = tmp_path / f"again_{profile.username}.json"
        save_profile(loaded, rewritten)
        assert rewritten.read_bytes() == path.read_bytes()
        assert load_profile(rewritten, profile.username) == loaded

    assert len(CORRUPTED_FILES) >= 10
    for name, payload, expected_error, *message in CORRUPTED_FILES:
        path = tmp_path / f"corrupt_{name}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(expected_error, match=message[0] if message else None):
            load_profile(path, name)
    bad_json = tmp_path / "corrupt_truncated.json"
    bad_json.write_text('[{"is_video": false', encoding="utf-8")
    with pytest.raises(MalformedFileError):
        load_profile(bad_json, "truncated")
    binary = tmp_path / "corrupt_binary.json"
    binary.write_bytes(b"\xff\xfe\x00garbage\x80")
    with pytest.raises(MalformedFileError):
        load_profile(binary, "binary")


@criterion(8, "invariance suite")
def test_criterion_8_invariances():
    spec = FixtureSpec(seed=5)
    profiles = generate_profile_set(spec).profiles

    # permuting a profile's posts leaves its count vector unchanged
    docs = [synthesize_document(p) for p in profiles]
    vocabulary = build_vocabulary(docs)
    matrix = count_vectorize(docs, vocabulary)
    from dataclasses import replace
    shuffled = [replace(p, posts=p.posts[::-1]) for p in profiles]
    shuffled_matrix = count_vectorize([synthesize_document(p) for p in shuffled],
                                      vocabulary)
    assert np.array_equal(matrix.values, shuffled_matrix.values)

    # scaling all entries scales distances and keeps the neighbor order
    rng = np.random.RandomState(55)
    rows = rng.rand(14, 9)
    base = knn_match(_count_matrix(rows), 3, k=13)
    doubled = knn_match(_count_matrix(rows * 4.0), 3, k=13)
    assert [n for n, _ in doubled.neighbors] == [n for n, _ in base.neighbors]
    assert all(d2 == 4.0 * d1 for (_, d2), (_, d1)
               in zip(doubled.neighbors, base.neighbors))
    arbitrary = knn_match(_count_matrix(rows * 2.3), 3, k=13)
    assert [n for n, _ in arbitrary.neighbors] == [n for n, _ in base.neighbors]
    assert all(abs(d2 - 2.3 * d1) <= 1e-9 * max(d1, 1.0) for (_, d2), (_, d1)
               in zip(arbitrary.neighbors, base.neighbors))

    # TF-IDF rows with any content have unit norm
    weighted = tfidf_transform(matrix)
    norms = np.linalg.norm(weighted.values, axis=1)
    occupied = matrix.values.sum(axis=1) > 0
    assert np.allclose(norms[occupied], 1.0, atol=1e-9)

    # distance matrices are exactly symmetric and metric
    for seed in (1, 2, 3):
        sample = np.random.RandomState(seed).rand(10, 6)
        distances = pairwise_distances(sample)
        assert np.array_equal(distances, distances.T)
        assert np.all(np.diag(distances) == 0.0)
        for i in range(10):
            for j in range(10):
                for k in range(10):
                    assert distances[i, k] <= distances[i, j] + distances[j, k] + 1e-9
