from __future__ import annotations

import math

import numpy as np
import pytest

from brandmatch import (
    DimensionMismatchError,
    DocTermMatrix,
    EmptyCorpusError,
    UnknownTargetError,
    Vocabulary,
    Weighting,
    euclidean_distance,
    knn_match,
    pairwise_distances,
)


def _matrix(values, labels=None):
    values = np.asarray(values)
    m, n = values.shape
    labels = tuple(labels) if labels else tuple(f"u{i}" for i in range(m))
    vocab = Vocabulary(index_to_token=tuple(f"t{j}" for j in range(n)))
    return DocTermMatrix(values=values, row_labels=labels, vocabulary=vocab,
                         weighting=Weighting.COUNTS)


def brute_force_neighbors(rows, target, k):
    """Independent oracle: per-pair scalar distances, full sort, index tie-break."""
    scored = []
    for i, row in enumerate(rows):
        if i == target:
            continue
        total = 0.0
        for a, b in zip(row, rows[target]):
            total += (float(a) - float(b)) ** 2
        scored.append((math.sqrt(total), i))
    scored.sort()
    return scored[:min(k, len(rows) - 1)]


def test_euclidean_three_four_five():
    assert euclidean_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_euclidean_identity():
    u = np.array([1.5, -2.0, 7.0])
    assert euclidean_distance(u, u) == 0.0


def test_euclidean_matches_direct_formula():
    rng = np.random.RandomState(11)
    for _ in range(50):
        u, v = rng.rand(7), rng.rand(7)
        direct = math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))
        assert euclidean_distance(u, v) == pytest.approx(direct, rel=1e-12)


def test_euclidean_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        euclidean_distance(np.array([1.0]), np.array([1.0, 2.0]))


def test_pairwise_single_row():
    assert pairwise_distances(_matrix([[4, 2]])).tolist() == [[0.0]]


def test_pairwise_two_rows():
    d = pairwise_distances(_matrix([[0, 0], [3, 4]]))
    assert d.tolist() == [[0.0, 5.0], [5.0, 0.0]]


def test_pairwise_symmetry_and_triangle_inequality():
    rng = np.random.RandomState(3)
    rows = rng.rand(10, 6)
    d = pairwise_distances(_matrix(rows))
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    m = len(rows)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert d[i, k] <= d[i, j] + d[j, k] + 1e-9


def test_knn_one_dimensional_hand_check():
    result = knn_match(_matrix([[0], [1], [5]]), target_index=0, k=2)
    assert result.neighbors == (("u1", 1.0), ("u2", 5.0))
    assert result.target_username == "u0"
    assert result.k == 2


def test_knn_matches_brute_force_on_integer_matrices():
    # integer entries keep every float operation exact, so equality is literal
    rng = np.random.RandomState(23)
    for _ in range(100):
        m = rng.randint(2, 31)
        n = rng.randint(1, 51)
        rows = rng.randint(0, 10, size=(m, n))
        target = int(rng.randint(m))
        k = int(rng.randint(1, m + 3))
        matrix = _matrix(rows)
        expected = [(matrix.row_labels[i], d)
                    for d, i in brute_force_neighbors(rows, target, k)]
        assert list(knn_match(matrix, target, k).neighbors) == expected


def test_knn_matches_brute_force_on_float_matrices():
    rng = np.random.RandomState(29)
    for _ in range(50):
        m = rng.randint(2, 21)
        rows = rng.rand(m, 8)
        target = int(rng.randint(m))
        k = int(rng.randint(1, m))
        got = knn_match(_matrix(rows), target, k).neighbors
        expected = brute_force_neighbors(rows, target, k)
        assert [name for name, _ in got] == [f"u{i}" for _, i in expected]
        for (_, got_d), (exp_d, _) in zip(got, expected):
            assert got_d == pytest.approx(exp_d, rel=1e-12)


def test_knn_tie_break_by_row_index():
    # rows 1, 2, 3 all at distance 1 from the target
    rows = [[0, 0], [1, 0], [0, 1], [-1, 0]]
    result = knn_match(_matrix(rows), target_index=0, k=3)
    assert [name for name, _ in result.neighbors] == ["u1", "u2", "u3"]
    assert all(d == 1.0 for _, d in result.neighbors)


def test_knn_excludes_target():
    rng = np.random.RandomState(5)
    rows = rng.rand(12, 4)
    for target in range(12):
        names = [n for n, _ in knn_match(_matrix(rows), target, k=11).neighbors]
        assert f"u{target}" not in names
        assert len(names) == 11


def test_knn_duplicate_of_target_ranks_first_at_zero():
    rng = np.random.RandomState(17)
    rows = rng.rand(8, 5)
    rows = np.vstack([rows, rows[2]])
    result = knn_match(_matrix(rows), target_index=2, k=3)
    assert result.neighbors[0] == ("u8", 0.0)


def test_knn_scale_equivariance_exact_for_powers_of_two():
    rng = np.random.RandomState(41)
    rows = rng.rand(9, 6)
    base = knn_match(_matrix(rows), target_index=4, k=8)
    for factor in (0.5, 2.0, 8.0):
        scaled = knn_match(_matrix(rows * factor), target_index=4, k=8)
        assert [n for n, _ in scaled.neighbors] == [n for n, _ in base.neighbors]
        for (_, d_scaled), (_, d_base) in zip(scaled.neighbors, base.neighbors):
            assert d_scaled == factor * d_base


def test_knn_scale_equivariance_general_factor():
    rng = np.random.RandomState(43)
    rows = rng.rand(10, 5)
    base = knn_match(_matrix(rows), target_index=0, k=9)
    factor = 3.7
    scaled = knn_match(_matrix(rows * factor), target_index=0, k=9)
    assert [n for n, _ in scaled.neighbors] == [n for n, _ in base.neighbors]
    for (_, d_scaled), (_, d_base) in zip(scaled.neighbors, base.neighbors):
        assert d_scaled == pytest.approx(factor * d_base, rel=1e-9)


def test_knn_truncates_to_m_minus_one():
    result = knn_match(_matrix([[0], [1], [2]]), target_index=0, k=50)
    assert len(result.neighbors) == 2
    assert result.k == 50


def test_knn_distances_non_decreasing():
    rng = np.random.RandomState(53)
    rows = rng.rand(15, 7)
    distances = [d for _, d in knn_match(_matrix(rows), 3, k=14).neighbors]
    assert distances == sorted(distances)


def test_knn_target_out_of_range():
    with pytest.raises(UnknownTargetError, match="^target index 5 outside 0..1$"):
        knn_match(_matrix([[0], [1]]), target_index=5)


def test_knn_singleton_set():
    with pytest.raises(EmptyCorpusError, match="^need at least two profiles to rank neighbors$"):
        knn_match(_matrix([[0]]), target_index=0)


def test_knn_k_must_be_positive():
    with pytest.raises(ValueError):
        knn_match(_matrix([[0], [1]]), target_index=0, k=0)


def test_report_format():
    result = knn_match(_matrix([[0], [1], [5]], labels=["brand", "near", "far"]),
                       target_index=0, k=2)
    assert result.report() == "# target: brand\n1\tnear\t1.000000\n2\tfar\t5.000000\n"
