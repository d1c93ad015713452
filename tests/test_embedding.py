from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from brandmatch import (
    BrandMatchError,
    DocTermMatrix,
    Embedding2D,
    EmptyCorpusError,
    classical_mds,
    knn_match,
    pairwise_distances,
    smacof_refine,
    stress,
)
from brandmatch import embedding
from brandmatch.embedding import _top_eigenpairs


def _random_symmetric(rng, n):
    a = rng.rand(n, n) * 2 - 1
    return (a + a.T) / 2


def _rel_distance_error(distances, coordinates):
    embedded = pairwise_distances(coordinates)
    i, j = np.triu_indices(distances.shape[0], k=1)
    return np.abs(embedded[i, j] - distances[i, j]) / np.maximum(distances[i, j], 1e-300)


# --- eigensolver -----------------------------------------------------------

def _assert_orthonormal_eigenpairs(a, values, vectors):
    """Residual and orthonormality: they hold whichever vectors a tied eigenvalue gets."""
    scale = max(np.linalg.norm(a), 1e-300)
    for value, vector in zip(values, vectors.T):
        assert np.linalg.norm(a @ vector - value * vector) <= 1e-12 * scale
    assert np.abs(vectors.T @ vectors - np.eye(values.size)).max() <= 1e-12


def _assert_matches_lapack(a):
    """The min(2, n) largest eigenvalues to 1e-12 of the matrix norm, and their
    vectors up to sign where the eigenvalue is apart from every other one."""
    n = a.shape[0]
    values, vectors = _top_eigenpairs(a)
    assert values.shape == (min(2, n),) and vectors.shape == (n, min(2, n))
    reference_values, reference_vectors = np.linalg.eigh(a)
    reference_values, reference_vectors = reference_values[::-1], reference_vectors[:, ::-1]
    scale = max(np.linalg.norm(a), 1e-300)
    assert np.abs(values - reference_values[:values.size]).max() <= 1e-12 * scale
    _assert_orthonormal_eigenpairs(a, values, vectors)
    for j in range(values.size):
        others = np.delete(reference_values, j)
        if np.abs(others - reference_values[j]).min(initial=np.inf) > 1e-6 * scale:
            assert abs(float(vectors[:, j] @ reference_vectors[:, j])) == \
                pytest.approx(1.0, abs=1e-8)


def test_top_eigenpairs_residuals_on_random_symmetric_matrices():
    rng = np.random.RandomState(2)
    for n in list(range(2, 31)) + [1]:
        a = _random_symmetric(rng, n)
        values, vectors = _top_eigenpairs(a)
        assert values.shape == (min(2, n),) and vectors.shape == (n, min(2, n))
        _assert_orthonormal_eigenpairs(a, values, vectors)


def test_top_eigenpairs_eigenvalues_descending():
    rng = np.random.RandomState(9)
    for n in (2, 3, 12, 25):
        a = _random_symmetric(rng, n)
        values, _ = _top_eigenpairs(a)
        assert values[0] >= values[1]
        assert values[0] >= np.linalg.eigvalsh(a).max() - 1e-12 * np.linalg.norm(a)


def test_top_eigenpairs_match_lapack_on_random_symmetric_matrices():
    rng = np.random.RandomState(59)
    for n in (1, 2, 3, 4, 5, 8, 13, 32, 47, 64, 79, 80):
        _assert_matches_lapack(_random_symmetric(rng, n))  # indefinite


def test_top_eigenpairs_on_tied_eigenvalues():
    _assert_matches_lapack(np.diag([2.0, 2.0, 2.0, 1.0]))
    rng = np.random.RandomState(61)
    for spectrum in ([5.0, 5.0, 5.0, 1.0, 1.0, -2.0, 0.0, 0.0],
                     [3.0] * 7,
                     [2.0, 2.0, -2.0, -2.0, 0.5]):
        q, _ = np.linalg.qr(rng.rand(len(spectrum), len(spectrum)))
        a = q @ np.diag(spectrum) @ q.T
        _assert_matches_lapack((a + a.T) / 2)


def test_top_eigenpairs_on_diagonal_matrix():
    values, vectors = _top_eigenpairs(np.diag([3.0, -1.0, 7.0]))
    assert values == pytest.approx([7.0, 3.0], abs=1e-14)
    assert np.abs(vectors) == pytest.approx(np.eye(3)[:, [2, 0]], abs=1e-14)


def test_top_eigenpairs_on_zero_and_diagonal_matrices():
    for n in (1, 2, 4, 9):
        values, vectors = _top_eigenpairs(np.zeros((n, n)))
        assert not values.any()
        _assert_orthonormal_eigenpairs(np.zeros((n, n)), values, vectors)
    diagonal = np.diag([2.0, 5.0, 2.0, -1.0, 5.0])
    values, vectors = _top_eigenpairs(diagonal)
    assert values == pytest.approx([5.0, 5.0], abs=1e-14)
    _assert_orthonormal_eigenpairs(diagonal, values, vectors)


def test_top_eigenpairs_on_centred_low_rank_grams():
    rng = np.random.RandomState(83)
    for rank in (1, 2, 3):
        points = rng.rand(30, rank) @ rng.rand(rank, 12)
        centred = points - points.mean(axis=0)
        gram = centred.T @ centred
        _assert_matches_lapack(gram)
        if rank == 1:
            values, _ = _top_eigenpairs(gram)
            assert abs(values[1]) <= 1e-12 * values[0]


def test_top_eigenpairs_deterministic():
    rng = np.random.RandomState(31)
    points = rng.poisson(2.0, size=(60, 40)).astype(float)
    centred = points - points.mean(axis=0)
    for a in (_random_symmetric(rng, 17), _random_symmetric(rng, 40), centred.T @ centred):
        first_values, first_vectors = _top_eigenpairs(a)
        second_values, second_vectors = _top_eigenpairs(a)
        assert np.array_equal(first_values, second_values)
        assert np.array_equal(first_vectors, second_vectors)


# --- stress ----------------------------------------------------------------

def test_stress_zero_when_exact():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 0.0]])
    assert stress(pairwise_distances(pts), pts) == 0.0


def test_stress_coincident_two_points():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    coords = np.zeros((2, 2))
    assert stress(d, coords) == 4.0


def test_stress_matches_double_loop():
    rng = np.random.RandomState(13)
    pts = rng.rand(5, 2)
    d = rng.rand(5, 5)
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    total = 0.0
    for i in range(5):
        for j in range(i + 1, 5):
            emb = float(np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]))
            total += (emb - d[i, j]) ** 2
    assert stress(d, pts) == pytest.approx(total, rel=1e-12)


def test_stress_dimension_mismatch():
    with pytest.raises(BrandMatchError,
                       match=r"^coordinates \(2, 2\) inconsistent with distances \(3, 3\)$"):
        stress(np.zeros((3, 3)), np.zeros((2, 2)))


def test_stress_invariant_under_rigid_motions():
    rng = np.random.RandomState(37)
    pts = rng.rand(8, 2)
    d = pairwise_distances(rng.rand(8, 5))
    base = stress(d, pts)
    theta = 0.77
    rotation = np.array([[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]])
    assert stress(d, pts @ rotation) == pytest.approx(base, abs=1e-9)
    assert stress(d, pts * np.array([-1.0, 1.0])) == pytest.approx(base, abs=1e-9)
    assert stress(d, pts + np.array([5.0, -3.0])) == pytest.approx(base, abs=1e-9)


# --- classical MDS ---------------------------------------------------------

def _plant(points, dimensions, seed):
    """The rows rotated into R^dimensions: the same distances, no longer the answer."""
    rotation, _ = np.linalg.qr(np.random.RandomState(seed).randn(dimensions, dimensions))
    padded = np.zeros((points.shape[0], dimensions))
    padded[:, :points.shape[1]] = points
    return padded @ rotation


def test_two_points_at_distance_two():
    points = np.array([[0.0], [2.0]])
    result = classical_mds(points=points)
    assert result == pytest.approx(np.array([[1.0, 0.0], [-1.0, 0.0]]), abs=1e-12)
    assert stress(pairwise_distances(points), result) <= 1e-18
    # sign convention: the largest-magnitude entry of each column is positive,
    # earliest row winning ties
    assert result[0, 0] > 0


def test_identical_points_embed_at_zero_with_warning():
    with pytest.warns(RuntimeWarning, match="^both leading eigenvalues non-positive"):
        result = classical_mds(points=np.zeros((5, 3)))
    assert not result.any()
    assert stress(np.zeros((5, 5)), result) == 0.0


def test_right_triangle_recovery():
    triangle = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    for points in (triangle, _plant(triangle, 3, 5)):  # V' = 2 < m = 3, then V' = m
        d = pairwise_distances(points)
        result = classical_mds(points=points)
        assert np.max(_rel_distance_error(d, result)) < 1e-9
        embedded = pairwise_distances(result)
        i, j = np.triu_indices(3, k=1)
        assert sorted(embedded[i, j]) == pytest.approx([3.0, 4.0, 5.0], rel=1e-9)


def test_planted_2d_configurations_recovered():
    rng = np.random.RandomState(19)
    for seed in range(20):
        m = rng.randint(3, 26)
        points = _plant(rng.rand(m, 2) * 5, 8, seed)  # V' = 8 >= m for m <= 8
        d = pairwise_distances(points)
        result = classical_mds(points=points)
        assert np.max(_rel_distance_error(d, result)) < 1e-6


def test_collinear_points_second_column_vanishes():
    # one column: the V' x V' path has a single eigenpair, so the second
    # column is exactly zero
    line = np.array([[0.0], [1.0], [2.0]])
    result = classical_mds(points=line)
    assert not result[:, 1].any()
    assert np.max(_rel_distance_error(pairwise_distances(line), result)) < 1e-9
    # four distinct columns: the m x m path, whose second eigenvalue is rounding noise
    tilted = line * np.array([1.0, 2.0, 3.0, 4.0])
    from_gram = classical_mds(points=tilted)
    assert np.max(np.abs(from_gram[:, 1])) < 1e-6
    assert np.max(_rel_distance_error(pairwise_distances(tilted), from_gram)) < 1e-6


def test_embedding_is_centered():
    rng = np.random.RandomState(23)
    for shape in ((12, 6), (6, 12)):
        result = classical_mds(points=rng.rand(*shape))
        assert np.abs(result.mean(axis=0)).max() <= 1e-9


def test_classical_mds_deterministic():
    rng = np.random.RandomState(29)
    for shape in ((10, 4), (4, 10)):
        points = rng.rand(*shape)
        d = pairwise_distances(points)
        first = classical_mds(points=points)
        second = classical_mds(points=points)
        assert np.array_equal(first, second)
        assert stress(d, first) == stress(d, second)


def test_classical_mds_input_validation():
    # a distance matrix is never taken, by position or beside the rows
    with pytest.raises(TypeError):
        classical_mds(np.zeros((3, 3)))
    with pytest.raises(TypeError):
        classical_mds(np.zeros((3, 3)), points=np.zeros((3, 1)))
    with pytest.raises(TypeError):
        classical_mds()
    with pytest.raises(EmptyCorpusError, match="^need at least two points to embed$"):
        classical_mds(points=np.zeros((1, 3)))
    with pytest.raises(BrandMatchError,
                       match=r"^expected a 2-D matrix of rows, got shape \(3,\)$"):
        classical_mds(points=np.zeros(3))


def test_classical_mds_identical_points_collapse_with_warning():
    with pytest.warns(RuntimeWarning, match="^both leading eigenvalues non-positive"):
        result = classical_mds(points=np.full((6, 3), 2.5))
    assert not result.any()
    assert result.shape == (6, 2)


# --- SMACOF ----------------------------------------------------------------

def test_smacof_fixed_point_returns_immediately():
    rng = np.random.RandomState(41)
    pts = rng.rand(6, 2)
    d = pairwise_distances(pts)
    initial = classical_mds(points=pts)
    refined, history = smacof_refine(d, initial, return_history=True)
    assert len(history) == 2
    assert refined.stress <= 1e-18


def test_smacof_stress_non_increasing(monkeypatch):
    monkeypatch.setattr(embedding, "DEFAULT_MAX_ITER", 200)
    monkeypatch.setattr(embedding, "DEFAULT_TOL", 1e-10)
    rng = np.random.RandomState(43)
    for _ in range(10):
        pts = rng.rand(8, 5)
        d = pairwise_distances(pts)
        initial = classical_mds(points=pts)
        refined, history = smacof_refine(d, initial, return_history=True)
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-12
        assert refined.stress <= history[0] + 1e-12


def test_smacof_two_points_reach_target_distance():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    initial = np.array([[0.0, 0.0], [0.1, 0.0]])
    refined = smacof_refine(d, initial)
    embedded = pairwise_distances(refined.coordinates)
    assert embedded[0, 1] == pytest.approx(2.0, abs=1e-6)


def test_smacof_improves_a_perturbed_configuration(monkeypatch):
    monkeypatch.setattr(embedding, "DEFAULT_MAX_ITER", 500)
    monkeypatch.setattr(embedding, "DEFAULT_TOL", 1e-12)
    rng = np.random.RandomState(47)
    pts = rng.rand(9, 2)
    d = pairwise_distances(pts)
    noisy = pts + rng.rand(9, 2) * 0.3
    refined = smacof_refine(d, noisy)
    assert refined.stress < stress(d, noisy)
    assert refined.stress < 1e-8


def test_smacof_returns_only_coordinates_and_stress():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    refined = smacof_refine(d, classical_mds(points=np.array([[0.0], [2.0]])))
    assert isinstance(refined, Embedding2D)
    assert [field.name for field in dataclasses.fields(refined)] == ["coordinates", "stress"]


def test_smacof_result_is_recentered():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    initial = np.array([[10.0, 5.0], [12.0, 5.0]])
    refined = smacof_refine(d, initial)
    assert np.abs(refined.coordinates.mean(axis=0)).max() <= 1e-9


def test_smacof_coincident_initial_points():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    initial = np.zeros((2, 2))
    refined = smacof_refine(d, initial)
    assert np.isfinite(refined.coordinates).all()
    assert refined.stress >= 0.0


def test_smacof_warns_when_max_iter_reached(monkeypatch):
    rng = np.random.RandomState(89)
    points = rng.rand(10, 5)
    d = pairwise_distances(points)
    initial = classical_mds(points=points)
    with pytest.warns(RuntimeWarning, match=r"SMACOF stopped after 3 iterations without "
                      r"converging: relative stress decrease \d\.\d{3}e-\d\d, "
                      r"tol 1\.000e-12") as caught:
        with monkeypatch.context() as patched:
            patched.setattr(embedding, "DEFAULT_MAX_ITER", 3)
            patched.setattr(embedding, "DEFAULT_TOL", 1e-12)
            refined, history = smacof_refine(d, initial, return_history=True)
    assert len(caught) == 1
    assert len(history) == 4 and refined.stress == history[-1]
    decrease = (history[-2] - history[-1]) / history[-2]
    assert f"relative stress decrease {decrease:.3e}," in str(caught[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smacof_refine(d, initial)


def test_stress_scores_only_two_columns():
    rng = np.random.RandomState(83)
    d = pairwise_distances(rng.rand(6, 4))
    pts = rng.rand(6, 2)
    embedded = np.sqrt(((pts[:, np.newaxis, :] - pts[np.newaxis, :, :]) ** 2).sum(axis=2))
    i, j = np.triu_indices(6, k=1)
    expected = float(((embedded[i, j] - d[i, j]) ** 2).sum())
    assert stress(d, pts) == pytest.approx(expected, rel=1e-12)
    for columns in (0, 1, 3):
        with pytest.raises(BrandMatchError, match=rf"^coordinates \(6, {columns}\) "
                                                  r"inconsistent with distances \(6, 6\)$"):
            stress(d, rng.rand(6, columns))


def test_smacof_input_validation():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    initial = np.zeros((3, 2))
    with pytest.raises(BrandMatchError, match=r"^initial configuration \(3, 2\) inconsistent "
                                              r"with 2 x 2 distances$"):
        smacof_refine(d, initial)
    good = np.zeros((2, 2))
    with pytest.raises(BrandMatchError, match="not symmetric"):
        smacof_refine(np.array([[0.0, 1.0], [2.0, 0.0]]), good)
    with pytest.raises(BrandMatchError, match="nonzero diagonal"):
        smacof_refine(np.array([[1.0, 2.0], [2.0, 0.0]]), good)
    with pytest.raises(BrandMatchError, match="negative entry"):
        smacof_refine(np.array([[0.0, -1.0], [-1.0, 0.0]]), good)
    with pytest.raises(BrandMatchError, match=r"^distance matrix must be square, got \(2, 3\)$"):
        smacof_refine(np.zeros((2, 3)), good)


def test_smacof_deterministic():
    rng = np.random.RandomState(53)
    points = rng.rand(7, 4)
    d = pairwise_distances(points)
    initial = classical_mds(points=points)
    first = smacof_refine(d, initial)
    second = smacof_refine(d, initial)
    assert np.array_equal(first.coordinates, second.coordinates)
    assert first.stress == second.stress


# --- non-finite input --------------------------------------------------------

def _ranked(values):
    return knn_match(DocTermMatrix(rows=tuple(map(tuple, values.tolist())),
                                   row_labels=("a", "b", "c"), vocabulary=("x", "y")), 0)


def _off_diagonal(values):
    # a distance matrix: symmetric, zero diagonal, every other entry the planted value
    return np.where(np.eye(3) > 0.0, 0.0, values[1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call, name", [
    (_ranked, "row matrix"),
    (pairwise_distances, "row matrix"),
    (lambda values: classical_mds(points=values), "row matrix"),
    (lambda values: smacof_refine(np.zeros((3, 3)), values), "initial configuration"),
    (lambda values: smacof_refine(_off_diagonal(values), np.zeros((3, 2))), "distance matrix"),
    (lambda values: stress(np.zeros((3, 3)), values), "coordinate array"),
    (lambda values: stress(_off_diagonal(values), np.zeros((3, 2))), "distance matrix"),
], ids=["knn_match", "pairwise_distances", "classical_mds", "smacof_initial",
        "smacof_distances", "stress", "stress_distances"])
def test_non_finite_input_is_rejected(call, name, bad):
    values = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    values[1, 0] = bad
    with pytest.raises(BrandMatchError, match=f"^{name} has a NaN or infinite entry$"):
        call(values)
