from __future__ import annotations

import warnings

import numpy as np
import pytest

from brandmatch import (
    DegenerateEmbeddingWarning,
    DimensionMismatchError,
    Embedding2D,
    EmptyCorpusError,
    FixtureSpec,
    InvalidDistanceMatrixError,
    build_vocabulary,
    classical_mds,
    count_vectorize,
    generate_brand_profile,
    generate_profile_set,
    jacobi_eigh,
    pairwise_distances,
    smacof_refine,
    stress,
    synthesize_document,
    tfidf_transform,
)
from brandmatch import embedding


def _random_symmetric(rng, n):
    a = rng.rand(n, n) * 2 - 1
    return (a + a.T) / 2


def _rel_distance_error(distances, coordinates):
    embedded = pairwise_distances(coordinates)
    i, j = np.triu_indices(distances.shape[0], k=1)
    return np.abs(embedded[i, j] - distances[i, j]) / np.maximum(distances[i, j], 1e-300)


# --- eigensolver -----------------------------------------------------------

def test_jacobi_reconstructs_random_symmetric_matrices():
    rng = np.random.RandomState(2)
    for n in list(range(2, 31)) + [1]:
        a = _random_symmetric(rng, n)
        eigenvalues, eigenvectors = jacobi_eigh(a)
        rebuilt = eigenvectors @ np.diag(eigenvalues) @ eigenvectors.T
        assert np.linalg.norm(rebuilt - a) <= 1e-8 * max(np.linalg.norm(a), 1e-300)
        assert np.allclose(eigenvectors.T @ eigenvectors, np.eye(n), atol=1e-10)


def test_jacobi_eigenvalues_descending():
    rng = np.random.RandomState(9)
    values, _ = jacobi_eigh(_random_symmetric(rng, 12))
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_jacobi_on_diagonal_matrix():
    values, vectors = jacobi_eigh(np.diag([3.0, -1.0, 7.0]))
    assert values.tolist() == [7.0, 3.0, -1.0]
    assert np.abs(vectors).tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


def test_jacobi_deterministic():
    rng = np.random.RandomState(31)
    for n in (17, 40):
        a = _random_symmetric(rng, n)
        first_vals, first_vecs = jacobi_eigh(a)
        second_vals, second_vecs = jacobi_eigh(a)
        assert np.array_equal(first_vals, second_vals)
        assert np.array_equal(first_vecs, second_vecs)


def _assert_matches_lapack(a):
    """Eigenvalues to 1e-10 of the matrix norm; eigenvectors up to sign where
    the eigenvalue is simple, and as a spanned subspace where it repeats."""
    values, vectors = jacobi_eigh(a)
    reference_values, reference_vectors = np.linalg.eigh(a)
    reference_values = reference_values[::-1]
    reference_vectors = reference_vectors[:, ::-1]
    scale = max(np.linalg.norm(a), 1e-300)
    assert np.abs(values - reference_values).max() <= 1e-10 * scale
    assert np.allclose(vectors.T @ vectors, np.eye(a.shape[0]), atol=1e-10)
    separation = 1e-6 * scale
    start = 0
    for stop in range(1, a.shape[0] + 1):
        if stop < a.shape[0] and reference_values[stop - 1] - reference_values[stop] <= separation:
            continue
        got = vectors[:, start:stop]
        want = reference_vectors[:, start:stop]
        if stop - start == 1:
            assert abs(float(got[:, 0] @ want[:, 0])) == pytest.approx(1.0, abs=1e-8)
        else:
            assert np.allclose(got @ got.T, want @ want.T, atol=1e-8)
        start = stop


def test_jacobi_matches_lapack_on_random_symmetric_matrices():
    rng = np.random.RandomState(59)
    for n in (1, 2, 3, 4, 5, 8, 13, 32, 47, 64, 79, 80):
        _assert_matches_lapack(_random_symmetric(rng, n))


def test_jacobi_matches_lapack_on_repeated_eigenvalues():
    rng = np.random.RandomState(61)
    for spectrum in ([5.0, 5.0, 5.0, 1.0, 1.0, -2.0, 0.0, 0.0],
                     [3.0] * 7,
                     [2.0, 2.0, -2.0, -2.0, 0.5]):
        q, _ = np.linalg.qr(rng.rand(len(spectrum), len(spectrum)))
        a = q @ np.diag(spectrum) @ q.T
        _assert_matches_lapack((a + a.T) / 2)


def test_jacobi_on_zero_and_diagonal_matrices():
    for n in (1, 4, 9):
        values, vectors = jacobi_eigh(np.zeros((n, n)))
        assert not values.any()
        assert np.array_equal(vectors, np.eye(n))
    diagonal = np.diag([2.0, 5.0, 2.0, -1.0, 5.0])
    values, vectors = jacobi_eigh(diagonal)
    assert values.tolist() == [5.0, 5.0, 2.0, 2.0, -1.0]
    # no rotation runs, and the stable sort keeps row order among ties
    assert np.array_equal(vectors, np.eye(5)[:, [1, 4, 0, 2, 3]])


def test_jacobi_warns_when_sweep_cap_reached(monkeypatch):
    a = _random_symmetric(np.random.RandomState(67), 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jacobi_eigh(a)
    monkeypatch.setattr(embedding, "_JACOBI_SWEEP_CAP", 1)
    with pytest.warns(RuntimeWarning, match="off-diagonal norm"):
        values, _ = jacobi_eigh(a)
    assert values.shape == (12,)


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
    with pytest.raises(DimensionMismatchError):
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

def test_two_points_at_distance_two():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    result = classical_mds(d)
    assert result.coordinates == pytest.approx(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                               abs=1e-12)
    assert result.stress <= 1e-18
    # sign convention: the largest-magnitude entry of each column is positive,
    # earliest row winning ties
    assert result.coordinates[0, 0] > 0


def test_identical_points_embed_at_zero_with_warning():
    with pytest.warns(DegenerateEmbeddingWarning):
        result = classical_mds(np.zeros((5, 5)))
    assert not result.coordinates.any()
    assert result.stress == 0.0


def test_right_triangle_recovery():
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    d = pairwise_distances(pts)
    result = classical_mds(d)
    assert np.max(_rel_distance_error(d, result.coordinates)) < 1e-9
    embedded = pairwise_distances(result.coordinates)
    i, j = np.triu_indices(3, k=1)
    assert sorted(embedded[i, j]) == pytest.approx([3.0, 4.0, 5.0], rel=1e-9)


def test_planted_2d_configurations_recovered():
    rng = np.random.RandomState(19)
    for _ in range(20):
        m = rng.randint(3, 26)
        pts = rng.rand(m, 2) * 5
        d = pairwise_distances(pts)
        result = classical_mds(d)
        assert np.max(_rel_distance_error(d, result.coordinates)) < 1e-6


def test_collinear_points_second_column_vanishes():
    d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    result = classical_mds(d)
    assert np.max(np.abs(result.coordinates[:, 1])) < 1e-6
    assert np.max(_rel_distance_error(d, result.coordinates)) < 1e-6
    # one column of points: the V x V path has a single eigenpair, so its
    # second column is exactly zero where B's carries rounding noise
    from_points = classical_mds(d, points=np.array([[0.0], [1.0], [2.0]]))
    assert not from_points.coordinates[:, 1].any()
    assert np.abs(from_points.coordinates[:, 0] - result.coordinates[:, 0]).max() <= 1e-9


def test_embedding_is_centered():
    rng = np.random.RandomState(23)
    d = pairwise_distances(rng.rand(12, 6))
    result = classical_mds(d)
    assert np.abs(result.coordinates.mean(axis=0)).max() <= 1e-9


def test_classical_mds_deterministic():
    rng = np.random.RandomState(29)
    d = pairwise_distances(rng.rand(10, 4))
    first = classical_mds(d)
    second = classical_mds(d)
    assert np.array_equal(first.coordinates, second.coordinates)
    assert first.stress == second.stress


def test_classical_mds_carries_labels_and_categories():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    result = classical_mds(d, row_labels=["a", "b"], categories=["dogs", None])
    assert result.row_labels == ("a", "b")
    assert result.categories == ("dogs", None)


def test_classical_mds_input_validation():
    with pytest.raises(InvalidDistanceMatrixError, match="not symmetric"):
        classical_mds(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InvalidDistanceMatrixError, match="nonzero diagonal"):
        classical_mds(np.array([[1.0, 2.0], [2.0, 0.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidDistanceMatrixError, match="NaN or infinite entry"):
            classical_mds(np.array([[0.0, bad], [bad, 0.0]]))
        with pytest.raises(InvalidDistanceMatrixError, match="NaN or infinite entry"):
            smacof_refine(np.array([[0.0, bad], [bad, 0.0]]),
                          classical_mds(np.array([[0.0, 1.0], [1.0, 0.0]])))
    with pytest.raises(InvalidDistanceMatrixError, match="negative entry"):
        classical_mds(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        classical_mds(np.zeros((2, 3)))
    with pytest.raises(EmptyCorpusError, match="^need at least two points to embed$"):
        classical_mds(np.zeros((1, 1)))
    with pytest.raises(DimensionMismatchError):
        classical_mds(np.zeros((3, 3)), points=np.zeros((2, 1)))
    with pytest.raises(DimensionMismatchError):
        classical_mds(np.zeros((3, 3)), points=np.zeros(3))


@pytest.mark.parametrize("users_per_category", [5, 20])
def test_classical_mds_from_points_matches_distance_path(users_per_category):
    # the `synth --brand pizza` fixtures: the demo (V >= m, distance path)
    # and 20 per category (V < m, V x V path)
    spec = FixtureSpec(users_per_category=users_per_category)
    profiles = [*generate_profile_set(spec).profiles,
                generate_brand_profile(spec, "pizza", "pizza_brand")]
    documents = [synthesize_document(p) for p in profiles]
    counts = count_vectorize(documents, build_vocabulary(documents))
    for matrix in (counts, tfidf_transform(counts)):
        m, v = matrix.values.shape
        assert (v < m) == (users_per_category == 20)
        d = pairwise_distances(matrix)
        reference = classical_mds(d)
        from_points = classical_mds(d, points=matrix.values)
        assert np.abs(from_points.coordinates - reference.coordinates).max() <= 1e-9
        assert from_points.stress == stress(d, from_points.coordinates)


def test_classical_mds_identical_points_collapse_with_warning():
    with pytest.warns(DegenerateEmbeddingWarning):
        result = classical_mds(np.zeros((6, 6)), points=np.full((6, 3), 2.5))
    assert not result.coordinates.any()
    assert result.coordinates.shape == (6, 2)


# --- SMACOF ----------------------------------------------------------------

def test_smacof_fixed_point_returns_immediately():
    rng = np.random.RandomState(41)
    pts = rng.rand(6, 2)
    d = pairwise_distances(pts)
    initial = classical_mds(d)
    refined, history = smacof_refine(d, initial, return_history=True)
    assert len(history) == 2
    assert refined.stress <= 1e-18


def test_smacof_stress_non_increasing():
    rng = np.random.RandomState(43)
    for _ in range(10):
        pts = rng.rand(8, 5)
        d = pairwise_distances(pts)
        initial = classical_mds(d)
        refined, history = smacof_refine(d, initial, tol=1e-10, max_iter=200,
                                         return_history=True)
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-12
        assert refined.stress <= history[0] + 1e-12


def test_smacof_two_points_reach_target_distance():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    initial = Embedding2D(coordinates=np.array([[0.0, 0.0], [0.1, 0.0]]),
                          row_labels=("a", "b"), categories=None, stress=0.0)
    refined = smacof_refine(d, initial)
    embedded = pairwise_distances(refined.coordinates)
    assert embedded[0, 1] == pytest.approx(2.0, abs=1e-6)


def test_smacof_improves_a_perturbed_configuration():
    rng = np.random.RandomState(47)
    pts = rng.rand(9, 2)
    d = pairwise_distances(pts)
    noisy = Embedding2D(coordinates=pts + rng.rand(9, 2) * 0.3,
                        row_labels=tuple(f"u{i}" for i in range(9)),
                        categories=None, stress=0.0)
    refined = smacof_refine(d, noisy, max_iter=500, tol=1e-12)
    assert refined.stress < stress(d, noisy.coordinates)
    assert refined.stress < 1e-8


def test_smacof_result_is_recentered():
    d = np.array([[0.0, 2.0], [2.0, 0.0]])
    initial = Embedding2D(coordinates=np.array([[10.0, 5.0], [12.0, 5.0]]),
                          row_labels=("a", "b"), categories=None, stress=0.0)
    refined = smacof_refine(d, initial)
    assert np.abs(refined.coordinates.mean(axis=0)).max() <= 1e-9


def test_smacof_coincident_initial_points():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    initial = Embedding2D(coordinates=np.zeros((2, 2)), row_labels=("a", "b"),
                          categories=None, stress=0.0)
    refined = smacof_refine(d, initial)
    assert np.isfinite(refined.coordinates).all()
    assert refined.stress >= 0.0


def test_smacof_warns_when_max_iter_reached():
    rng = np.random.RandomState(89)
    d = pairwise_distances(rng.rand(10, 5))
    initial = classical_mds(d)
    with pytest.warns(RuntimeWarning, match=r"SMACOF stopped after 3 iterations without "
                      r"converging: relative stress decrease \d\.\d{3}e-\d\d, "
                      r"tol 1\.000e-12") as caught:
        refined, history = smacof_refine(d, initial, max_iter=3, tol=1e-12,
                                         return_history=True)
    assert len(caught) == 1
    assert len(history) == 4 and refined.stress == history[-1]
    decrease = (history[-2] - history[-1]) / history[-2]
    assert f"relative stress decrease {decrease:.3e}," in str(caught[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smacof_refine(d, initial)


def test_stress_accepts_any_number_of_columns():
    rng = np.random.RandomState(83)
    d = pairwise_distances(rng.rand(6, 4))
    for columns in (1, 2, 3, 5):
        pts = rng.rand(6, columns)
        embedded = np.sqrt(((pts[:, np.newaxis, :] - pts[np.newaxis, :, :]) ** 2).sum(axis=2))
        i, j = np.triu_indices(6, k=1)
        expected = float(((embedded[i, j] - d[i, j]) ** 2).sum())
        assert stress(d, pts) == pytest.approx(expected, rel=1e-12)
    assert stress(d, np.zeros((6, 0))) == pytest.approx(float((np.triu(d) ** 2).sum()),
                                                         rel=1e-12)


def test_smacof_input_validation():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    initial = Embedding2D(coordinates=np.zeros((3, 2)), row_labels=("a", "b", "c"),
                          categories=None, stress=0.0)
    with pytest.raises(DimensionMismatchError):
        smacof_refine(d, initial)
    good = Embedding2D(coordinates=np.zeros((2, 2)), row_labels=("a", "b"),
                       categories=None, stress=0.0)
    with pytest.raises(ValueError):
        smacof_refine(d, good, max_iter=0)
    with pytest.raises(ValueError):
        smacof_refine(d, good, tol=0.0)


def test_smacof_deterministic():
    rng = np.random.RandomState(53)
    d = pairwise_distances(rng.rand(7, 4))
    initial = classical_mds(d)
    first = smacof_refine(d, initial)
    second = smacof_refine(d, initial)
    assert np.array_equal(first.coordinates, second.coordinates)
    assert first.stress == second.stress
