"""The embedding kernels against plainer references.

``_reference_smacof`` builds the Guttman matrix B through the m x m x 2
difference tensor and sums the stress over ``np.triu_indices``. The current
SMACOF must take the same number of iterations and land within 1e-12 of it.

``_reference_classical_mds`` solves the V x V problem on every raw centred
column (V < m) with LAPACK, without merging equal columns. The merged-column
path must land within 1e-12 of it, relative to the RMS radius. Either Gram side
must land within 1e-10 of LAPACK on the centred rows' m x m Gram matrix, and at
m = 501 of LAPACK on the double-centred distances; the eigensolver alone must
land within 1e-10 of LAPACK on centred Poisson Gram matrices of order 200 and 400.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import brandmatch.embedding
from brandmatch import (
    FixtureSpec,
    build_vocabulary,
    classical_mds,
    count_vectorize,
    generate_brand_profile,
    generate_profile_set,
    pairwise_distances,
    smacof_refine,
    stress,
    synthesize_document,
    tfidf_transform,
)
from brandmatch.embedding import _top_eigenpairs


def _reference_embedded_distances(coordinates):
    diff = coordinates[:, np.newaxis, :] - coordinates[np.newaxis, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _reference_raw_stress(distances, embedded):
    residual = embedded - distances
    i_upper, j_upper = np.triu_indices(distances.shape[0], k=1)
    return float((residual[i_upper, j_upper] ** 2).sum())


def _reference_smacof(distances, coordinates, max_iter=300, tol=1e-6):
    d = np.asarray(distances, dtype=np.float64)
    m = d.shape[0]
    x = np.array(coordinates, dtype=np.float64, copy=True)
    embedded = _reference_embedded_distances(x)
    previous = _reference_raw_stress(d, embedded)
    history = [previous]
    for _ in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore"):
            b = np.where(embedded > 0.0, -d / embedded, 0.0)
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        x = (b @ x) / m
        embedded = _reference_embedded_distances(x)
        current = _reference_raw_stress(d, embedded)
        history.append(current)
        if (previous - current) / max(previous, 1e-12) < tol:
            break
        previous = current
    return x - x.mean(axis=0), history


def _synth_matrix(seed, weighting):
    spec = FixtureSpec(seed=seed, users_per_category=5, posts_per_user=20)
    profiles = list(generate_profile_set(spec).profiles)
    profiles.append(generate_brand_profile(spec, "pizza", "pizza_brand"))
    documents = [synthesize_document(p) for p in profiles]
    matrix = count_vectorize(documents, build_vocabulary(documents))
    return tfidf_transform(matrix) if weighting == "tfidf" else matrix


def _assert_smacof_close(distances, initial):
    refined, history = smacof_refine(distances, initial, return_history=True)
    coordinates, reference_history = _reference_smacof(distances, initial)
    assert len(history) == len(reference_history)
    np.testing.assert_allclose(history, reference_history, rtol=1e-12, atol=0.0)
    radius = np.sqrt((coordinates ** 2).sum(axis=1).mean())
    assert np.abs(refined.coordinates - coordinates).max() <= 1e-12 * radius
    assert refined.stress == history[-1]


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("weighting", ["counts", "tfidf"])
def test_smacof_matches_reference_on_synth_fixtures(seed, weighting):
    matrix = _synth_matrix(seed, weighting)
    distances = pairwise_distances(matrix.values)
    _assert_smacof_close(distances, classical_mds(points=matrix.values))


def test_smacof_matches_reference_with_coincident_points():
    rng = np.random.RandomState(79)
    points = rng.rand(9, 4)
    points[[4, 7]] = points[2]
    points[8] = points[0]
    distances = pairwise_distances(points)
    initial = classical_mds(points=points)
    assert distances[2, 7] == 0.0
    assert np.array_equal(initial[2], initial[7])
    _assert_smacof_close(distances, initial)
    merged = initial.copy()
    merged[5] = merged[6]  # apart in the input, together in the start
    _assert_smacof_close(distances, merged)
    _assert_smacof_close(distances, np.zeros((9, 2)))


def _reference_fix_column_signs(coordinates):
    for j in range(coordinates.shape[1]):
        column = coordinates[:, j]
        if column[int(np.argmax(np.abs(column)))] < 0.0:
            coordinates[:, j] = -column
    return coordinates


def _reference_classical_mds(points):
    centred = points - points.mean(axis=0)
    eigenvalues, eigenvectors = np.linalg.eigh(centred.T @ centred)
    top = np.argsort(-eigenvalues)[:2]
    coordinates = centred @ eigenvectors[:, top]
    coordinates[:, eigenvalues[top] <= 0.0] = 0.0
    return _reference_fix_column_signs(coordinates)


def _top_two(values, vectors):
    top = np.argsort(-values)[:2]
    return _reference_fix_column_signs(vectors[:, top] * np.sqrt(np.clip(values[top], 0.0, None)))


def _lapack_centred_gram(points):
    centred = points - points.mean(axis=0)
    return _top_two(*np.linalg.eigh(centred @ centred.T))


def _lapack_double_centring(distances):
    # the full m x m problem, solved by LAPACK
    m = distances.shape[0]
    centering = np.eye(m) - np.full((m, m), 1.0 / m)
    return _top_two(*np.linalg.eigh(-0.5 * centering @ (distances * distances) @ centering))


def _synth_cli_matrix(users_per_category, weighting):
    # the matrix of `synth --users-per-category N --brand pizza`
    spec = FixtureSpec(users_per_category=users_per_category)
    profiles = list(generate_profile_set(spec).profiles)
    profiles.append(generate_brand_profile(spec, "pizza", "pizza_brand"))
    documents = [synthesize_document(p) for p in profiles]
    matrix = count_vectorize(documents, build_vocabulary(documents))
    return tfidf_transform(matrix) if weighting == "tfidf" else matrix


def _assert_coordinates_close(coordinates, reference, relative):
    radius = np.sqrt((reference ** 2).sum(axis=1).mean())
    assert radius > 0.0
    assert np.abs(coordinates - reference).max() <= relative * radius


@pytest.mark.parametrize("weighting", ["counts", "tfidf"])
def test_classical_mds_matches_the_unmerged_column_path(weighting):
    values = _synth_cli_matrix(20, weighting).values  # m = 101, V = 72, V' = 42
    _assert_coordinates_close(classical_mds(points=values), _reference_classical_mds(values),
                              1e-12)


@pytest.mark.parametrize("users_per_category, weighting", [
    (5, "counts"),  # m = 26 <= V' = 42: the m x m Gram matrix
    (9, "counts"),  # m = 46 > V' = 42 but < V = 72: the merge switches side
    (9, "tfidf"),
    (20, "counts"),
    (20, "tfidf"),
])
def test_classical_mds_matches_lapack_on_the_centred_gram(users_per_category, weighting):
    values = _synth_cli_matrix(users_per_category, weighting).values
    distances = pairwise_distances(values)
    embedding = classical_mds(points=values)
    reference = _lapack_centred_gram(values)
    _assert_coordinates_close(embedding, reference, 1e-10)
    assert stress(distances, embedding) == pytest.approx(stress(distances, reference),
                                                         rel=1e-10)


def test_classical_mds_matches_double_centring_at_m_501():
    matrix = _synth_cli_matrix(100, "tfidf")
    distances = pairwise_distances(matrix.values)
    embedding = classical_mds(points=matrix.values)
    _assert_coordinates_close(embedding, _lapack_double_centring(distances), 1e-10)


@pytest.mark.parametrize("users_per_category, solved", [
    (5, (26, 26)),  # the README demo: m = 26 < V' = 42 solves the m x m side
    (9, (42, 42)),
    (20, (42, 42)),
])
def test_classical_mds_solves_the_distinct_columns(monkeypatch, users_per_category, solved):
    shapes = []

    def recording(matrix):
        shapes.append(np.shape(matrix))
        return _top_eigenpairs(matrix)

    monkeypatch.setattr(brandmatch.embedding, "_top_eigenpairs", recording)
    matrix = _synth_cli_matrix(users_per_category, "counts")
    assert matrix.values.shape[1] == 72
    classical_mds(points=matrix.values)
    assert shapes == [solved]


@pytest.mark.parametrize("n", [200, 400])
def test_top_eigenpairs_match_lapack_on_poisson_grams(n):
    # a vocabulary of n distinct columns: the V' x V' side at sizes the synth
    # fixtures (V' = 42) never reach
    points = np.random.RandomState(n).poisson(2.0, size=(n + 50, n)).astype(float)
    centred = points - points.mean(axis=0)
    gram = centred.T @ centred
    started = time.perf_counter()
    values, vectors = _top_eigenpairs(gram)
    elapsed = time.perf_counter() - started
    reference_values, reference_vectors = np.linalg.eigh(gram)
    assert values == pytest.approx(reference_values[::-1][:2], rel=1e-12)
    _assert_coordinates_close(_reference_fix_column_signs(centred @ vectors),
                              _reference_fix_column_signs(centred @ reference_vectors[:, :-3:-1]),
                              1e-10)
    assert n < 400 or elapsed < 2.0, f"n = {n} took {elapsed:.2f} s"
