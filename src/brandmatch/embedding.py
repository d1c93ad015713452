"""2-D embedding of the profile space: classical MDS refined by SMACOF.

Classical (Torgerson) scaling double-centers the squared distances,
``B = -1/2 * J * D^2 * J`` with ``J = I - (1/m) * 1 * 1^T``, and reads
coordinates off the top two eigenpairs of B. SMACOF then iterates the
Guttman transform ``X <- (1/m) * B(X) * X``, which never increases the raw
stress ``sigma = sum_{i<j} (dhat_ij - delta_ij)^2``.

When the distances are Euclidean distances between the rows of an m x V
matrix X, ``B = Xc * Xc^T`` with Xc the column-centred X, and B shares its
nonzero eigenvalues with the V x V matrix ``Xc^T * Xc`` (the MDS/PCA
duality, Gower 1966): for an eigenpair ``(lambda, w)`` of the latter,
``Xc * w`` is the B eigenvector scaled by ``sqrt(lambda)``, i.e. a finished
coordinate column. ``classical_mds`` takes that V x V path when it is given
the points and V < m, and otherwise double-centres the m x m distances.

Everything here is deterministic: a Jacobi eigensolver with a fixed
round-robin rotation order, a fixed column sign convention, and no
randomness, so identical inputs give bit-identical embeddings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateEmbeddingWarning,
    DimensionMismatchError,
    InvalidDistanceMatrixError,
    SingletonSetError,
)

DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-6
_JACOBI_SWEEP_CAP = 100
_JACOBI_REL_THRESHOLD = 1e-12


@dataclass(frozen=True)
class Embedding2D:
    coordinates: np.ndarray
    row_labels: tuple[str, ...]
    categories: Optional[tuple[Optional[str], ...]]
    stress: float


def _check_distance_matrix(distances: np.ndarray) -> np.ndarray:
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionMismatchError(f"distance matrix must be square, got {d.shape}")
    if not np.isfinite(d).all():
        raise InvalidDistanceMatrixError("distance matrix has a NaN or infinite entry")
    if (d < 0.0).any():
        raise InvalidDistanceMatrixError("distance matrix has a negative entry")
    if not np.array_equal(d, d.T):
        raise InvalidDistanceMatrixError("distance matrix is not symmetric")
    if np.any(np.diag(d) != 0.0):
        raise InvalidDistanceMatrixError("distance matrix has a nonzero diagonal")
    return d


def _embedded_distances(coordinates: np.ndarray) -> np.ndarray:
    diff = coordinates[:, np.newaxis, :] - coordinates[np.newaxis, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def stress(distances: np.ndarray, coordinates: np.ndarray) -> float:
    """Raw stress: sum over i<j of squared (embedded minus input) distances."""
    d = np.asarray(distances, dtype=np.float64)
    x = np.asarray(coordinates, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DimensionMismatchError(f"distance matrix must be square, got {d.shape}")
    if x.ndim != 2 or x.shape[0] != d.shape[0]:
        raise DimensionMismatchError(
            f"coordinates {x.shape} inconsistent with distances {d.shape}")
    return _raw_stress(d, _embedded_distances(x))


def _raw_stress(distances: np.ndarray, embedded: np.ndarray) -> float:
    residual = embedded - distances
    i_upper, j_upper = np.triu_indices(distances.shape[0], k=1)
    return float((residual[i_upper, j_upper] ** 2).sum())


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rounds of disjoint index pairs (p, q), p < q, covering every pair once.

    Circle-method tournament: index 0 stays put while the others rotate one
    place per round. Odd n is padded with a dummy index whose pairs drop out.
    """
    size = n + n % 2
    others = list(range(1, size))
    rounds = []
    for _ in range(size - 1):
        ring = [0] + others
        pairs = [(min(p, q), max(p, q))
                 for p, q in zip(ring[:size // 2], ring[::-1]) if max(p, q) < n]
        rounds.append((np.array([p for p, _ in pairs], dtype=np.intp),
                       np.array([q for _, q in pairs], dtype=np.intp)))
        others = others[-1:] + others[:-1]
    return rounds


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by parallel-ordered Jacobi rotations.

    Returns (eigenvalues, eigenvectors) sorted by descending eigenvalue;
    column j of the eigenvector matrix pairs with eigenvalue j. Each sweep
    visits every off-diagonal pair once in a fixed round-robin order of n-1
    rounds (Brent & Luk 1985); the rotations of one round act on disjoint
    index pairs, so they commute and are applied together. Sweeps stop when
    the off-diagonal Frobenius norm drops below 1e-12 times the matrix norm;
    after the hard cap of 100 sweeps a RuntimeWarning reports the norm
    reached. The order is fixed, so the decomposition is deterministic.
    """
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    v = np.eye(n)
    frobenius = float(np.linalg.norm(a))
    if n > 1 and frobenius > 0.0:
        threshold = _JACOBI_REL_THRESHOLD * frobenius
        upper = np.triu_indices(n, k=1)
        rounds = _round_robin(n)
        for _ in range(_JACOBI_SWEEP_CAP):
            # summed directly, not as ||A||^2 - ||diag||^2: that difference
            # cancels catastrophically once the off-diagonal part is small
            off_norm = np.sqrt(2.0 * float((a[upper] ** 2).sum()))
            if off_norm < threshold:
                break
            for p, q in rounds:
                apq = a[p, q]
                live = apq != 0.0
                if not live.all():
                    p, q, apq = p[live], q[live], apq[live]
                    if p.size == 0:
                        continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # fancy-index reads copy, so every pair sees pre-round values
                col_p, col_q = a[:, p], a[:, q]
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :], a[q, :]
                a[p, :] = c[:, np.newaxis] * row_p - s[:, np.newaxis] * row_q
                a[q, :] = s[:, np.newaxis] * row_p + c[:, np.newaxis] * row_q
                a[p, q] = a[q, p] = 0.0
                vec_p, vec_q = v[:, p], v[:, q]
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
        else:
            off_norm = np.sqrt(2.0 * float((a[upper] ** 2).sum()))
            if off_norm >= threshold:
                warnings.warn(f"Jacobi stopped after {_JACOBI_SWEEP_CAP} sweeps without "
                              f"converging: off-diagonal norm {off_norm:.3e}, "
                              f"threshold {threshold:.3e}", RuntimeWarning, stacklevel=2)
    eigenvalues = np.diag(a).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def _fix_column_signs(coordinates: np.ndarray) -> np.ndarray:
    # flip each column so its largest-magnitude entry is positive;
    # argmax picks the earliest row on ties
    for j in range(coordinates.shape[1]):
        column = coordinates[:, j]
        lead = int(np.argmax(np.abs(column)))
        if column[lead] < 0.0:
            coordinates[:, j] = -column
    return coordinates


def classical_mds(distances: np.ndarray,
                  row_labels: Optional[Sequence[str]] = None,
                  categories: Optional[Sequence[Optional[str]]] = None, *,
                  points: Optional[np.ndarray] = None) -> Embedding2D:
    """Torgerson scaling of a distance matrix to 2 coordinates.

    ``points``, if given, are the m x V rows the Euclidean distances were
    computed from; when V < m the eigenproblem is solved on the V x V matrix
    ``Xc^T * Xc`` instead of the m x m matrix B (see the module docstring).
    The stress is always measured against ``distances``.

    Negative leading eigenvalues (non-Euclidean input) clamp to zero and yield
    a zero coordinate column; if both leading eigenvalues are non-positive the
    embedding is all-zero and a DegenerateEmbeddingWarning is issued.
    """
    d = _check_distance_matrix(distances)
    m = d.shape[0]
    if m < 2:
        raise SingletonSetError("need at least two points to embed")
    x = None if points is None else np.asarray(points, dtype=np.float64)
    if x is not None and (x.ndim != 2 or x.shape[0] != m):
        raise DimensionMismatchError(f"points {x.shape} inconsistent with {m} x {m} distances")
    if x is not None and x.shape[1] < m:
        centred = x - x.mean(axis=0)
        eigenvalues, eigenvectors = jacobi_eigh(centred.T @ centred)
        # V may be below 2; the missing eigenvalues of B are zero
        top = min(2, eigenvalues.size)
        top_values = np.zeros(2)
        top_values[:top] = eigenvalues[:top]
        coordinates = np.zeros((m, 2))
        coordinates[:, :top] = centred @ eigenvectors[:, :top]
        coordinates[:, top_values <= 0.0] = 0.0
    else:
        centering = np.eye(m) - np.full((m, m), 1.0 / m)
        b = -0.5 * centering @ (d * d) @ centering
        eigenvalues, eigenvectors = jacobi_eigh(b)
        top_values = eigenvalues[:2]
        coordinates = eigenvectors[:, :2] * np.sqrt(np.clip(top_values, 0.0, None))
    if np.all(top_values <= 0.0):
        warnings.warn("both leading eigenvalues non-positive; embedding collapsed to zero",
                      DegenerateEmbeddingWarning, stacklevel=2)
    coordinates = _fix_column_signs(coordinates)
    labels = tuple(row_labels) if row_labels is not None else tuple(str(i) for i in range(m))
    cats = tuple(categories) if categories is not None else None
    return Embedding2D(coordinates=coordinates, row_labels=labels, categories=cats,
                       stress=stress(d, coordinates))


def smacof_refine(distances: np.ndarray, initial: Embedding2D,
                  max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
                  return_history: bool = False):
    """Stress majorization from an initial configuration via the Guttman transform.

    Off-diagonal ``b_ij = -delta_ij / dhat_ij`` (0 for coincident points),
    ``b_ii = -sum_{j != i} b_ij``, update ``X <- (1/m) B(X) X``. Stops when the
    relative stress decrease falls below ``tol`` or after ``max_iter``
    iterations; the returned configuration is re-centered. With
    ``return_history`` the per-iteration stress sequence (starting at the
    initial configuration's stress) is returned alongside.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be a positive integer")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    d = _check_distance_matrix(distances)
    m = d.shape[0]
    x = np.array(initial.coordinates, dtype=np.float64, copy=True)
    if x.ndim != 2 or x.shape[0] != m or x.shape[1] != 2:
        raise DimensionMismatchError(
            f"initial configuration {x.shape} inconsistent with {m} x {m} distances")

    # the embedded distances of each configuration serve both its stress and
    # the Guttman step that follows it
    embedded = _embedded_distances(x)
    previous = _raw_stress(d, embedded)
    history = [previous]
    current = previous
    for _ in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore"):
            b = np.where(embedded > 0.0, -d / embedded, 0.0)
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        x = (b @ x) / m
        embedded = _embedded_distances(x)
        current = _raw_stress(d, embedded)
        history.append(current)
        if (previous - current) / max(previous, 1e-12) < tol:
            break
        previous = current

    x = x - x.mean(axis=0)
    refined = replace(initial, coordinates=x, stress=current)
    if return_history:
        return refined, history
    return refined
