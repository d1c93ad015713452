"""2-D embedding of the profile space: classical MDS refined by SMACOF.

Classical (Torgerson) scaling reads coordinates off the top two eigenpairs of
``B = Xc * Xc^T``, the inner products of the column-centred m x V rows Xc
(for Euclidean distances between the rows, Torgerson's double-centred
squared distances ``-1/2 * J * D^2 * J``).
SMACOF then iterates the Guttman transform ``X <- (1/m) * B(X) * X``, which
never increases the raw stress ``sigma = sum_{i<j} (dhat_ij - delta_ij)^2``.
With ``R = delta / dhat`` (0 where ``dhat = 0``), ``B(X) = diag(rowsum(R)) -
R``, so the update is computed as ``(1/m) * (rowsum(R) * X - R * X)`` and B(X)
is never built.

Equal columns of Xc add nothing to the rank: k copies of a column c
contribute ``k * c * c^T`` to B, as one column ``sqrt(k) * c`` does. So
``classical_mds`` merges equal centred columns that way into an m x V' matrix
M with ``M * M^T = B``, and solves the smaller Gram matrix of M. When V' < m
that is the V' x V' ``M^T * M``, which shares its nonzero eigenvalues with B
(the MDS/PCA duality, Gower 1966): for an eigenpair ``(lambda, w)`` of it,
``M * w`` is the B eigenvector scaled by ``sqrt(lambda)``, i.e. a finished
coordinate column. Otherwise it is the m x m ``M * M^T`` itself.

Everything here is deterministic: a Jacobi eigensolver with a fixed
round-robin rotation order, a fixed column sign convention, and no
randomness, so identical inputs give bit-identical embeddings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import BrandMatchError, EmptyCorpusError
from .matcher import _check_finite, _float_rows

# numpy is imported inside the functions that compute, so validate and synth never load it
if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-6
_JACOBI_SWEEP_CAP = 100
_JACOBI_REL_THRESHOLD = 1e-12


@dataclass(frozen=True)
class Embedding2D:
    coordinates: np.ndarray
    stress: float


def _check_distance_matrix(distances: np.ndarray) -> np.ndarray:
    import numpy as np
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise BrandMatchError(f"distance matrix must be square, got {d.shape}")
    _check_finite(d, "distance matrix")
    if (d < 0.0).any():
        raise BrandMatchError("distance matrix has a negative entry")
    if not np.array_equal(d, d.T):
        raise BrandMatchError("distance matrix is not symmetric")
    if np.any(np.diag(d) != 0.0):
        raise BrandMatchError("distance matrix has a nonzero diagonal")
    return d


def _embedded_distances(coordinates: np.ndarray,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    import numpy as np
    x, y = coordinates.T
    dx = np.subtract(x[:, np.newaxis], x, out=out)
    return np.hypot(dx, y[:, np.newaxis] - y, out=dx)


def stress(distances: np.ndarray, coordinates: np.ndarray) -> float:
    """Raw stress of m x 2 coordinates: sum over i<j of squared (embedded - input) distances."""
    import numpy as np
    d = _check_distance_matrix(distances)
    x = np.asarray(coordinates, dtype=np.float64)
    if x.shape != (d.shape[0], 2):
        raise BrandMatchError(f"coordinates {x.shape} inconsistent with distances {d.shape}")
    _check_finite(x, "coordinate array")
    return _raw_stress(d, _embedded_distances(x))


def _raw_stress(distances: np.ndarray, embedded: np.ndarray) -> float:
    import numpy as np
    # the residual is symmetric with a zero diagonal, so half its full sum of
    # squares is the sum over i < j; summed by numpy, not by a BLAS dot, whose
    # worker threads can take milliseconds to wake at this size
    residual = embedded - distances
    return 0.5 * float(np.square(residual, out=residual).sum())


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rounds of disjoint index pairs (p, q), p < q, covering every pair once.

    Circle-method tournament: index 0 stays put while the others rotate one
    place per round. Odd n is padded with a dummy index whose pairs drop out.
    """
    import numpy as np
    size = n + n % 2
    seat = np.arange(size)
    shift = np.arange(size - 1)[:, np.newaxis]
    ring = np.where(seat == 0, 0, 1 + (seat - 1 - shift) % (size - 1))
    left, right = ring[:, :size // 2], ring[:, ::-1][:, :size // 2]
    p, q = np.minimum(left, right), np.maximum(left, right)
    return [(p_round[q_round < n], q_round[q_round < n]) for p_round, q_round in zip(p, q)]


def _rotate(array: np.ndarray, index_p, index_q, c: np.ndarray, s: np.ndarray) -> None:
    """Rotate each slice pair: p <- c*p - s*q and q <- s*p + c*q."""
    # fancy-index reads copy, so every pair sees pre-round values and the
    # arithmetic can run in place on the copies
    old_p, old_q = array[index_p], array[index_q]
    new_p = c * old_p
    new_p -= s * old_q
    old_p *= s
    old_q *= c
    old_p += old_q
    array[index_p] = new_p
    array[index_q] = old_p


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
    import numpy as np
    a = np.array(matrix, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise BrandMatchError(f"matrix must be square, got {a.shape}")
    # A on top of V: both take the same column rotation, so one gather,
    # rotate and scatter per round serves both; the row rotation is A's alone
    stacked = np.concatenate([a, np.eye(n)])
    a, v = stacked[:n], stacked[n:]
    diagonal = np.diagonal(a)
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
                if not apq.all():
                    live = apq != 0.0
                    p, q, apq = p[live], q[live], apq[live]
                    if p.size == 0:
                        continue
                tau = (diagonal[q] - diagonal[p]) / (2.0 * apq)
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                _rotate(stacked, np.s_[:, p], np.s_[:, q], c, s)
                _rotate(a, p, q, c[:, np.newaxis], s[:, np.newaxis])
                a[p, q] = a[q, p] = 0.0
        else:
            off_norm = np.sqrt(2.0 * float((a[upper] ** 2).sum()))
            if off_norm >= threshold:
                warnings.warn(f"Jacobi stopped after {_JACOBI_SWEEP_CAP} sweeps without "
                              f"converging: off-diagonal norm {off_norm:.3e}, "
                              f"threshold {threshold:.3e}", RuntimeWarning, stacklevel=2)
    eigenvalues = diagonal.copy()
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def _fix_column_signs(coordinates: np.ndarray) -> np.ndarray:
    import numpy as np
    # flip each column so its largest-magnitude entry is positive;
    # argmax picks the earliest row on ties
    for j in range(coordinates.shape[1]):
        column = coordinates[:, j]
        lead = int(np.argmax(np.abs(column)))
        if column[lead] < 0.0:
            coordinates[:, j] = -column
    return coordinates


def classical_mds(*, points: np.ndarray) -> np.ndarray:
    """Torgerson scaling of the Euclidean distances between m rows, to m x 2 coordinates.

    ``points`` are the m x V rows. Identical centred columns are merged into V'
    distinct ones, and the eigenproblem is solved on the smaller Gram matrix of
    the merged columns: V' x V' when V' < m, else m x m (see the module
    docstring). If both leading eigenvalues are non-positive (all rows equal)
    the embedding is all-zero and a RuntimeWarning is issued.
    """
    import numpy as np
    x = _float_rows(points)
    m = x.shape[0]
    if m < 2:
        raise EmptyCorpusError("need at least two points to embed")
    # merged after centring: the mean of a pre-scaled column rounds
    # differently, which can lift a zero eigenvalue of B off zero
    columns, counts = np.unique(x - x.mean(axis=0), axis=1, return_counts=True)
    merged = columns * np.sqrt(counts)
    if merged.shape[1] < m:
        eigenvalues, eigenvectors = jacobi_eigh(merged.T @ merged)
        # V' may be below 2; the missing eigenvalues of B are zero
        top = min(2, eigenvalues.size)
        top_values = np.zeros(2)
        top_values[:top] = eigenvalues[:top]
        coordinates = np.zeros((m, 2))
        coordinates[:, :top] = merged @ eigenvectors[:, :top]
        coordinates[:, top_values <= 0.0] = 0.0
    else:
        eigenvalues, eigenvectors = jacobi_eigh(merged @ merged.T)
        top_values = eigenvalues[:2]
        coordinates = eigenvectors[:, :2] * np.sqrt(np.clip(top_values, 0.0, None))
    if np.all(top_values <= 0.0):
        warnings.warn("both leading eigenvalues non-positive; embedding collapsed to zero",
                      RuntimeWarning, stacklevel=2)
    return _fix_column_signs(coordinates)


def smacof_refine(distances: np.ndarray, initial: np.ndarray,
                  max_iter: int = DEFAULT_MAX_ITER, tol: float = DEFAULT_TOL,
                  return_history: bool = False):
    """Stress majorization from an initial m x 2 configuration via the Guttman transform.

    With ``R = delta / dhat`` (0 for coincident points) the update is
    ``X <- (1/m) * (rowsum(R) * X - R * X)``, which is ``(1/m) B(X) X`` without
    building B. Stops when the relative stress decrease falls below ``tol``;
    after ``max_iter`` iterations without that, a RuntimeWarning reports the
    last decrease. The returned configuration is re-centered. With
    ``return_history`` the per-iteration stress sequence (starting at the
    initial configuration's stress) is returned alongside.
    """
    import numpy as np
    if max_iter < 1:
        raise ValueError("max_iter must be a positive integer")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    d = _check_distance_matrix(distances)
    m = d.shape[0]
    x = np.array(initial, dtype=np.float64, copy=True)
    if x.ndim != 2 or x.shape[0] != m or x.shape[1] != 2:
        raise BrandMatchError(
            f"initial configuration {x.shape} inconsistent with {m} x {m} distances")
    _check_finite(x, "initial configuration")

    # the embedded distances of each configuration serve both its stress and
    # the Guttman step that follows it
    embedded = _embedded_distances(x)
    previous = _raw_stress(d, embedded)
    history = [previous]
    current = previous
    for _ in range(max_iter):
        # R overwrites the embedded distances; where dhat = 0 it keeps that 0
        ratio = np.divide(d, embedded, out=embedded, where=embedded > 0.0)
        x = (ratio.sum(axis=1)[:, np.newaxis] * x - ratio @ x) / m
        embedded = _embedded_distances(x, out=ratio)
        current = _raw_stress(d, embedded)
        history.append(current)
        decrease = (previous - current) / max(previous, 1e-12)
        if decrease < tol:
            break
        previous = current
    else:
        warnings.warn(f"SMACOF stopped after {max_iter} iterations without converging: "
                      f"relative stress decrease {decrease:.3e}, tol {tol:.3e}",
                      RuntimeWarning, stacklevel=2)

    refined = Embedding2D(coordinates=x - x.mean(axis=0), stress=current)
    if return_history:
        return refined, history
    return refined
