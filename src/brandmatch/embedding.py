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

Only the top two eigenpairs are computed, by a tridiagonal solver. Nothing
here uses randomness or BLAS, whose kernels round differently on different
CPUs: every product is built from numpy row sums. So identical inputs give
bit-identical embeddings. This is the package's one module of array code:
``pairwise_distances`` and each layout stage check the arrays they take (2-D, finite).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import BrandMatchError, EmptyCorpusError

# numpy is imported inside the functions that compute, so validate, synth and match never load it
if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class Embedding2D:
    coordinates: np.ndarray
    stress: float


def _check_finite(array: np.ndarray, name: str) -> None:
    import numpy as np
    if not np.isfinite(array).all():
        raise BrandMatchError(f"{name} has a NaN or infinite entry")


def _float_rows(values: np.ndarray) -> np.ndarray:
    import numpy as np
    rows = np.asarray(values, dtype=np.float64)
    if rows.ndim != 2:
        raise BrandMatchError(f"expected a 2-D matrix of rows, got shape {rows.shape}")
    _check_finite(rows, "row matrix")
    return rows


def pairwise_distances(values: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of an m x V array, each unordered pair once."""
    import numpy as np
    rows = _float_rows(values)
    m = rows.shape[0]
    out = np.zeros((m, m), dtype=np.float64)
    for i in range(m - 1):
        diff = rows[i + 1:] - rows[i]
        out[i, i + 1:] = np.sqrt((diff * diff).sum(axis=-1))
    return out + out.T


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
    # squares is the sum over i < j
    residual = embedded - distances
    return 0.5 * float(np.square(residual, out=residual).sum())


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product of a and b from numpy row sums, one output column at a time."""
    import numpy as np
    return np.stack([(a * column).sum(axis=1) for column in b.T], axis=1)


def _solve_shifted(diagonal: list, off: list, shift: float, rhs: list, floor: float) -> list:
    """Solve (T - shift * I) y = rhs for the tridiagonal T by elimination with row swaps,
    taking a pivot below ``floor`` in size as ``floor`` (inverse iteration's singular case)."""
    n = len(diagonal)
    d, e, b = [x - shift for x in diagonal] + [0.0], off + [0.0, 0.0], rhs + [0.0]
    rows, row = [], (d[0], e[0], 0.0)  # a row's entries in columns i, i+1 and i+2
    for i in range(n):
        below = (e[i], d[i + 1], e[i + 1])
        if abs(below[0]) > abs(row[0]):
            row, below, b[i], b[i + 1] = below, row, b[i + 1], b[i]
        pivot = row[0] if abs(row[0]) >= floor else (floor if row[0] >= 0.0 else -floor)
        rows.append((pivot, row[1], row[2]))
        factor = below[0] / pivot
        b[i + 1] -= factor * b[i]
        row = (below[1] - factor * row[1], below[2] - factor * row[2], 0.0)
    y = [0.0] * (n + 2)
    for i in range(n - 1, -1, -1):
        y[i] = (b[i] - rows[i][1] * y[i + 1] - rows[i][2] * y[i + 2]) / rows[i][0]
    return y[:n]


def _top_eigenpairs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The min(2, n) largest eigenpairs of a symmetric n x n matrix, largest first.

    Householder reflections reduce it to a tridiagonal T, Sturm-sequence bisection
    finds each eigenvalue to eps * ||T||_inf, and two solves of inverse iteration
    find its vector, kept orthogonal to the first so a tied eigenvalue yields two;
    the reflections carry it back (Golub & Van Loan, *Matrix Computations*, ch. 8).
    """
    import math
    import numpy as np
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    off, reflectors = [], []
    for k in range(n - 2):
        # I - beta v v^T maps the column below the diagonal to (off[k], 0, ..., 0)
        column = a[k + 1:, k]
        norm = math.sqrt(float((column * column).sum()))
        off.append(-math.copysign(norm, column[0]))
        if norm > 0.0:
            v = column.copy()
            v[0] -= off[k]
            beta = 1.0 / (norm * (norm + abs(column[0])))
            rest = a[k + 1:, k + 1:]
            p = beta * (rest * v).sum(axis=1)
            w = p - 0.5 * beta * float((p * v).sum()) * v
            rest -= v[:, np.newaxis] * w + w[:, np.newaxis] * v
            reflectors.append((k + 1, v[:, np.newaxis], beta))
    off += [float(a[n - 1, n - 2])] if n > 1 else []
    diagonal, squares = np.diagonal(a).tolist(), [0.0] + [e * e for e in off]
    radius = max(abs(d) + abs(e1) + abs(e2)
                 for d, e1, e2 in zip(diagonal, [0.0, *off], [*off, 0.0]))
    # the resolution of pivots and eigenvalues; 1 for the zero matrix, where any vector will do
    floor = float(np.finfo(np.float64).eps) * radius or 1.0
    values, vectors = [], []
    for j in range(min(2, n)):
        # the (j+1)-th largest is the least shift with n - j eigenvalues below it,
        # which are the negative pivots of T - shift * I (Sturm sequence)
        low, high, value = -2.0 * radius, 2.0 * radius, 0.0
        while high - low > floor and low < value < high:
            count, pivot = 0, 1.0
            for d, e2 in zip(diagonal, squares):
                pivot = d - value - e2 / pivot
                pivot = pivot if abs(pivot) > floor else -floor
                count += pivot < 0.0
            low, high = (low, value) if count >= n - j else (value, high)
            value = 0.5 * (low + high)
        values.append(value)
        # a distinct, lopsided start per pair: with a shared one, projecting out
        # the first vector of a tied eigenvalue can leave nothing of the second
        x = 1.0 / np.arange(j + 1.0, n + j + 1.0)
        for _ in range(2):
            x = np.array(_solve_shifted(diagonal, off, value, x.tolist(), floor))
            for earlier in vectors:
                x -= float((x * earlier).sum()) * earlier
            x /= math.sqrt(float((x * x).sum()))
        vectors.append(x)
    result = np.stack(vectors, axis=1)
    for start, v, beta in reversed(reflectors):
        result[start:] -= beta * v * (v * result[start:]).sum(axis=0)
    return np.array(values), result


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
        eigenvalues, eigenvectors = _top_eigenpairs(_product(merged.T, merged))
        # V' may be below 2; the missing eigenvalues of B are zero
        top_values = np.zeros(2)
        top_values[:eigenvalues.size] = eigenvalues
        coordinates = np.zeros((m, 2))
        coordinates[:, :eigenvalues.size] = _product(merged, eigenvectors)
        coordinates[:, top_values <= 0.0] = 0.0
    else:
        top_values, eigenvectors = _top_eigenpairs(_product(merged, merged.T))
        coordinates = eigenvectors * np.sqrt(np.clip(top_values, 0.0, None))
    if np.all(top_values <= 0.0):
        warnings.warn("both leading eigenvalues non-positive; embedding collapsed to zero",
                      RuntimeWarning, stacklevel=2)
    return _fix_column_signs(coordinates)


def smacof_refine(distances: np.ndarray, initial: np.ndarray, return_history: bool = False):
    """Stress majorization from an initial m x 2 configuration via the Guttman transform.

    With ``R = delta / dhat`` (0 for coincident points) the update is
    ``X <- (1/m) * (rowsum(R) * X - R * X)``, which is ``(1/m) B(X) X`` without
    building B. The budget is fixed: it stops when the relative stress decrease
    falls below ``DEFAULT_TOL``; after ``DEFAULT_MAX_ITER`` iterations without
    that, a RuntimeWarning reports the last decrease. The returned configuration
    is re-centered. ``return_history``, which perfbench's tracer passes to count
    iterations, returns the per-iteration stress sequence (starting at the
    initial configuration's stress) alongside.
    """
    import numpy as np
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
    for _ in range(DEFAULT_MAX_ITER):
        # R overwrites the embedded distances; where dhat = 0 it keeps that 0
        ratio = np.divide(d, embedded, out=embedded, where=embedded > 0.0)
        x = (ratio.sum(axis=1)[:, np.newaxis] * x - _product(ratio, x)) / m
        embedded = _embedded_distances(x, out=ratio)
        current = _raw_stress(d, embedded)
        history.append(current)
        decrease = (previous - current) / max(previous, 1e-12)
        if decrease < DEFAULT_TOL:
            break
        previous = current
    else:
        warnings.warn(f"SMACOF stopped after {DEFAULT_MAX_ITER} iterations without "
                      f"converging: relative stress decrease {decrease:.3e}, "
                      f"tol {DEFAULT_TOL:.3e}",
                      RuntimeWarning, stacklevel=2)

    refined = Embedding2D(coordinates=x - x.mean(axis=0), stress=current)
    if return_history:
        return refined, history
    return refined
