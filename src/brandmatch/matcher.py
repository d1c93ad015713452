"""Rank influencer rows by Euclidean proximity to the target brand row.

Exact brute-force search: at tens of profiles, determinism and a trivially
auditable tie-break (ascending row index) beat any spatial index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from math import isfinite, sqrt
from operator import mul, sub
from typing import TYPE_CHECKING

from .errors import BrandMatchError, EmptyCorpusError, UnknownTargetError
from .vectorizer import DocTermMatrix, _row_sum

# numpy is imported only by pairwise_distances, so validate, synth and match never load it
if TYPE_CHECKING:
    import numpy as np
DEFAULT_K = 5


@dataclass(frozen=True)
class MatchResult:
    target_username: str
    neighbors: tuple[tuple[str, float], ...]

    def report(self) -> str:
        """Neighbor report: ``# target`` header, then rank<TAB>username<TAB>distance lines."""
        lines = [f"# target: {self.target_username}"]
        for rank, (username, distance) in enumerate(self.neighbors, start=1):
            lines.append(f"{rank}\t{username}\t{distance:.6f}")
        return "\n".join(lines) + "\n"


def _float_rows(values: np.ndarray) -> np.ndarray:
    import numpy as np
    rows = np.asarray(values, dtype=np.float64)
    if rows.ndim != 2:
        raise BrandMatchError(f"expected a 2-D matrix of rows, got shape {rows.shape}")
    _check_finite(rows, "row matrix")
    return rows


def _check_finite(array: np.ndarray, name: str) -> None:
    import numpy as np
    if not np.isfinite(array).all():
        raise BrandMatchError(f"{name} has a NaN or infinite entry")


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


def knn_match(matrix: DocTermMatrix, target_index: int, k: int = DEFAULT_K) -> MatchResult:
    """The min(k, m-1) non-target rows closest to the target row, ascending by distance.

    Plain Python: each squared distance is summed in numpy's order, so the
    distances have the bits numpy's would. Distance ties break by ascending
    row index, so results are reproducible across runs and platforms.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    try:
        finite = all(map(isfinite, chain.from_iterable(matrix.rows)))
    except (TypeError, OverflowError):
        raise BrandMatchError("expected rows of numbers") from None
    columns = range(len(matrix.vocabulary))
    for i, row in enumerate(matrix.rows):
        if len(row) != len(columns):
            raise BrandMatchError(f"row {i} has {len(row)} entries for {len(columns)} tokens")
    if not finite:
        raise BrandMatchError("row matrix has a NaN or infinite entry")
    m = len(matrix.rows)
    if len(matrix.row_labels) != m:
        raise BrandMatchError(f"{len(matrix.row_labels)} row labels for {m} rows")
    if not 0 <= target_index < m:
        raise UnknownTargetError(f"target index {target_index} outside 0..{m - 1}")
    if m < 2:
        raise EmptyCorpusError("need at least two profiles to rank neighbors")
    target = list(map(float, matrix.rows[target_index]))
    target_columns = set(compress(columns, target))
    distances = []
    for row in matrix.rows:
        # a column where both rows are zero adds nothing; an int turns float, as in numpy
        differing = sorted(target_columns.union(compress(columns, row)))
        diffs = list(map(sub, map(row.__getitem__, differing), map(target.__getitem__, differing)))
        distances.append(sqrt(_row_sum(differing, list(map(mul, diffs, diffs)), len(columns))))
    order = [i for i in sorted(range(m), key=distances.__getitem__) if i != target_index]
    neighbors = tuple((matrix.row_labels[i], distances[i]) for i in order[:k])
    return MatchResult(target_username=matrix.row_labels[target_index],
                       neighbors=neighbors)
