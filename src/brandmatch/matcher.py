"""Rank influencer rows by Euclidean proximity to the target brand row.

Exact brute-force search: at tens of profiles, determinism and a trivially
auditable tie-break (ascending row index) beat any spatial index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BrandMatchError, EmptyCorpusError, UnknownTargetError
from .vectorizer import DocTermMatrix

# numpy is imported inside the functions that compute, so validate and synth never load it
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


def _distances_to(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean distance from the row ``v`` to each row of ``rows``."""
    import numpy as np
    diff = rows - v
    return np.sqrt((diff * diff).sum(axis=-1))


def pairwise_distances(values: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of an m x V array, each unordered pair once."""
    import numpy as np
    rows = _float_rows(values)
    m = rows.shape[0]
    out = np.zeros((m, m), dtype=np.float64)
    for i in range(m - 1):
        out[i, i + 1:] = _distances_to(rows[i + 1:], rows[i])
    return out + out.T


def knn_match(matrix: DocTermMatrix, target_index: int, k: int = DEFAULT_K) -> MatchResult:
    """The min(k, m-1) non-target rows closest to the target row, ascending by distance.

    Distance ties break by ascending row index, so results are reproducible
    across runs and platforms.
    """
    import numpy as np
    if k < 1:
        raise ValueError("k must be a positive integer")
    rows = _float_rows(matrix.values)
    m = rows.shape[0]
    if len(matrix.row_labels) != m:
        raise BrandMatchError(f"{len(matrix.row_labels)} row labels for {m} rows")
    if not 0 <= target_index < m:
        raise UnknownTargetError(f"target index {target_index} outside 0..{m - 1}")
    if m < 2:
        raise EmptyCorpusError("need at least two profiles to rank neighbors")
    distances = _distances_to(rows, rows[target_index])
    order = [i for i in np.argsort(distances, kind="stable") if i != target_index]
    picked = order[:min(k, m - 1)]
    neighbors = tuple((matrix.row_labels[i], float(distances[i])) for i in picked)
    return MatchResult(target_username=matrix.row_labels[target_index],
                       neighbors=neighbors)
