"""Rank influencer rows by Euclidean proximity to the target brand row.

Exact brute-force search: at tens of profiles, determinism and a trivially
auditable tie-break (ascending row index) beat any spatial index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DimensionMismatchError, EmptyCorpusError, UnknownTargetError
from .vectorizer import DocTermMatrix

# numpy is imported inside the functions that compute, so validate and synth never load it
if TYPE_CHECKING:
    import numpy as np
DEFAULT_K = 5


@dataclass(frozen=True)
class MatchResult:
    target_username: str
    neighbors: tuple[tuple[str, float], ...]
    k: int

    def report(self) -> str:
        """Neighbor report: ``# target`` header, then rank<TAB>username<TAB>distance lines."""
        lines = [f"# target: {self.target_username}"]
        for rank, (username, distance) in enumerate(self.neighbors, start=1):
            lines.append(f"{rank}\t{username}\t{distance:.6f}")
        return "\n".join(lines) + "\n"


def euclidean_distance(rows: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Distance from the row ``v`` to ``rows``: a float for one row, an array for a stack."""
    import numpy as np
    rows = np.asarray(rows, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or rows.shape[-1:] != v.shape:
        raise DimensionMismatchError(f"vectors of dimension {rows.shape} vs {v.shape}")
    diff = rows - v
    distances = np.sqrt((diff * diff).sum(axis=-1))
    return float(distances) if rows.ndim == 1 else distances


def pairwise_distances(matrix: DocTermMatrix | np.ndarray) -> np.ndarray:
    """Symmetric m x m Euclidean distance matrix, each unordered pair computed once."""
    import numpy as np
    rows = matrix.values if isinstance(matrix, DocTermMatrix) else matrix
    rows = np.asarray(rows, dtype=np.float64)
    m = rows.shape[0]
    out = np.zeros((m, m), dtype=np.float64)
    for i in range(m - 1):
        out[i, i + 1:] = euclidean_distance(rows[i + 1:], rows[i])
    return out + out.T


def knn_match(matrix: DocTermMatrix, target_index: int, k: int = DEFAULT_K) -> MatchResult:
    """The min(k, m-1) non-target rows closest to the target row, ascending by distance.

    Distance ties break by ascending row index, so results are reproducible
    across runs and platforms.
    """
    import numpy as np
    if k < 1:
        raise ValueError("k must be a positive integer")
    rows = matrix.values.astype(np.float64)
    m = rows.shape[0]
    if not 0 <= target_index < m:
        raise UnknownTargetError(f"target index {target_index} outside 0..{m - 1}")
    if m < 2:
        raise EmptyCorpusError("need at least two profiles to rank neighbors")
    distances = euclidean_distance(rows, rows[target_index])
    order = [i for i in np.argsort(distances, kind="stable") if i != target_index]
    picked = order[:min(k, m - 1)]
    neighbors = tuple((matrix.row_labels[i], float(distances[i])) for i in picked)
    return MatchResult(target_username=matrix.row_labels[target_index],
                       neighbors=neighbors, k=k)
