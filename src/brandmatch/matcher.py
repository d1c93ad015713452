"""Rank influencer rows by Euclidean proximity to the target brand row.

Exact brute-force search in plain Python, on rows a ``DocTermMatrix`` checked when built:
at tens of profiles, determinism and an auditable tie-break (row index) beat any spatial index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import sqrt
from operator import mul, sub

from .errors import EmptyCorpusError, UnknownTargetError
from .vectorizer import DocTermMatrix, _row_sum

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


def knn_match(matrix: DocTermMatrix, target_index: int, k: int = DEFAULT_K) -> MatchResult:
    """The min(k, m-1) non-target rows closest to the target row, ascending by distance.

    Plain Python: each squared distance is summed in numpy's order, so the
    distances have the bits numpy's would. Distance ties break by ascending
    row index, so results are reproducible across runs and platforms.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    columns = range(len(matrix.vocabulary))
    m = len(matrix.rows)
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
