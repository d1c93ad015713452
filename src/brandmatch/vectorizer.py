"""Bag-of-words document-term matrix with optional diminishing-importance weighting.

Rows are profiles (user-list order), columns are vocabulary tokens. Counts are
the default representation; TF-IDF reweighting multiplies each count by
``idf(j) = ln((1 + m) / (1 + df(j))) + 1`` and rescales every nonzero row to
unit Euclidean norm, so tokens shared by most profiles lose influence while
rare-token-only profiles are never zeroed out.

The matrix is built in plain Python, so ``match`` never loads numpy. idf comes
from the C library's ``log``, and every row sum takes numpy's own order
(``_row_sum``), so a row's norm has the bits a numpy float64 sum gives.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, filterfalse, repeat
from math import isfinite, log, sqrt
from operator import add, is_not, mul
from typing import TYPE_CHECKING, Sequence

from .content_synthesis import ContentDocument
from .errors import BrandMatchError, EmptyCorpusError

# numpy is imported only to build ``values``, so validate, synth and match never load it
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DocTermMatrix:
    """Rows are profiles, columns the vocabulary's tokens.

    ``rows`` holds one tuple per profile, one entry per token: Python ints for
    counts, floats once weighted. Building a matrix checks it: numbers, one per
    token, finite, one label per row, else BrandMatchError. ``values`` is the same
    matrix as an m x V numpy array (int64 for counts, else float64), built on first use and kept.
    """

    rows: tuple[tuple, ...]
    row_labels: tuple[str, ...]
    vocabulary: tuple[str, ...]

    def __post_init__(self) -> None:
        try:
            finite = all(map(isfinite, chain.from_iterable(self.rows)))
        except (TypeError, OverflowError):
            raise BrandMatchError("expected rows of numbers") from None
        m, width = len(self.rows), len(self.vocabulary)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise BrandMatchError(f"row {i} has {len(row)} entries for {width} tokens")
        if not finite:
            raise BrandMatchError("row matrix has a NaN or infinite entry")
        if len(self.row_labels) != m:
            raise BrandMatchError(f"{len(self.row_labels)} row labels for {m} rows")

    @cached_property
    def values(self) -> np.ndarray:
        import numpy as np
        return np.array(self.rows).reshape(len(self.rows), len(self.vocabulary))


def _row_sum(columns: list[int], values: list[float], width: int, start: int = 0) -> float:
    """numpy's float64 ``sum`` of a row ``width`` long holding ``values`` at ``columns``.

    numpy adds a row pairwise (``pairwise_sum``, ``loops_utils.h.src``): below 8 entries
    left to right from 0.0; up to 128 in eight running sums over blocks of 8, then the
    leftovers in order; longer rows as two halves split at a multiple of 8. Adding 0.0
    changes no sum of non-negative floats, so ``columns`` need only hold the nonzero
    entries, ascending, and each is added to the running sum numpy adds it to.
    """
    if width > 128:
        half = width // 2 - width // 2 % 8
        cut = bisect_left(columns, start + half)
        return (_row_sum(columns[:cut], values[:cut], half, start)
                + _row_sum(columns[cut:], values[cut:], width - half, start + half))
    cut = bisect_left(columns, start + width - width % 8)
    r = [0.0] * 8
    for column, value in zip(columns[:cut], values[:cut]):
        r[(column - start) % 8] += value
    blocks = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, values[cut:], blocks)


def build_vocabulary(documents: Sequence[ContentDocument]) -> tuple[str, ...]:
    """Distinct tokens across all documents, in ascending lexicographic (column) order."""
    tokens = sorted({t for doc in documents for t in doc.tokens})
    if not tokens:
        raise EmptyCorpusError("no tokens in any document; nothing to match on")
    return tuple(tokens)


def count_vectorize(documents: Sequence[ContentDocument],
                    vocabulary: Sequence[str]) -> DocTermMatrix:
    """Entry (i, j) counts occurrences of token j in document i; unknown tokens are ignored."""
    if len(vocabulary) == 0:
        raise EmptyCorpusError("vocabulary is empty")
    index = {token: j for j, token in enumerate(vocabulary)}
    rows = []
    for doc in documents:
        row = [0] * len(vocabulary)
        for token, count in Counter(doc.tokens).items():
            j = index.get(token)
            if j is not None:
                row[j] = count
        rows.append(tuple(row))
    return DocTermMatrix(rows=tuple(rows), row_labels=tuple(d.username for d in documents),
                         vocabulary=tuple(vocabulary))


def tfidf_transform(matrix: DocTermMatrix) -> DocTermMatrix:
    """Reweight a count matrix by smoothed idf, then L2-normalize nonzero rows.

    All-zero rows stay all-zero. idf is non-increasing in document frequency,
    so widely shared tokens are down-weighted.
    """
    if not set(map(type, chain.from_iterable(matrix.rows))) <= {int}:
        raise ValueError("tfidf_transform expects a counts-weighted matrix")
    m, width = len(matrix.rows), len(matrix.vocabulary)
    nonzero_rows = [list(compress(range(width), row)) for row in matrix.rows]
    df = Counter(j for row, nonzero in zip(matrix.rows, nonzero_rows)
                 for j in nonzero if row[j] > 0)
    idf = [log((1.0 + m) / (1.0 + df[j])) + 1.0 for j in range(width)]
    rows = []
    for row, nonzero in zip(matrix.rows, nonzero_rows):
        weights = [row[j] * idf[j] for j in nonzero]
        # every weight is at least 1 in size, so a row with any has a positive norm
        norm = sqrt(_row_sum(nonzero, list(map(mul, weights, weights)), width))
        weighted = [0.0] * width
        for j, weight in zip(nonzero, weights):
            weighted[j] = weight / norm
        rows.append(tuple(weighted))
    return DocTermMatrix(rows=tuple(rows), row_labels=matrix.row_labels,
                         vocabulary=matrix.vocabulary)


def export_matrix_tsv(matrix: DocTermMatrix) -> str:
    """Debug dump: header row of tokens, one row per profile led by its username."""
    lines = ["username\t" + "\t".join(matrix.vocabulary)]
    for label, row in zip(matrix.row_labels, matrix.rows):
        # each entry as str gives it; the zero object most entries share is converted once
        zero = next(filterfalse(None, row), None)
        cells = [str(zero)] * len(row)
        for j in compress(range(len(row)), map(is_not, row, repeat(zero))):
            cells[j] = str(row[j])
        lines.append(label + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"
