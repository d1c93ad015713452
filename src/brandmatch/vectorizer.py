"""Bag-of-words document-term matrix with optional diminishing-importance weighting.

Rows are profiles (user-list order), columns are vocabulary tokens. Counts are
the default representation; TF-IDF reweighting multiplies each count by
``idf(j) = ln((1 + m) / (1 + df(j))) + 1`` and rescales every nonzero row to
unit Euclidean norm, so tokens shared by most profiles lose influence while
rare-token-only profiles are never zeroed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .content_synthesis import ContentDocument
from .errors import EmptyCorpusError

# numpy is imported inside the functions that compute, so validate and synth never load it
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DocTermMatrix:
    """Rows are profiles, columns the vocabulary's tokens; an integer dtype means counts."""

    values: np.ndarray
    row_labels: tuple[str, ...]
    vocabulary: tuple[str, ...]


def build_vocabulary(documents: Sequence[ContentDocument]) -> tuple[str, ...]:
    """Distinct tokens across all documents, in ascending lexicographic (column) order."""
    tokens = sorted({t for doc in documents for t in doc.tokens})
    if not tokens:
        raise EmptyCorpusError("no tokens in any document; nothing to match on")
    return tuple(tokens)


def count_vectorize(documents: Sequence[ContentDocument],
                    vocabulary: Sequence[str]) -> DocTermMatrix:
    """Entry (i, j) counts occurrences of token j in document i; unknown tokens are ignored."""
    import numpy as np
    if len(vocabulary) == 0:
        raise EmptyCorpusError("vocabulary is empty")
    index = {token: j for j, token in enumerate(vocabulary)}
    values = np.zeros((len(documents), len(vocabulary)), dtype=np.int64)
    for i, doc in enumerate(documents):
        columns = [j for j in map(index.get, doc.tokens) if j is not None]
        values[i] = np.bincount(np.array(columns, dtype=np.intp), minlength=len(vocabulary))
    return DocTermMatrix(values=values, row_labels=tuple(d.username for d in documents),
                         vocabulary=tuple(vocabulary))


def tfidf_transform(matrix: DocTermMatrix) -> DocTermMatrix:
    """Reweight a count matrix by smoothed idf, then L2-normalize nonzero rows.

    All-zero rows stay all-zero. idf is non-increasing in document frequency,
    so widely shared tokens are down-weighted.
    """
    import numpy as np
    if matrix.values.dtype.kind not in "iu":
        raise ValueError("tfidf_transform expects a counts-weighted matrix")
    counts = matrix.values.astype(np.float64)
    m = counts.shape[0]
    df = (counts > 0).sum(axis=0)
    idf = np.log((1.0 + m) / (1.0 + df)) + 1.0
    weighted = counts * idf
    norms = np.sqrt((weighted * weighted).sum(axis=1))
    nonzero = norms > 0
    weighted[nonzero] /= norms[nonzero, np.newaxis]
    return DocTermMatrix(values=weighted, row_labels=matrix.row_labels,
                         vocabulary=matrix.vocabulary)


def export_matrix_tsv(matrix: DocTermMatrix) -> str:
    """Debug dump: header row of tokens, one row per profile led by its username."""
    lines = ["username\t" + "\t".join(matrix.vocabulary)]
    integral = matrix.values.dtype.kind in "iu"
    for label, row in zip(matrix.row_labels, matrix.values):
        cells = (str(int(v)) if integral else repr(float(v)) for v in row)
        lines.append(label + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"
