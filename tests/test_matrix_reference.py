"""The plain-Python matrix stage against the numpy code it replaced, bit for bit.

``count_vectorize``, ``tfidf_transform``, ``export_matrix_tsv`` and ``knn_match``
once computed in numpy. Those versions are frozen below as references, and the
library must give exactly their values, text and distances. The one deliberate
difference is idf: the library takes it from ``math.log``, because ``np.log``'s
AVX512 loop rounds some arguments differently from the loop used without AVX512,
so the reference takes idf from ``math.log`` too.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from brandmatch import (
    ContentDocument,
    DocTermMatrix,
    count_vectorize,
    export_matrix_tsv,
    knn_match,
    tfidf_transform,
)
from brandmatch.vectorizer import _row_sum

# one row below 8 entries, both sides of the 8-entry block, one and two blocks of
# 128 (where numpy starts splitting rows in half), and a real classifier's width
WIDTHS = (1, 7, 8, 9, 72, 128, 129, 1000)


def _numpy_counts(documents, vocabulary):
    index = {token: j for j, token in enumerate(vocabulary)}
    values = np.zeros((len(documents), len(vocabulary)), dtype=np.int64)
    for i, doc in enumerate(documents):
        columns = [j for j in map(index.get, doc.tokens) if j is not None]
        values[i] = np.bincount(np.array(columns, dtype=np.intp), minlength=len(vocabulary))
    return values


def _numpy_tfidf(values):
    counts = values.astype(np.float64)
    m = counts.shape[0]
    df = (counts > 0).sum(axis=0)
    idf = np.array([math.log(x) for x in ((1.0 + m) / (1.0 + df)).tolist()]) + 1.0
    weighted = counts * idf
    norms = np.sqrt((weighted * weighted).sum(axis=1))
    nonzero = norms > 0
    weighted[nonzero] /= norms[nonzero, np.newaxis]
    return weighted


def _numpy_export(labels, vocabulary, values):
    lines = ["username\t" + "\t".join(vocabulary)]
    integral = values.dtype.kind in "iu"
    for label, row in zip(labels, values):
        cells = (str(int(v)) if integral else repr(float(v)) for v in row)
        lines.append(label + "\t" + "\t".join(cells))
    return "\n".join(lines) + "\n"


def _numpy_neighbors(labels, values, target, k):
    rows = np.asarray(values, dtype=np.float64)
    diff = rows - rows[target]
    distances = np.sqrt((diff * diff).sum(axis=-1))
    order = [i for i in np.argsort(distances, kind="stable") if i != target]
    return tuple((labels[i], float(distances[i])) for i in order[:k])


@st.composite
def _count_matrices(draw, highest_count):
    """An m x V count matrix, with some all-zero rows and some duplicate rows (tied distances)."""
    width = draw(st.sampled_from(WIDTHS))
    m = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from((0.02, 0.3, 1.0)))
    high = draw(st.sampled_from((1, 50, highest_count)))
    values = rng.integers(1, high, size=(m, width), endpoint=True)
    values *= rng.random((m, width)) < density
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        values[i] = 0
    for i, j in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                              max_size=3)):
        values[i] = values[j]
    return values


def _names(prefix, n):
    return tuple(f"{prefix}{i:04d}" for i in range(n))


@settings(max_examples=60, deadline=None)
@given(values=_count_matrices(highest_count=3), seed=st.integers(0, 2 ** 32 - 1))
def test_counts_equal_numpy(values, seed):
    m, width = values.shape
    vocabulary = _names("t", width)
    rng = np.random.default_rng(seed)
    documents = []
    for i in range(m):
        tokens = [vocabulary[j] for j in range(width) for _ in range(values[i, j])]
        tokens += ["unknown"] * int(rng.integers(0, 3))
        documents.append(ContentDocument(username=f"u{i}",
                                         tokens=tuple(rng.permutation(tokens).tolist())))
    matrix = count_vectorize(documents, vocabulary)
    assert matrix.values.dtype == np.int64
    assert np.array_equal(matrix.values, _numpy_counts(documents, vocabulary))
    assert np.array_equal(matrix.values, values)
    assert all(type(v) is int for row in matrix.rows for v in row)


@settings(max_examples=150, deadline=None)
@given(values=_count_matrices(highest_count=10 ** 6), data=st.data())
def test_tfidf_export_and_knn_equal_numpy(values, data):
    m, width = values.shape
    labels, vocabulary = _names("u", m), _names("t", width)
    counts = DocTermMatrix(rows=tuple(map(tuple, values.tolist())), row_labels=labels,
                           vocabulary=vocabulary)
    weighted = tfidf_transform(counts)
    expected = _numpy_tfidf(values)
    assert weighted.values.dtype == np.float64
    assert np.array_equal(weighted.values, expected)
    target = data.draw(st.integers(0, m - 1), label="target")
    k = data.draw(st.integers(1, m), label="k")
    for matrix, reference in ((counts, values), (weighted, expected)):
        assert export_matrix_tsv(matrix) == _numpy_export(labels, vocabulary, reference)
        assert knn_match(matrix, target, k).neighbors == \
            _numpy_neighbors(labels, reference, target, k)


def test_row_sum_is_numpys_row_sum():
    # squares summed along a row; a left-to-right sum, or numpy's order over all but
    # the first entry added to that entry, misses numpy's bits on many of these rows
    rng = np.random.default_rng(7)
    for width in (*range(1, 300), 513, 1000, 1031):
        for scale in (1e-3, 1.0, 1e8):
            x = rng.random((4, width)) * scale
            x[rng.random((4, width)) < 0.3] = 0.0
            sums = (x * x).sum(axis=1)
            for row, expected in zip(x.tolist(), sums.tolist()):
                squares = list(map(mul, row, row))
                nonzero = [j for j, square in enumerate(squares) if square]
                assert _row_sum(nonzero, [squares[j] for j in nonzero], width) == expected, width
                assert _row_sum(list(range(width)), squares, width) == expected, width
