from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from brandmatch import (
    BrandMatchError,
    ContentDocument,
    DocTermMatrix,
    EmptyCorpusError,
    FixtureSpec,
    build_vocabulary,
    count_vectorize,
    export_matrix_tsv,
    generate_profile_set,
    synthesize_document,
    tfidf_transform,
)

# Frozen with an independent 50-digit evaluation of ln((1+m)/(1+df)) + 1 and
# the row norm: counts [[1,1],[1,0]] give idf [1, ln(3/2)+1].
IDF_SECOND_COLUMN = 1.4054651081081644
ROW0_NORMALIZED = (0.5797386715376657, 0.8148024746671689)


def _docs(*token_lists):
    return [ContentDocument(username=f"u{i}", tokens=tuple(tokens))
            for i, tokens in enumerate(token_lists)]


def test_vocabulary_sorted_distinct():
    assert build_vocabulary(_docs(["dog", "cat"], ["dog", "pug"])) == ("cat", "dog", "pug")


def test_vocabulary_single_doc_dedupes():
    assert build_vocabulary(_docs(["zz", "aa", "zz"])) == ("aa", "zz")


def test_vocabulary_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        build_vocabulary(_docs([], []))
    with pytest.raises(EmptyCorpusError, match="^vocabulary is empty$"):
        count_vectorize(_docs(["dog"]), ())


def test_count_vectorize_hand_example():
    docs = _docs(["dog", "dog", "cat"])
    vocab = build_vocabulary(docs)
    matrix = count_vectorize(docs, vocab)
    assert matrix.values.tolist() == [[1, 2]]
    assert matrix.values.dtype == np.int64
    assert matrix.vocabulary == ("cat", "dog")


def test_out_of_vocabulary_tokens_ignored():
    docs = _docs(["dog", "wolf"])
    vocab = build_vocabulary(_docs(["dog"]))
    matrix = count_vectorize(docs, vocab)
    assert matrix.values.tolist() == [[1]]


def test_row_sums_match_independent_recount():
    profiles = generate_profile_set(FixtureSpec(users_per_category=5)).profiles
    docs = [synthesize_document(p) for p in profiles]
    vocab = build_vocabulary(docs)
    matrix = count_vectorize(docs, vocab)
    for row, doc in zip(matrix.values, docs):
        counted = Counter(t for t in doc.tokens if t in vocab)
        assert row.sum() == sum(counted.values())
        for token, count in counted.items():
            assert row[vocab.index(token)] == count


def test_total_count_bookkeeping():
    docs = _docs(["aa", "bb", "aa"], ["bb"], [])
    matrix = count_vectorize(docs, build_vocabulary(docs))
    assert matrix.values.sum() == 4


def test_tfidf_idf_of_ubiquitous_token_is_one():
    # token in both of 2 docs: idf = ln(3/3) + 1 = 1, recovered by undoing
    # the row normalization of the 2x2 case
    docs = _docs(["aa", "bb"], ["aa"])
    weighted = tfidf_transform(count_vectorize(docs, build_vocabulary(docs)))
    norm = np.hypot(1.0, IDF_SECOND_COLUMN)
    assert weighted.values[0, 0] * norm == pytest.approx(1.0, abs=1e-9)


def test_tfidf_two_by_two_frozen_values():
    docs = _docs(["aa", "bb"], ["aa"])
    counts = count_vectorize(docs, build_vocabulary(docs))
    assert counts.values.tolist() == [[1, 1], [1, 0]]
    weighted = tfidf_transform(counts)
    assert weighted.values.dtype == np.float64
    assert weighted.vocabulary == counts.vocabulary
    assert weighted.values[0] == pytest.approx(ROW0_NORMALIZED, abs=1e-9)
    assert weighted.values[1] == pytest.approx((1.0, 0.0), abs=1e-9)


def test_tfidf_zero_row_stays_zero():
    docs = _docs(["aa"], [])
    weighted = tfidf_transform(count_vectorize(docs, build_vocabulary(docs)))
    assert np.all(weighted.values[1] == 0.0)


def test_tfidf_nonzero_rows_unit_norm():
    rng = np.random.RandomState(7)
    tokens = [f"t{i}" for i in range(20)]
    docs = _docs(*[list(rng.choice(tokens, size=rng.randint(1, 30)))
                   for _ in range(12)])
    weighted = tfidf_transform(count_vectorize(docs, build_vocabulary(docs)))
    norms = np.linalg.norm(weighted.values, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_idf_non_increasing_in_document_frequency():
    # same count layout, increasing df for the probe token
    m = 6
    for df_low in range(1, m):
        for df_high in range(df_low + 1, m + 1):
            def idf(df):
                docs = _docs(*[["probe", "filler"] if i < df else ["filler"]
                               for i in range(m)])
                counts = count_vectorize(docs, build_vocabulary(docs))
                weighted = tfidf_transform(counts)
                # un-normalize via the filler column (count 1 everywhere)
                row = weighted.values[0]
                return row[1] / row[0] if row[0] else 0.0
            assert idf(df_high) <= idf(df_low) + 1e-12


def test_tfidf_requires_counts_input():
    docs = _docs(["aa"])
    counts = count_vectorize(docs, build_vocabulary(docs))
    as_floats = DocTermMatrix(rows=tuple(tuple(map(float, row)) for row in counts.rows),
                              row_labels=counts.row_labels, vocabulary=counts.vocabulary)
    assert as_floats.values.dtype == np.float64
    for matrix in (tfidf_transform(counts), as_floats):
        with pytest.raises(BrandMatchError,
                           match="^tfidf_transform expects a counts-weighted matrix$"):
            tfidf_transform(matrix)


@pytest.mark.parametrize("rows, labels, message", [
    (((1, 2, 3), (0, 1)), ("u0", "u1"), "^row 0 has 3 entries for 2 tokens$"),
    (((1, 2), (0,)), ("u0", "u1"), "^row 1 has 1 entries for 2 tokens$"),
    (((1, 2), (0, 1)), ("u0",), "^1 row labels for 2 rows$"),
    (((1, 2), (0, 1)), ("u0", "u1", "u2"), "^3 row labels for 2 rows$"),
    (((1.0, math.nan), (0.0, 1.0)), ("u0", "u1"), "^row matrix has a NaN or infinite entry$"),
], ids=["long_row", "short_row", "fewer_labels", "more_labels", "nan"])
def test_a_matrix_is_checked_when_it_is_built(rows, labels, message):
    # so tfidf_transform, export_matrix_tsv, values and knn_match never see such a matrix
    with pytest.raises(BrandMatchError, match=message):
        DocTermMatrix(rows=rows, row_labels=labels, vocabulary=("aa", "bb"))


def test_document_permutation_permutes_rows():
    docs = _docs(["aa", "bb"], ["cc"], ["aa", "cc", "cc"])
    vocab = build_vocabulary(docs)
    forward = count_vectorize(docs, vocab)
    backward = count_vectorize(docs[::-1], build_vocabulary(docs[::-1]))
    assert backward.vocabulary == forward.vocabulary
    assert np.array_equal(backward.values, forward.values[::-1])
    assert backward.row_labels == forward.row_labels[::-1]


def test_vectorization_deterministic():
    docs = _docs(["aa", "bb"], ["bb"])
    vocab = build_vocabulary(docs)
    first = count_vectorize(docs, vocab)
    second = count_vectorize(docs, vocab)
    assert np.array_equal(first.values, second.values)
    assert export_matrix_tsv(first) == export_matrix_tsv(second)


def test_export_tsv_layout():
    docs = _docs(["bb", "aa", "bb"])
    text = export_matrix_tsv(count_vectorize(docs, build_vocabulary(docs)))
    lines = text.splitlines()
    assert lines[0] == "username\taa\tbb"
    assert lines[1] == "u0\t1\t2"


def test_export_tsv_integers_for_integer_values_floats_otherwise():
    counts = DocTermMatrix(rows=((3, 0),), row_labels=("u0",), vocabulary=("aa", "bb"))
    assert export_matrix_tsv(counts) == "username\taa\tbb\nu0\t3\t0\n"
    assert counts.values.dtype == np.int64 and counts.values.tolist() == [[3, 0]]
    floats = DocTermMatrix(rows=((3.0, 0.1),), row_labels=("u0",), vocabulary=("aa", "bb"))
    assert export_matrix_tsv(floats) == "username\taa\tbb\nu0\t3.0\t0.1\n"
    assert floats.values.dtype == np.float64 and floats.values.tolist() == [[3.0, 0.1]]


def _reference_count_values(documents, vocabulary):
    # the plain loop: one increment per known token
    index = {token: j for j, token in enumerate(vocabulary)}
    values = np.zeros((len(documents), len(vocabulary)), dtype=np.int64)
    for i, doc in enumerate(documents):
        for token in doc.tokens:
            j = index.get(token)
            if j is not None:
                values[i, j] += 1
    return values


def test_counts_equal_the_plain_loop():
    spec = FixtureSpec(seed=5, users_per_category=4, posts_per_user=30,
                       cross_category_noise=0.3)
    documents = [synthesize_document(p) for p in generate_profile_set(spec).profiles]
    documents += _docs([], ["zz", "zz", "yy"], ["beagle"] * 7 + ["zz"])
    full = build_vocabulary(documents)
    for vocabulary in (full,  # every token known
                       full[::3],  # most tokens unknown
                       ("beagle",)):
        matrix = count_vectorize(documents, vocabulary)
        assert matrix.values.dtype == np.int64
        assert np.array_equal(matrix.values, _reference_count_values(documents, vocabulary))
        assert matrix.row_labels == tuple(d.username for d in documents)
