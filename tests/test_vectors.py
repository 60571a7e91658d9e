import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incmine.corpus import PreprocessConfig, TagOntology
from incmine.errors import IncmineError
from incmine.vectors import (
    TfIdfMatrix,
    corpus_term_counts,
    tfidf_matrix,
)
from helpers import make_corpus, term_columns
import export_oracle


class TestTermIndex:
    """The columns ``tfidf_matrix`` numbers through ``build_term_index``."""

    def test_two_docs(self):
        matrix = tfidf_matrix([{"a": 1}, {"b": 2}])
        assert matrix.n_cols == 2
        assert list(zip(matrix.rows.tolist(), matrix.cols.tolist())) == [(0, 0), (1, 1)]

    def test_order_independent(self):
        one = tfidf_matrix([{"b": 1}, {"a": 1}])
        two = tfidf_matrix([{"a": 1}, {"b": 1}])
        assert one.cols.tolist() == [1, 0]
        assert two.cols.tolist() == [0, 1]
        assert np.array_equal(one.toarray()[::-1], two.toarray())

    def test_single_doc(self):
        matrix = tfidf_matrix([{"x": 3}])
        assert matrix.n_cols == 1

    def test_no_terms(self):
        with pytest.raises(IncmineError, match="no terms in any document"):
            tfidf_matrix([{}, {}])
        with pytest.raises(IncmineError, match="no terms in any document"):
            tfidf_matrix([])

    def test_zero_count_key_has_a_column_and_no_df(self):
        # "a" counted 0 in d2 does not raise its df, so d1 keeps ln(2)
        docs = [{"a": 1}, {"a": 0, "b": 1}, {"c": 1}]
        matrix = tfidf_matrix(docs)
        assert matrix.n_cols == 3
        dense = matrix.toarray()
        assert abs(dense[0, 0] - math.log(3)) < 1e-12
        assert dense[1, 0] == 0.0
        assert matrix.nnz == 3


class TestTfIdf:
    def test_toy_weights(self):
        docs = [{"cade": 1, "scala": 1}, {"cade": 1, "martello": 1}]
        index = term_columns(docs)
        matrix = tfidf_matrix(docs)
        dense = matrix.toarray()
        scala = index["scala"]
        cade = index["cade"]
        assert abs(dense[0, scala] - math.log(2)) < 1e-12
        assert dense[0, cade] == 0.0  # universal term weighs nothing

    def test_count_scales_weight(self):
        docs = [{"raro": 2, "comune": 1}, {"comune": 1}]
        index = term_columns(docs)
        dense = tfidf_matrix(docs).toarray()
        assert abs(dense[0, index["raro"]] - 2 * math.log(2)) < 1e-12

    def test_single_doc_all_zero(self):
        docs = [{"a": 3, "b": 1}]
        matrix = tfidf_matrix(docs)
        assert matrix.nnz == 0
        assert matrix.n_rows == 1

    def test_sparsity_stores_only_nonzero(self):
        docs = [{"a": 1, "b": 1}, {"a": 1}]
        matrix = tfidf_matrix(docs)
        assert (matrix.weights != 0.0).all()
        dense = matrix.toarray()
        assert matrix.nnz == np.count_nonzero(dense)

    def test_agrees_with_rules_idf_on_binary_counts(self, rng):
        # set-valued docs: weight must equal count * rules.idf(term)
        import rule_oracle
        txs = rule_oracle.random_transactions(rng, max_items=8, max_tx=20)
        docs = [{item: 1 for item in sorted(t.items)} for t in txs]
        index = term_columns(docs)
        dense = tfidf_matrix(docs).toarray()
        for i, t in enumerate(txs):
            for item in t.items:
                want = rule_oracle.idf_of(item, txs)
                assert abs(dense[i, index[item]] - want) < 1e-12

    def test_row_permutation_equivariance(self):
        docs = [{"a": 2}, {"b": 1}, {"a": 1, "b": 1}]
        base = tfidf_matrix(docs).toarray()
        perm = [docs[2], docs[0], docs[1]]
        permuted = tfidf_matrix(perm).toarray()
        assert np.allclose(permuted, base[[2, 0, 1]])


class TestRowSlices:
    """``clustering.pairwise_distances`` reads a ``TfIdfMatrix`` as it reads
    an array: its ``shape``, and dense rows for a row slice."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 12),
           n_cols=st.integers(1, 6), lo=st.none() | st.integers(-15, 15),
           hi=st.none() | st.integers(-15, 15))
    def test_slice_is_the_dense_slice(self, seed, n_rows, n_cols, lo, hi):
        rng = np.random.default_rng(seed)
        rows, cols = np.nonzero(rng.random((n_rows, n_cols)) < 0.4)
        matrix = TfIdfMatrix(n_rows=n_rows, n_cols=n_cols, rows=rows.astype(np.int64),
                             cols=cols.astype(np.int64), weights=rng.random(rows.shape[0]))
        dense = matrix.toarray()
        assert matrix.shape == dense.shape == (n_rows, n_cols)
        got = matrix[lo:hi]
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, dense[lo:hi])

    def test_step_refused(self):
        matrix = tfidf_matrix([{"a": 1}, {"b": 2}, {"a": 1, "c": 1}])
        with pytest.raises(ValueError, match="step 1"):
            matrix[::2]


class TestExport:
    def test_coo_text_format(self):
        docs = [{"cade": 1, "scala": 1}, {"cade": 1, "martello": 1}]
        text = tfidf_matrix(docs).to_coo_text()
        lines = text.splitlines()
        assert lines[0] == "2 3 2"
        assert lines[1].startswith("0 2 ")  # (row 0, col scala)
        assert lines[2].startswith("1 1 ")  # (row 1, col martello)
        assert float(lines[1].split()[2]) == math.log(2)

    def test_sorted_by_row_col(self, rng):
        import rule_oracle
        txs = rule_oracle.random_transactions(rng, max_items=10, max_tx=15)
        docs = [{item: 1 for item in sorted(t.items)} for t in txs]
        text = tfidf_matrix(docs).to_coo_text()
        coords = [tuple(map(int, line.split()[:2]))
                  for line in text.splitlines()[1:]]
        assert coords == sorted(coords)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           pool=st.lists(st.one_of(
               st.floats(),  # NaN, the infinities and -0.0 included
               st.integers(-10**6, 10**6).map(float),  # integral: "3.0"
               st.sampled_from((5e-324, 2.2250738585072014e-308 / 3, 1e300,
                                -1e300, 0.1, 1.0))),
               min_size=1, max_size=5),
           n_rows=st.integers(0, 2**40), n_cols=st.integers(0, 2**40),
           nnz=st.integers(0, 40))
    def test_coo_text_matches_per_entry_oracle(self, data, pool, n_rows, n_cols, nnz):
        # a few distinct weights, each repeated, as a tf-idf matrix holds
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=nnz, max_size=nnz))
        coords = st.lists(st.integers(0, 2**40), min_size=nnz, max_size=nnz)
        matrix = TfIdfMatrix(n_rows=n_rows, n_cols=n_cols,
                             rows=np.array(data.draw(coords), dtype=np.int64),
                             cols=np.array(data.draw(coords), dtype=np.int64),
                             weights=np.array(picks, dtype=np.float64))
        assert matrix.to_coo_text() == export_oracle.coo_text(matrix)

    def test_coo_text_matches_oracle_on_a_corpus(self, rng):
        import rule_oracle
        txs = rule_oracle.random_transactions(rng, max_items=10, max_tx=40)
        docs = [{item: 1 + i % 3 for i, item in enumerate(sorted(t.items))} for t in txs]
        matrix = tfidf_matrix(docs)
        assert matrix.nnz > len(set(matrix.weights.tolist()))  # repeated weights
        assert matrix.to_coo_text() == export_oracle.coo_text(matrix)


def test_corpus_term_counts_with_tags():
    corp = make_corpus([("x", "martello cade martello", "")])
    onto = TagOntology({"martello": "UTENSILE"})
    docs = corpus_term_counts(corp, PreprocessConfig(stopwords=frozenset()), onto)
    assert docs == [Counter({"UTENSILE": 2, "cade": 1})]


def test_corpus_term_counts_keeps_empty_rows():
    cfg = PreprocessConfig(stopwords=frozenset({"il"}))
    corp = make_corpus([("a", "il", ""), ("b", "scala", "")])
    docs = corpus_term_counts(corp, cfg)
    assert docs[0] == Counter()
    assert len(docs) == 2
