"""Sparse TF-IDF features over (optionally tag-substituted) descriptions.

``tfidf_matrix(corpus_term_counts(corpus, pre, ontology))`` gives one row per
record in corpus order and one column per term, in sorted term order.

``corpus_term_counts`` reads the tokens of ``corpus.tokenize`` once and
interns each term to an int id; one sort of the int64 (record, id) keys then
counts every pair, so the counts are a few arrays (``TermCounts``), not one
Python object per record. ``tfidf_matrix`` takes each term's df from one
``np.bincount`` of the ids and numbers the columns in sorted term order
(``build_term_index``).

TF is the raw in-description count; IDF is ln(N/df) with no smoothing,
computed per term by ``_kernels.idf``, the IDF band's function, so for
binary counts the weights are exactly the band's values. Terms present in
every description weigh zero and are not stored.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import _distinct_index, _format_distinct, idf
from .corpus import Corpus, PreprocessConfig, TagOntology, tokenize
from .errors import IncmineError


@dataclass(frozen=True)
class TermCounts:
    """Record ``rows[i]`` holds term ``terms[cols[i]]`` ``counts[i]`` times.

    One entry per (record, term) pair, sorted by (row, col); a record
    without terms has no entry. ``terms`` are in order of first occurrence.
    """

    n_rows: int
    terms: tuple[str, ...]
    rows: np.ndarray    # int64, sorted by (row, col)
    cols: np.ndarray    # int64 term ids
    counts: np.ndarray  # int64, all >= 1


@dataclass(frozen=True)
class TfIdfMatrix:
    n_rows: int
    n_cols: int
    rows: np.ndarray     # int64, sorted by (row, col)
    cols: np.ndarray     # int64
    weights: np.ndarray  # float64, all nonzero

    @property
    def nnz(self) -> int:
        return len(self.weights)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_cols

    def __getitem__(self, rows: slice) -> np.ndarray:
        """Dense float64 rows ``rows``, a row slice of step 1, as an array
        slice gives them: ``clustering.pairwise_distances`` reads the matrix
        a block of rows at a time through this."""
        lo, hi, step = rows.indices(self.n_rows)
        if step != 1:
            raise ValueError("only row slices of step 1 are supported")
        return self.toarray(lo, max(lo, hi))

    def toarray(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Rows [lo, hi) as a dense float64 array; every row by default."""
        if hi is None:
            hi = self.n_rows
        start, stop = np.searchsorted(self.rows, (lo, hi))
        dense = np.zeros((hi - lo, self.n_cols))
        dense[self.rows[start:stop] - lo, self.cols[start:stop]] = self.weights[start:stop]
        return dense

    def to_coo_text(self) -> str:
        """Header `n_rows n_cols nnz`, then `row col weight` lines, 0-based.

        Each distinct weight is formatted once, by ``_kernels._distinct_index``
        and its position: a matrix holds few of them.
        """
        lines = [f"{self.n_rows} {self.n_cols} {self.nnz}"]
        keys, position = _distinct_index(self.weights)
        weights = _format_distinct(keys, "%r")[position]
        lines += map("{} {} {}".format, self.rows.tolist(), self.cols.tolist(),
                     weights.tolist())
        return "\n".join(lines) + "\n"


def corpus_term_counts(corpus: Corpus, config: PreprocessConfig,
                       ontology: Optional[TagOntology] = None) -> TermCounts:
    """Per-record term counts in corpus order; empty records keep a zero row."""
    ids: dict[str, int] = {}
    intern = ids.setdefault
    lengths, flat = array("q"), array("q")
    for tokens in tokenize(corpus.dynamics, config, ontology):
        lengths.append(len(tokens))
        flat.extend([intern(token, len(ids)) for token in tokens])
    n_terms = len(ids)
    rows = np.repeat(np.arange(len(lengths), dtype=np.int64), np.frombuffer(lengths, np.int64))
    keys, counts = np.unique(rows * n_terms + np.frombuffer(flat, np.int64),
                             return_counts=True)
    rows, cols = np.divmod(keys, max(n_terms, 1))
    return TermCounts(n_rows=len(lengths), terms=tuple(ids), rows=rows, cols=cols,
                      counts=counts)


def build_term_index(counts: TermCounts) -> np.ndarray:
    """The column of each term id: the terms numbered in sorted order."""
    terms = counts.terms
    if not terms:
        raise IncmineError("no terms in any document")
    column = np.empty(len(terms), dtype=np.int64)
    column[sorted(range(len(terms)), key=terms.__getitem__)] = np.arange(len(terms))
    return column


def tfidf_matrix(counts: TermCounts) -> TfIdfMatrix:
    """weight(d, t) = count(t in d) * ln(N / df(t)); zero weights unstored.

    Every term is a column, in sorted order.
    """
    column = build_term_index(counts)  # raises when no doc has a term
    n = counts.n_rows
    df = np.bincount(counts.cols, minlength=len(column))
    weights = counts.counts * np.array([idf(n, d) for d in df.tolist()])[counts.cols]
    kept = np.flatnonzero(weights)
    rows, cols = counts.rows[kept], column[counts.cols[kept]]
    order = np.argsort(rows * len(column) + cols)
    return TfIdfMatrix(n_rows=n, n_cols=len(column), rows=rows[order], cols=cols[order],
                       weights=weights[kept[order]])
