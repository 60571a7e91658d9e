"""Sparse TF-IDF features over (optionally tag-substituted) descriptions.

``tfidf_matrix(corpus_term_counts(corpus, pre, ontology))`` gives one row per
record in corpus order and one column per term, in sorted term order.

TF is the raw in-description count; IDF is ln(N/df) with no smoothing, so for
binary counts the weights agree exactly with ``rules.idf(N, df)``, the IDF
band's value. Terms present in every description weigh zero and are not
stored.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .corpus import Corpus, PreprocessConfig, TagOntology, tokenize
from .errors import IncmineError
from .rules import _format_distinct, _lookup


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

        Each distinct weight is formatted once: a matrix holds few of them.
        """
        lines = [f"{self.n_rows} {self.n_cols} {self.nnz}"]
        weights = _lookup(_format_distinct(self.weights, "%r"), self.weights)
        lines += map("{} {} {}".format, self.rows.tolist(), self.cols.tolist(),
                     weights.tolist())
        return "\n".join(lines) + "\n"


def corpus_term_counts(corpus: Corpus, config: PreprocessConfig,
                       ontology: Optional[TagOntology] = None) -> list[Counter[str]]:
    """Per-record term counts in corpus order; empty records keep a zero row."""
    return [Counter(tokens) for tokens in tokenize(corpus.dynamics, config, ontology)]


def build_term_index(docs: Sequence[Mapping[str, int]]) -> dict[str, int]:
    """``{term: column}`` over the sorted terms of every doc."""
    terms = sorted({t for counts in docs for t in counts})
    if not terms:
        raise IncmineError("no terms in any document")
    return {t: j for j, t in enumerate(terms)}


def tfidf_matrix(docs: Sequence[Mapping[str, int]]) -> TfIdfMatrix:
    """weight(d, t) = count(t in d) * ln(N / df(t)); zero weights unstored.

    Every key is a column, in sorted order; a key counted 0 adds no df.
    """
    columns = build_term_index(docs)  # raises when no doc has a term
    n = len(docs)
    df: Counter[str] = Counter()
    for counts in docs:
        df.update(term for term, count in counts.items() if count > 0)
    idf = {term: math.log(n / d) for term, d in df.items()}
    rows, cols, weights = [], [], []
    for i, counts in enumerate(docs):
        entries = []
        for term, count in counts.items():
            if count <= 0:
                continue
            w = count * idf[term]
            if w != 0.0:
                entries.append((columns[term], w))
        entries.sort()
        for j, w in entries:
            rows.append(i)
            cols.append(j)
            weights.append(w)
    return TfIdfMatrix(
        n_rows=n,
        n_cols=len(columns),
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        weights=np.asarray(weights, dtype=np.float64),
    )
