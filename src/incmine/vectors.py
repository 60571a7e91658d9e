"""Sparse TF-IDF features over (optionally tag-substituted) descriptions.

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

from .corpus import Corpus, PreprocessConfig, TagOntology, apply_tags, preprocess
from .errors import IncmineError
from .rules import _format_distinct, _lookup

Doc = tuple[str, Mapping[str, int]]


class VectorsError(IncmineError):
    pass


class UnknownTermError(VectorsError):
    pass


@dataclass(frozen=True)
class TermIndex:
    terms: tuple[str, ...]
    positions: Mapping[str, int]

    def __len__(self):
        return len(self.terms)


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

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.n_rows, self.n_cols))
        dense[self.rows, self.cols] = self.weights
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
                       ontology: Optional[TagOntology] = None) -> list[Doc]:
    """Per-record term counts in corpus order; empty records keep a zero row."""
    docs: list[Doc] = []
    for rec in corpus:
        tokens = preprocess(rec.dynamics, config)
        if ontology is not None:
            tokens = apply_tags(tokens, ontology)
        docs.append((rec.id, Counter(tokens)))
    return docs


def build_term_index(docs: Sequence[Doc]) -> TermIndex:
    terms = sorted({t for _, counts in docs for t in counts})
    if not terms:
        raise VectorsError("no terms in any document")
    return TermIndex(terms=tuple(terms),
                     positions={t: j for j, t in enumerate(terms)})


def tfidf_matrix(docs: Sequence[Doc], index: TermIndex) -> TfIdfMatrix:
    """weight(d, t) = count(t in d) * ln(N / df(t)); zero weights unstored."""
    n = len(docs)
    if n == 0:
        raise VectorsError("no documents")
    df: Counter[str] = Counter()
    for _, counts in docs:
        for term, count in counts.items():
            if term not in index.positions:
                raise UnknownTermError(f"term {term!r} missing from index")
            if count > 0:
                df[term] += 1
    idf = {term: math.log(n / d) for term, d in df.items()}
    rows, cols, weights = [], [], []
    for i, (_, counts) in enumerate(docs):
        entries = []
        for term, count in counts.items():
            if count <= 0:
                continue
            w = count * idf[term]
            if w != 0.0:
                entries.append((index.positions[term], w))
        entries.sort()
        for j, w in entries:
            rows.append(i)
            cols.append(j)
            weights.append(w)
    return TfIdfMatrix(
        n_rows=n,
        n_cols=len(index),
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        weights=np.asarray(weights, dtype=np.float64),
    )
