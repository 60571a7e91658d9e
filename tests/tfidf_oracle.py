"""The dict-loop tf-idf, the reference for ``vectors.tfidf_matrix``: one
``Counter`` of terms per record, df counted term by term, ``math.log`` per
term and each row's entries sorted by column.

Plain Python over strings, so it shares nothing with the term ids,
``np.bincount`` and argsort it checks; the program must match its rows,
columns and weights to the bit.
"""

import math
from collections import Counter

import numpy as np

from incmine.corpus import tokenize
from incmine.errors import IncmineError
from incmine.vectors import TfIdfMatrix


def corpus_term_counts(corpus, config, ontology=None):
    """One ``Counter`` of terms per record, in corpus order."""
    return [Counter(tokens) for tokens in tokenize(corpus.dynamics, config, ontology)]


def tfidf_matrix(docs):
    """weight(d, t) = count(t in d) * ln(N / df(t)) for the Mapping ``docs``;
    zero weights unstored, one column per term in sorted order."""
    columns = {t: j for j, t in enumerate(sorted({t for counts in docs for t in counts}))}
    if not columns:
        raise IncmineError("no terms in any document")
    n = len(docs)
    df = Counter()
    for counts in docs:
        df.update(term for term in counts)
    idf = {term: math.log(n / d) for term, d in df.items()}
    rows, cols, weights = [], [], []
    for i, counts in enumerate(docs):
        entries = []
        for term, count in counts.items():
            w = count * idf[term]
            if w != 0.0:
                entries.append((columns[term], w))
        entries.sort()
        for j, w in entries:
            rows.append(i)
            cols.append(j)
            weights.append(w)
    return TfIdfMatrix(n_rows=n, n_cols=len(columns),
                       rows=np.asarray(rows, dtype=np.int64),
                       cols=np.asarray(cols, dtype=np.int64),
                       weights=np.asarray(weights, dtype=np.float64))
