"""Level-wise Apriori: the frequent itemsets up to a size, with their supports.

The miner no longer calls it (``fisinfis_mine`` counts the whole IDF-band
lattice); it is kept here as a second, independently pruned enumeration of
the frequent itemsets for the tests.
"""

from itertools import combinations
from typing import Sequence

import numpy as np

from incmine import _kernels
from incmine.corpus import Transaction
from incmine.rules import Itemset, _check_transactions


def apriori_frequent(transactions: Sequence[Transaction], minsupp: float,
                     max_size: int = 4) -> list[tuple[Itemset, float]]:
    """All itemsets up to ``max_size`` with support >= minsupp (inclusive).

    Level-wise generation with candidate pruning: a size-k candidate is only
    counted when all its (k-1)-subsets are frequent.
    """
    _check_transactions(transactions)
    n = len(transactions)
    items = sorted({item for t in transactions for item in t.items})
    if not items:
        return []
    column = {item: j for j, item in enumerate(items)}
    presence = np.zeros((n, len(items)), dtype=np.bool_)
    for i, t in enumerate(transactions):
        presence[i, [column[item] for item in t.items]] = True

    out: list[tuple[Itemset, float]] = []
    level = [(j,) for j in range(len(items))]
    size = 1
    while level and size <= max_size:
        counts = _kernels.support_counts(presence, np.array(level, dtype=np.int64))
        frequent_now = set()
        for tup, cnt in zip(level, counts):
            supp = int(cnt) / n
            if supp >= minsupp:
                frequent_now.add(tup)
                out.append((Itemset(items[j] for j in tup), supp))
        if not frequent_now or size == max_size:
            break
        ordered = sorted(frequent_now)
        candidates = []
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if a[:-1] != b[:-1]:
                    break  # ordered join: shared (k-1)-prefix required
                cand = a + (b[-1],)
                if all(tuple(sub) in frequent_now
                       for sub in combinations(cand, size)):
                    candidates.append(cand)
        level = candidates
        size += 1
    out.sort(key=lambda pair: (len(pair[0].items), pair[0].items))
    return out
