"""Brute-force rule enumerator, independent of the mining implementation.

Represents each item as a transaction bitmask and counts every event by
popcount, then applies the thresholds to every disjoint (A, B) pair with
|A| + |B| <= max_itemset_size. No Apriori levels, no inclusion-exclusion:
this is the oracle the miner is checked against.
"""

import math
from itertools import combinations

import numpy as np

from incmine.corpus import Transaction
from incmine.rules import MiningConfig, RuleTable, _check_transactions, idf


def support(itemset, transactions):
    """Fraction of transactions containing every item of the set."""
    _check_transactions(transactions)
    items = set(itemset)
    return sum(1 for t in transactions if items <= t.items) / len(transactions)


def idf_of(item, transactions):
    """``rules.idf`` of an item, its document frequency counted by a scan."""
    return idf(len(transactions), sum(1 for t in transactions if item in t.items))


def enumerate_rules(transactions, config):
    """Return {(ant, cons, neg_a, neg_c): (supp, conf, lift)} for all admissible rules."""
    n = len(transactions)
    items = sorted({i for t in transactions for i in t.items})
    full = (1 << n) - 1
    masks = {}
    for item in items:
        m = 0
        for ti, t in enumerate(transactions):
            if item in t.items:
                m |= 1 << ti
        masks[item] = m

    kept = []
    for item in items:
        value = math.log(n / masks[item].bit_count())
        if config.idf_min <= value <= config.idf_max:
            kept.append(item)

    out = {}
    top = min(config.max_itemset_size, len(kept))
    for union_size in range(2, top + 1):
        for union in combinations(kept, union_size):
            for r in range(1, union_size):
                for ant in combinations(union, r):
                    cons = tuple(x for x in union if x not in ant)
                    mask_a = full
                    for item in ant:
                        mask_a &= masks[item]
                    mask_b = full
                    for item in cons:
                        mask_b &= masks[item]
                    for neg_a in (False, True):
                        ev_a = (full & ~mask_a) if neg_a else mask_a
                        count_a = ev_a.bit_count()
                        if count_a == 0:
                            continue
                        for neg_c in (False, True):
                            ev_b = (full & ~mask_b) if neg_c else mask_b
                            count_b = ev_b.bit_count()
                            if count_b == 0:
                                continue
                            supp = (ev_a & ev_b).bit_count() / n
                            if supp < config.minsupp:
                                continue
                            p_a = count_a / n
                            p_b = count_b / n
                            conf = supp / p_a
                            if conf < config.mincnf:
                                continue
                            lift = supp / (p_a * p_b)
                            if config.require_lift_gt1 and not lift > 1.0:
                                continue
                            out[(ant, cons, neg_a, neg_c)] = (supp, conf, lift)
    return out


def enumerate_frequent(transactions, minsupp, max_size):
    """Exhaustive frequent-itemset oracle: check every combination directly."""
    n = len(transactions)
    items = sorted({i for t in transactions for i in t.items})
    out = {}
    for size in range(1, min(max_size, len(items)) + 1):
        for combo in combinations(items, size):
            needed = set(combo)
            count = sum(1 for t in transactions if needed <= t.items)
            supp = count / n
            if supp >= minsupp:
                out[combo] = supp
    return out


def random_transactions(rng, max_items=12, max_tx=64):
    n_items = int(rng.integers(3, max_items + 1))
    items = [f"i{j}" for j in range(n_items)]
    n_tx = int(rng.integers(4, max_tx + 1))
    txs = []
    for t in range(n_tx):
        density = rng.uniform(0.15, 0.6)
        chosen = [it for it in items if rng.random() < density]
        if not chosen:
            chosen = [items[int(rng.integers(0, n_items))]]
        txs.append(Transaction(str(t), frozenset(chosen)))
    return txs


def random_config(rng, n_tx):
    return MiningConfig(
        minsupp=float(rng.uniform(0.05, 0.5)),
        mincnf=float(rng.uniform(0.3, 0.9)),
        idf_min=float(rng.uniform(0.0, 0.4)),
        idf_max=float(rng.uniform(0.8, math.log(n_tx) + 0.5)),
        max_itemset_size=int(rng.integers(2, 5)),
        require_lift_gt1=bool(rng.random() < 0.8),
    )


def rule_rows(table):
    """(antecedent items, consequent items, neg_a, neg_c, supp, conf, lift) per
    rule of a ``RuleTable``, in table order."""
    return list(zip(
        [table.itemsets[i] for i in table.antecedent.tolist()],
        [table.itemsets[i] for i in table.consequent.tolist()],
        table.neg_antecedent.tolist(), table.neg_consequent.tolist(),
        table.support.tolist(), table.confidence.tolist(), table.lift.tolist()))


def mined_to_dict(table):
    return {row[:4]: row[4:] for row in rule_rows(table)}


def make_table(rows):
    """``RuleTable`` of ``rule_rows``-style tuples, itemset ids in tuple order."""
    itemsets = tuple(sorted({side for row in rows for side in row[:2]}))
    ids = {items: i for i, items in enumerate(itemsets)}
    cols = list(zip(*rows)) or [()] * 7
    return RuleTable(itemsets,
                     np.array([ids[s] for s in cols[0]], dtype=np.int64),
                     np.array([ids[s] for s in cols[1]], dtype=np.int64),
                     np.array(cols[2], dtype=np.bool_), np.array(cols[3], dtype=np.bool_),
                     *(np.array(col, dtype=np.float64) for col in cols[4:]))
