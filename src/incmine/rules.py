"""Positive and negative association-rule mining over incident transactions.

Items that occur in nearly every transaction (low inverse document frequency)
or almost never (high IDF - typically typos and placeholder residue) are
removed through an IDF band before mining. The default band is
``[0.1, max(ln|T| - 0.1, 0.2)]``: its floor drops items present in more than
about 90 % of the transactions, and its ceiling drops the items that occur in
a single transaction. Frequent itemsets yield positive rules A=>B; negative
rules (A=>!B, !A=>B, !A=>!B) are additionally built from the infrequent
itemsets, since rarely co-occurring items are often the semantically loaded
ones.

The candidate universe is the full itemset lattice over band-passing items up
to ``max_itemset_size``; the IDF band is the knob that keeps that universe
tractable on real corpora. Support counts come from the vertical-bitset
kernel ``_kernels.support_counts``; all metrics reduce to these integer
transaction counts, so the miner, ``rule_metrics`` and a brute-force
enumerator produce bit-identical fractions. The miner returns its rules as one
columnar ``RuleTable``, which the CSV and DOT exporters format directly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from io import StringIO
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

import csv

import numpy as np

from . import _kernels
from .corpus import Transaction
from .errors import IncmineError


class RulesError(IncmineError):
    pass


# NAR completeness requires the full itemset lattice over band-passing items;
# refuse instead of hanging when the band leaves it intractable
MAX_LATTICE_CANDIDATES = 5_000_000

# every passing rule becomes a table row, a CSV line and a DOT edge; refuse
# instead of exhausting memory
MAX_RULES = 1_000_000


class EmptyTransactionListError(RulesError):
    pass


class ItemAbsentError(RulesError):
    pass


class UndefinedConfidenceError(RulesError):
    """P(antecedent event) = 0, confidence has no value."""


class UndefinedLiftError(RulesError):
    """P(consequent event) = 0, lift has no value."""


@dataclass(frozen=True)
class Itemset:
    items: tuple[str, ...]

    def __init__(self, items: Iterable[str]):
        norm = tuple(sorted(set(items)))
        if not norm:
            raise ValueError("itemset may not be empty")
        object.__setattr__(self, "items", norm)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


@dataclass(frozen=True)
class RuleMetrics:
    support: float
    confidence: float
    lift: float


@dataclass(frozen=True, eq=False)
class RuleTable:
    """Mined rules as columns, one row per rule in output order.

    ``itemsets[i]`` is the sorted item tuple of itemset id ``i``, ids numbered
    in tuple order. Rule ``r`` is ``itemsets[antecedent[r]]`` (negated where
    ``neg_antecedent[r]``) => ``itemsets[consequent[r]]`` (``neg_consequent``),
    with metrics ``support[r]``, ``confidence[r]`` and ``lift[r]``.
    """

    itemsets: tuple[tuple[str, ...], ...]
    antecedent: np.ndarray
    consequent: np.ndarray
    neg_antecedent: np.ndarray
    neg_consequent: np.ndarray
    support: np.ndarray
    confidence: np.ndarray
    lift: np.ndarray

    def __len__(self):
        return len(self.support)


def _no_rules() -> RuleTable:
    ids, flags, metric = np.zeros(0, np.int64), np.zeros(0, np.bool_), np.zeros(0)
    return RuleTable((), ids, ids, flags, flags, metric, metric, metric)


@dataclass(frozen=True)
class MiningConfig:
    minsupp: float = 0.05
    mincnf: float = 0.6
    idf_min: float = 0.1
    idf_max: Optional[float] = None  # None: max(ln|T| - 0.1, 0.2), set when mining
    max_itemset_size: int = 4
    require_lift_gt1: bool = True

    def __post_init__(self):
        if not 0.0 < self.minsupp <= 1.0:
            raise ValueError("minsupp must be in (0, 1]")
        if not 0.0 < self.mincnf <= 1.0:
            raise ValueError("mincnf must be in (0, 1]")
        if self.idf_min < 0.0:
            raise ValueError("idf_min must be >= 0")
        if self.idf_max is not None:
            _check_band(self.idf_min, self.idf_max)
        if self.max_itemset_size < 1:
            raise ValueError("max_itemset_size must be >= 1")


def _check_band(idf_min: float, idf_max: float):
    if not idf_max > idf_min:
        raise ValueError("idf_max must be > idf_min")


def _check_transactions(transactions: Sequence[Transaction]):
    if len(transactions) == 0:
        raise EmptyTransactionListError("transaction list is empty")


def support(itemset: Itemset | Iterable[str], transactions: Sequence[Transaction]) -> float:
    """Fraction of transactions containing every item of the set."""
    _check_transactions(transactions)
    items = set(itemset)
    hits = sum(1 for t in transactions if items <= t.items)
    return hits / len(transactions)


def idf(item: str, transactions: Sequence[Transaction],
        doc_freq: Mapping[str, int] | None = None) -> float:
    """Natural log of |T| / document-frequency(item).

    ``doc_freq`` (item -> number of transactions containing it) replaces the
    scan over the transactions when given.
    """
    _check_transactions(transactions)
    if doc_freq is None:
        df = sum(1 for t in transactions if item in t.items)
    else:
        df = doc_freq.get(item, 0)
    if df == 0:
        raise ItemAbsentError(f"item {item!r} occurs in no transaction")
    return math.log(len(transactions) / df)


def rule_metrics(antecedent: Itemset, consequent: Itemset,
                 neg_antecedent: bool, neg_consequent: bool,
                 transactions: Sequence[Transaction]) -> RuleMetrics:
    """Support / confidence / lift of the rule, events negated per the flags.

    Counts each event directly over the transactions, one pass.
    """
    _check_transactions(transactions)
    a_items = set(antecedent)
    b_items = set(consequent)
    if a_items & b_items:
        raise ValueError("antecedent and consequent must be disjoint")
    n = len(transactions)
    count_a = count_b = count_both = 0
    for t in transactions:
        ev_a = (a_items <= t.items) != neg_antecedent
        ev_b = (b_items <= t.items) != neg_consequent
        count_a += ev_a
        count_b += ev_b
        count_both += ev_a and ev_b
    if count_a == 0:
        raise UndefinedConfidenceError("antecedent event has probability 0")
    if count_b == 0:
        raise UndefinedLiftError("consequent event has probability 0")
    supp = count_both / n
    p_a = count_a / n
    p_b = count_b / n
    return RuleMetrics(support=supp, confidence=supp / p_a, lift=supp / (p_a * p_b))


def _presence_matrix(transactions: Sequence[Transaction], items: Sequence[str]):
    pos = {item: j for j, item in enumerate(items)}
    presence = np.zeros((len(transactions), len(items)), dtype=np.bool_)
    for i, t in enumerate(transactions):
        for item in t.items:
            j = pos.get(item)
            if j is not None:
                presence[i, j] = True
    return presence


def fisinfis_mine(transactions: Sequence[Transaction],
                  config: MiningConfig) -> RuleTable:
    """Mine PARs from frequent itemsets and NARs from the full IDF-band lattice.

    Steps: (1) drop items whose IDF falls outside [idf_min, idf_max], where
    an unset idf_max is max(ln|T| - 0.1, 0.2);
    (2) count every itemset of band-passing items up to max_itemset_size;
    (3) each 2-partition (A, B) of a frequent itemset yields A=>B when its
    confidence reaches mincnf and lift exceeds 1; (4) partitions of all
    itemsets, frequent or not, yield the three negated forms under the same
    thresholds applied to the negated events; (5) rules are ordered by lift
    desc, confidence desc, then by antecedent and consequent item tuples and
    the negation flags.

    Returns one ``RuleTable``. More than ``MAX_RULES`` passing rules raise
    ``RulesError`` before any output column is built.

    Steps (3) and (4) run as array operations over all itemsets of one size
    for one choice of antecedent positions; a rule's support threshold is the
    frequency test of step (3), since a PAR's joint count is the itemset's.
    """
    _check_transactions(transactions)
    n = len(transactions)
    idf_max = config.idf_max
    if idf_max is None:
        idf_max = max(math.log(n) - 0.1, 0.2)
        _check_band(config.idf_min, idf_max)

    doc_freq = Counter(item for t in transactions for item in t.items)
    kept = [item for item in sorted(doc_freq)
            if config.idf_min <= idf(item, transactions, doc_freq) <= idf_max]
    if not kept:
        return _no_rules()

    presence = _presence_matrix(transactions, kept)
    n_items = len(kept)
    max_size = min(config.max_itemset_size, n_items)

    total_candidates = sum(math.comb(n_items, size)
                           for size in range(1, max_size + 1))
    if total_candidates > MAX_LATTICE_CANDIDATES:
        raise RulesError(
            f"{n_items} items pass the IDF band, giving {total_candidates} "
            f"candidate itemsets up to size {max_size}; tighten the band or "
            f"lower max_itemset_size")

    # full lattice over kept items, one lexicographic level per size; an
    # itemset's id is its level's offset plus its rank within the level
    level = {1: np.arange(n_items, dtype=np.int64)[:, None]}
    for size in range(2, max_size + 1):
        level[size] = _extend_combinations(level[size - 1], n_items)
    count = {size: _kernels.support_counts(presence, level[size]) for size in level}
    offset = dict(zip(level, np.cumsum([0] + [len(level[s]) for s in level]).tolist()))
    binom = _binomials(n_items, max_size)

    found = []
    n_rules = 0
    for size in range(2, max_size + 1):
        c_x = count[size]
        for r in range(1, size):
            for pos in combinations(range(size), r):
                rest = [j for j in range(size) if j not in pos]
                a_rank = _lex_rank(level[size][:, list(pos)], n_items, binom)
                b_rank = _lex_rank(level[size][:, rest], n_items, binom)
                c_a = count[r][a_rank]
                c_b = count[size - r][b_rank]
                for neg_a, neg_b in _FORMS:
                    ev_a = n - c_a if neg_a else c_a
                    ev_b = n - c_b if neg_b else c_b
                    if neg_a and neg_b:
                        both = n - c_a - c_b + c_x
                    elif neg_a:
                        both = c_b - c_x
                    elif neg_b:
                        both = c_a - c_x
                    else:
                        both = c_x
                    # confidence or lift undefined where an event never occurs
                    ok = np.flatnonzero((ev_a > 0) & (ev_b > 0))
                    supp = both[ok] / n
                    p_a = ev_a[ok] / n
                    p_b = ev_b[ok] / n
                    conf = supp / p_a
                    lift = supp / (p_a * p_b)
                    passed = (supp >= config.minsupp) & (conf >= config.mincnf)
                    if config.require_lift_gt1:
                        passed &= lift > 1.0
                    ok = ok[passed]
                    n_rules += len(ok)
                    if n_rules > MAX_RULES:
                        raise RulesError(
                            f"more than {MAX_RULES} rules pass the thresholds; raise "
                            f"minsupp or mincnf, tighten the band or lower "
                            f"max_itemset_size")
                    found.append((offset[r] + a_rank[ok], offset[size - r] + b_rank[ok],
                                  np.full(len(ok), neg_a), np.full(len(ok), neg_b),
                                  supp[passed], conf[passed], lift[passed]))
    if not found:
        return _no_rules()
    a_id, b_id, neg_a, neg_b, supp, conf, lift = (np.concatenate(col) for col in zip(*found))

    # one item tuple per distinct itemset id; ids are renumbered in tuple order
    ids, inverse = np.unique(np.concatenate([a_id, b_id]), return_inverse=True)
    bounds = np.searchsorted(ids, list(offset.values())).tolist() + [len(ids)]
    itemsets = [tuple(kept[j] for j in row)
                for size, lo, hi in zip(level, bounds, bounds[1:])
                for row in level[size][ids[lo:hi] - offset[size]].tolist()]
    by_items = sorted(range(len(itemsets)), key=itemsets.__getitem__)
    rank = np.argsort(by_items)  # the inverse permutation: id -> position in tuple order
    a_set, b_set = np.split(rank[inverse], 2)

    order = np.lexsort((neg_b, neg_a, b_set, a_set, -conf, -lift))
    return RuleTable(tuple(itemsets[i] for i in by_items), a_set[order], b_set[order],
                     neg_a[order], neg_b[order], supp[order], conf[order], lift[order])


_FORMS = ((False, False), (False, True), (True, False), (True, True))


def _extend_combinations(prev, n_items):
    """Lexicographic (size+1)-combinations of range(n_items) from the size ones."""
    last = prev[:, -1]
    reps = n_items - 1 - last
    starts = np.cumsum(reps) - reps
    tail = np.arange(int(reps.sum())) - np.repeat(starts - last - 1, reps)
    return np.hstack([np.repeat(prev, reps, axis=0), tail[:, None]])


def _binomials(n, k):
    """(n+1, k+1) int64 table of C(i, j), from C(i, j) = sum of C(m, j-1) over m < i."""
    table = np.zeros((n + 1, k + 1), dtype=np.int64)
    table[:, 0] = 1
    for j in range(1, k + 1):
        np.cumsum(table[:-1, j - 1], out=table[1:, j])
    return table


def _lex_rank(combos, n_items, binom):
    """Rank of each sorted row among the lexicographic combinations of its size."""
    size = combos.shape[1]
    return (binom[n_items, size] - 1
            - binom[n_items - 1 - combos, np.arange(size, 0, -1)].sum(axis=1))


def rules_to_csv(table: RuleTable) -> str:
    """CSV with '+'-joined itemsets, 0/1 negation flags and 6-decimal metrics."""
    labels = ["+".join(items) for items in table.itemsets]
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["antecedent", "consequent", "neg_a", "neg_c",
                     "support", "confidence", "lift"])
    writer.writerows(zip(
        map(labels.__getitem__, table.antecedent.tolist()),
        map(labels.__getitem__, table.consequent.tolist()),
        table.neg_antecedent.astype(np.int64).tolist(),
        table.neg_consequent.astype(np.int64).tolist(),
        map("{:.6f}".format, table.support.tolist()),
        map("{:.6f}".format, table.confidence.tolist()),
        map("{:.6f}".format, table.lift.tolist()),
    ))
    return buf.getvalue()


def export_rule_graph(table: RuleTable) -> str:
    """Directed GraphViz DOT text; NAR edges dashed, negated sides prefixed.

    Output is byte-stable: nodes are emitted as sorted strings and edges
    sorted by (tail, head), the pair that identifies a rule.
    """
    labels = ["+".join(items) for items in table.itemsets]
    # a name per distinct (itemset id, negation) key; equal names are one node
    keys, inverse = np.unique(np.concatenate([
        table.antecedent * 2 + table.neg_antecedent,
        table.consequent * 2 + table.neg_consequent]), return_inverse=True)
    names = [("¬" if key & 1 else "") + labels[key >> 1] for key in keys.tolist()]
    nodes = sorted(set(names))
    rank = {name: r for r, name in enumerate(nodes)}
    tail, head = np.split(np.array([rank[name] for name in names], dtype=np.int64)[inverse], 2)
    quoted = ['"' + name.replace('"', '\\"') + '"' for name in nodes]
    order = np.lexsort((head, tail))
    dashed = table.neg_antecedent | table.neg_consequent

    lines = ["digraph rules {"]
    lines += [f"  {name};" for name in quoted]
    lines += [f'  {quoted[t]} -> {quoted[h]} [label="s={s:.3f} c={c:.3f} l={l:.3f}"'
              f'{", style=dashed" if d else ""}];'
              for t, h, s, c, l, d in zip(
                  tail[order].tolist(), head[order].tolist(),
                  table.support[order].tolist(), table.confidence[order].tolist(),
                  table.lift[order].tolist(), dashed[order].tolist())]
    lines.append("}")
    return "\n".join(lines) + "\n"
