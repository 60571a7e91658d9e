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
columnar ``RuleTable``, which the CSV and DOT exporters format directly. The
columns repeat (a 74k-rule table holds about 1,300 itemset labels, and each
metric column at most a third as many distinct floats as rules), so the
exporters format and encode each distinct label, node name and float once,
and write UTF-8 bytes to a binary file: ``EXPORT_ROWS`` rows at a time, each
block the join of the preformatted pieces of its rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from io import StringIO
from itertools import combinations
from typing import Iterable, Optional, Sequence

import csv

import numpy as np

from . import _kernels
from .corpus import Transaction
from .errors import IncmineError


# NAR completeness requires the full itemset lattice over band-passing items;
# refuse instead of hanging when the band leaves it intractable
MAX_LATTICE_CANDIDATES = 5_000_000

# every passing rule becomes a table row, a CSV line and a DOT edge; refuse
# instead of exhausting memory
MAX_RULES = 1_000_000

# rules the CSV and DOT exporters join and write at a time, so their memory
# is the distinct labels and metric strings plus one block, not the file. A
# block costs about 570 bytes a row while it is joined (bytes.join holds an
# 80-byte buffer view per piece): 1.2 MB at 2048 rows, 4.7 MB at 8192, which
# exported the 74k-rule perfbench table no faster
EXPORT_ROWS = 2048


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
        if self.idf_max is not None and not self.idf_max > self.idf_min:
            raise ValueError("idf_max must be > idf_min")
        if self.max_itemset_size < 1:
            raise ValueError("max_itemset_size must be >= 1")


def _check_transactions(transactions: Sequence[Transaction]):
    if len(transactions) == 0:
        raise IncmineError("transaction list is empty")


def idf(n: int, df: int) -> float:
    """Natural log of n / df: the IDF of an item in df of n transactions."""
    return math.log(n / df)


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
        raise IncmineError("antecedent event has probability 0")
    if count_b == 0:
        raise IncmineError("consequent event has probability 0")
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
    ``IncmineError`` before any output column is built.

    Steps (3) and (4) run as array operations over all itemsets of one size
    for one choice of antecedent positions; a rule's support threshold is the
    frequency test of step (3), since a PAR's joint count is the itemset's.
    """
    _check_transactions(transactions)
    n = len(transactions)
    idf_max = config.idf_max
    if idf_max is None:
        idf_max = max(math.log(n) - 0.1, 0.2)
        if not idf_max > config.idf_min:
            raise ValueError(
                f"idf_max must be > idf_min = {config.idf_min:g}; the default "
                f"idf_max for {n} transactions is {idf_max:.6f}")

    doc_freq = Counter(item for t in transactions for item in t.items)
    kept = [item for item, df in sorted(doc_freq.items())
            if config.idf_min <= idf(n, df) <= idf_max]
    if not kept:
        return _no_rules()

    presence = _presence_matrix(transactions, kept)
    n_items = len(kept)
    max_size = min(config.max_itemset_size, n_items)

    total_candidates = sum(math.comb(n_items, size)
                           for size in range(1, max_size + 1))
    if total_candidates > MAX_LATTICE_CANDIDATES:
        raise IncmineError(
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
                        raise IncmineError(
                            f"more than {MAX_RULES} rules pass the thresholds; raise "
                            f"minsupp or mincnf, tighten the band or lower "
                            f"max_itemset_size")
                    found.append((offset[r] + a_rank[ok], offset[size - r] + b_rank[ok],
                                  np.full(len(ok), neg_a), np.full(len(ok), neg_b),
                                  supp[passed], conf[passed], lift[passed]))
    if not found:
        return _no_rules()
    a_id, b_id, neg_a, neg_b, supp, conf, lift = (np.concatenate(col) for col in zip(*found))

    # one item tuple per distinct itemset id, the lattice ids that some rule
    # uses in ascending order; ids are renumbered in tuple order
    used = np.zeros(offset[max_size] + len(level[max_size]), dtype=bool)
    used[a_id] = True
    used[b_id] = True
    ids = np.flatnonzero(used)
    bounds = np.searchsorted(ids, list(offset.values())).tolist() + [len(ids)]
    itemsets = [tuple(kept[j] for j in row)
                for size, lo, hi in zip(level, bounds, bounds[1:])
                for row in level[size][ids[lo:hi] - offset[size]].tolist()]
    by_items = sorted(range(len(itemsets)), key=itemsets.__getitem__)
    renumber = np.empty(len(used), dtype=np.int64)  # lattice id -> position in tuple order
    renumber[ids[by_items]] = np.arange(len(ids))
    a_set, b_set = renumber[a_id], renumber[b_id]

    # ties on lift and confidence go by (a_set, b_set, neg_a, neg_b), as one
    # integer: below 4 m^2 for m itemsets, within int64 under the lattice cap
    m = len(itemsets)
    tie = ((a_set * m + b_set) * 2 + neg_a) * 2 + neg_b
    order = np.lexsort((tie, -conf, -lift))
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


def _distinct_bits(values: np.ndarray) -> np.ndarray:
    """The sorted distinct bit patterns of the float64 ``values``, as int64.

    Sorted and masked directly: ``np.unique``'s hash table takes several
    times as long here.
    """
    keys = np.sort(values.view(np.int64))
    first = np.ones(len(keys), dtype=np.bool_)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _format_distinct(values: np.ndarray, template: str | bytes):
    """Each distinct float64 of ``values`` with ``template % v``, formatted once.

    Returns the sorted distinct bit patterns as int64 keys and their strings
    in key order as an object array; ``_lookup`` gathers them to rows.
    Keying on the bits, not the float value, keeps ``-0.0`` and ``0.0``
    (equal as floats, formatted apart) on their own strings. ``template`` is
    ``str`` or ``bytes``: both take ``%``, and ``"%r" % v == repr(v)``.
    """
    keys = _distinct_bits(values)
    return keys, np.array(list(map(template.__mod__, keys.view(np.float64).tolist())),
                          dtype=object)


def _format_rounded(values: np.ndarray, template: str | bytes):
    """``_format_distinct(values, template)`` for a fixed-point ``template``,
    formatting far fewer floats when many round to one string.

    Correctly rounded formatting is monotone in the value, so when the two
    ends of a run of sorted distinct values format alike, so does every value
    between them. Bisecting the runs whose ends differ formats about log2 of
    the run's length values per change of string, not one per value. NaN,
    the infinities and -0.0 (equal to 0.0, formatted apart) are formatted on
    their own.
    """
    keys = _distinct_bits(values)
    floats = keys.view(np.float64)
    strings = np.empty(keys.shape[0], dtype=object)
    odd = ~np.isfinite(floats) | ((floats == 0.0) & np.signbit(floats))
    strings[odd] = [template % v for v in floats[odd].tolist()]
    regular = np.flatnonzero(~odd)
    regular = regular[np.argsort(floats[regular])]  # distinct values, ascending
    ordered = floats[regular].tolist()
    formatted = [None] * len(ordered)
    if ordered:
        fmt = template.__mod__
        runs = [(0, len(ordered) - 1, fmt(ordered[0]), fmt(ordered[-1]))]
        while runs:
            lo, hi, first, last = runs.pop()
            if first == last:
                formatted[lo:hi + 1] = [first] * (hi + 1 - lo)
            elif hi - lo == 1:
                formatted[lo], formatted[hi] = first, last
            else:
                mid = (lo + hi) // 2
                middle = fmt(ordered[mid])
                runs += ((lo, mid, first, middle), (mid, hi, middle, last))
    strings[regular] = formatted
    return keys, strings


def _lookup(formatted, values: np.ndarray) -> np.ndarray:
    """The string of each float64 of ``values`` in ``formatted``, the keys and
    strings of ``_format_distinct`` or ``_format_rounded`` over a superset."""
    keys, strings = formatted
    bits = values.view(np.int64)
    # searched in ascending order, each search starts where the last ended
    ascending = np.argsort(bits)
    found = np.empty(len(bits), dtype=np.intp)
    found[ascending] = np.searchsorted(keys, bits[ascending])
    return strings[found]


def _write_rows(fh, columns):
    """Write the pieces of ``columns``, equal-length object arrays of bytes,
    row after row: one join and one write."""
    width = len(columns)
    pieces = [None] * (width * len(columns[0]))
    for j, column in enumerate(columns):
        pieces[j::width] = column.tolist()
    fh.write(b"".join(pieces))


def rules_to_csv(table: RuleTable, fh) -> None:
    """Write the rules as UTF-8 CSV to the binary file ``fh``: '+'-joined
    itemsets, 0/1 negation flags and 6-decimal metrics.

    Every itemset label is quoted and encoded once, and every distinct
    metric float formatted once, each with the separator after it; each
    block of ``EXPORT_ROWS`` rows is then joined and written. This is the
    ``csv.writer`` output byte for byte, because ``QUOTE_MINIMAL`` quotes a
    field by its own text alone (a label is quoted with a second, empty
    field, as a lone empty field would be written as ``""``).
    """
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    labels = np.empty(len(table.itemsets), dtype=object)
    for i, items in enumerate(table.itemsets):
        buf.seek(0)
        buf.truncate()
        writer.writerow(("+".join(items), ""))
        labels[i] = buf.getvalue()[:-1].encode()  # the label and its comma
    flags = np.array([b"0,0,", b"0,1,", b"1,0,", b"1,1,"], dtype=object)
    support = _format_distinct(table.support, b"%.6f,")
    confidence = _format_distinct(table.confidence, b"%.6f,")
    lift = _format_distinct(table.lift, b"%.6f\n")
    fh.write(b"antecedent,consequent,neg_a,neg_c,support,confidence,lift\n")
    for lo in range(0, len(table), EXPORT_ROWS):
        rows = slice(lo, lo + EXPORT_ROWS)
        _write_rows(fh, (
            labels[table.antecedent[rows]], labels[table.consequent[rows]],
            flags[table.neg_antecedent[rows] * 2 + table.neg_consequent[rows]],
            _lookup(support, table.support[rows]),
            _lookup(confidence, table.confidence[rows]),
            _lookup(lift, table.lift[rows])))


def export_rule_graph(table: RuleTable, fh) -> None:
    """Write the rules as a directed GraphViz DOT graph, UTF-8, to the binary
    file ``fh``; NAR edges dashed, negated sides prefixed.

    Output is byte-stable: nodes are emitted as sorted strings and edges
    sorted by (tail, head), the pair that identifies a rule. Each node's
    pieces (its line, and its quoted name as a tail and as a head with their
    punctuation) are encoded once, and each distinct metric string formatted
    about once; each block of ``EXPORT_ROWS`` edges is then joined and
    written.
    """
    labels = ["+".join(items) for items in table.itemsets]
    # node key 2 * itemset id + negated; keys of equal names share a rank
    names = [prefix + label for label in labels for prefix in ("", "¬")]
    nodes = sorted(set(names))
    rank = {name: r for r, name in enumerate(nodes)}
    node_rank = np.array([rank[name] for name in names], dtype=np.int64)
    # (tail rank, head rank) as one int64, whose sort is the edge order
    pair = np.empty(len(table), dtype=np.int64)
    used = np.zeros(len(nodes), dtype=np.bool_)
    for lo in range(0, len(table), EXPORT_ROWS):
        rows = slice(lo, lo + EXPORT_ROWS)
        tail = node_rank[table.antecedent[rows] * 2 + table.neg_antecedent[rows]]
        head = node_rank[table.consequent[rows] * 2 + table.neg_consequent[rows]]
        used[tail] = used[head] = True
        pair[rows] = tail * len(nodes) + head
    order = np.argsort(pair)
    if not np.all(np.diff(pair[order])):  # equal pairs keep table order
        order = np.argsort(pair, kind="stable")
    quoted = ['"' + name.replace('"', '\\"') + '"' for name in nodes]
    tails = np.array([f"  {name} -> ".encode() for name in quoted], dtype=object)
    heads = np.array([f'{name} [label="'.encode() for name in quoted], dtype=object)
    ends = np.array([b'"];\n', b'", style=dashed];\n'], dtype=object)
    support = _format_rounded(table.support, b"s=%.3f")
    confidence = _format_rounded(table.confidence, b" c=%.3f")
    lift = _format_rounded(table.lift, b" l=%.3f")

    fh.write(b"digraph rules {\n")
    fh.write(b"".join(f"  {quoted[r]};\n".encode() for r in np.flatnonzero(used).tolist()))
    for lo in range(0, len(table), EXPORT_ROWS):
        rows = order[lo:lo + EXPORT_ROWS]
        tail, head = np.divmod(pair[rows], len(nodes))
        _write_rows(fh, (
            tails[tail], heads[head],
            _lookup(support, table.support[rows]),
            _lookup(confidence, table.confidence[rows]),
            _lookup(lift, table.lift[rows]),
            ends[(table.neg_antecedent[rows] | table.neg_consequent[rows]).view(np.uint8)]))
    fh.write(b"}\n")
