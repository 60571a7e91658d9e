import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from incmine import _kernels, rules
from incmine.corpus import Transaction
from incmine.errors import IncmineError
from incmine.rules import (
    Itemset,
    MiningConfig,
    export_rule_graph,
    fisinfis_mine,
    idf,
    rule_metrics,
    rules_to_csv,
)
from apriori_oracle import apriori_frequent
import export_oracle
from export_oracle import written
import rule_oracle
from rule_oracle import idf_of, support
from support_oracle import support_counts_loop


def iset(*items):
    return Itemset(items)


class TestSupport:
    def test_single_item(self, toy_transactions):
        assert support(iset("a"), toy_transactions) == 0.75

    def test_pair(self, toy_transactions):
        assert support(iset("a", "b"), toy_transactions) == 0.75

    def test_absent_item(self, toy_transactions):
        assert support(iset("z"), toy_transactions) == 0.0

    def test_empty_transactions(self):
        with pytest.raises(IncmineError, match="transaction list is empty"):
            support(iset("a"), [])


class TestRuleMetrics:
    def test_positive_rule(self, toy_transactions):
        m = rule_metrics(iset("a"), iset("b"), False, False, toy_transactions)
        assert m.support == 0.75
        assert m.confidence == 1.0
        assert abs(m.lift - 4 / 3) < 1e-12

    def test_negated_consequent(self, toy_transactions):
        m = rule_metrics(iset("a"), iset("c"), False, True, toy_transactions)
        assert m.support == 0.75
        assert m.confidence == 1.0
        assert abs(m.lift - 4 / 3) < 1e-12

    def test_overlap_rejected(self, toy_transactions):
        with pytest.raises(ValueError):
            rule_metrics(iset("a"), iset("a"), False, False, toy_transactions)

    def test_undefined_confidence(self, toy_transactions):
        with pytest.raises(IncmineError, match="antecedent event has probability 0"):
            rule_metrics(iset("z"), iset("a"), False, False, toy_transactions)

    def test_undefined_lift(self, toy_transactions):
        # consequent event "not c present in some transaction"... b absent everywhere
        with pytest.raises(IncmineError, match="consequent event has probability 0"):
            rule_metrics(iset("a"), iset("z"), False, False, toy_transactions)

    def test_lift_times_pb_equals_conf(self, toy_transactions):
        n = len(toy_transactions)
        for neg_a in (False, True):
            for neg_b in (False, True):
                m = rule_metrics(iset("a"), iset("c"), neg_a, neg_b,
                                 toy_transactions)
                count_b = sum(1 for t in toy_transactions
                              if ({"c"} <= t.items) != neg_b)
                p_b = count_b / n
                assert abs(m.lift * p_b - m.confidence) < 1e-12


class TestIdf:
    def test_three_of_four(self, toy_transactions):
        assert abs(idf_of("a", toy_transactions) - math.log(4 / 3)) < 1e-12
        assert abs(idf_of("a", toy_transactions) - 0.287682) < 1e-6

    def test_universal_item_is_zero(self):
        txs = [Transaction(str(i), frozenset({"x", f"y{i}"})) for i in range(5)]
        assert idf_of("x", txs) == 0.0

    def test_hapax_in_thousand(self):
        txs = [Transaction(str(i), frozenset({"filler"})) for i in range(999)]
        txs.append(Transaction("999", frozenset({"raro"})))
        assert abs(idf_of("raro", txs) - math.log(1000)) < 1e-12
        assert abs(idf_of("raro", txs) - 6.907755) < 1e-6

    def test_band_reads_each_present_items_count(self, toy_transactions, monkeypatch):
        # the miner asks for the IDF of the items that occur, in sorted order,
        # from their document frequencies: an absent item is never asked for
        calls = []

        def recorded(n, df):
            calls.append((n, df))
            return idf(n, df)

        monkeypatch.setattr(rules, "idf", recorded)
        fisinfis_mine(toy_transactions, MiningConfig(idf_min=0.0, idf_max=10.0))
        assert calls == [(4, 3), (4, 3), (4, 1)]


class TestAprioriFrequent:
    def test_toy_fixture(self, toy_transactions):
        got = {(i.items): s for i, s in apriori_frequent(toy_transactions, 0.5)}
        assert got == {("a",): 0.75, ("b",): 0.75, ("a", "b"): 0.75}

    def test_minsupp_one_no_universal(self, toy_transactions):
        got = apriori_frequent(toy_transactions, 1.0)
        assert got == []

    def test_tiny_minsupp_all_singles(self, toy_transactions):
        got = apriori_frequent(toy_transactions, 1e-9, max_size=1)
        assert [i.items for i, _ in got] == [("a",), ("b",), ("c",)]

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(25):
            txs = rule_oracle.random_transactions(rng, max_items=9, max_tx=40)
            minsupp = float(rng.uniform(0.05, 0.6))
            got = {i.items: s for i, s in apriori_frequent(txs, minsupp, 4)}
            want = rule_oracle.enumerate_frequent(txs, minsupp, 4)
            assert got == want

    def test_anti_monotone(self, rng):
        from itertools import combinations
        for _ in range(10):
            txs = rule_oracle.random_transactions(rng, max_items=8, max_tx=30)
            result = apriori_frequent(txs, 0.2, 4)
            supports = {i.items: s for i, s in result}
            for items, supp in supports.items():
                for size in range(1, len(items)):
                    for sub in combinations(items, size):
                        assert sub in supports
                        assert supports[sub] >= supp


# transaction counts on both sides of the 64-bit word boundaries
WORD_EDGES = (1, 63, 64, 65, 129)


class TestSupportCounts:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_items=st.integers(2, 7), size=st.integers(1, 4))
    def test_bitset_matches_scalar_oracle(self, data, n_items, size):
        bits = data.draw(arrays(np.bool_, (max(WORD_EDGES), n_items)))
        bits[:, 0] = False
        bits[:, 1] = True
        n_cands = data.draw(st.integers(0, 12))
        cands = data.draw(arrays(np.int64, (n_cands, size),
                                 elements=st.integers(0, n_items - 1)))
        for n_t in WORD_EDGES:
            presence = bits[:n_t]
            got = _kernels.support_counts(presence, cands)
            assert got.dtype == np.int64
            assert got.tolist() == support_counts_loop(presence, cands).tolist()

    def test_empty_candidates(self):
        presence = np.ones((65, 3), dtype=bool)
        for size in range(1, 5):
            got = _kernels.support_counts(presence, np.zeros((0, size), dtype=np.int64))
            assert got.shape == (0,) and got.dtype == np.int64

    def test_blocks_cover_every_candidate(self, rng, monkeypatch):
        presence = rng.random(size=(70, 6)) < 0.5
        cands = rng.integers(0, 6, size=(10, 2))
        # 70 transactions are two uint64 words, 16 bytes per candidate row:
        # 4 rows a block, then a budget below one row, which still takes one
        for budget in (4 * 16, 8):
            monkeypatch.setattr(_kernels, "SUPPORT_BLOCK_BYTES", budget)
            assert (_kernels.support_counts(presence, cands)
                    == support_counts_loop(presence, cands)).all()

    def test_block_scratch_is_bounded_by_bytes(self, rng):
        # 131,072 transactions are 2,048 words a row: a block of 4,096
        # candidate rows would be 64 MiB, and the AND's copy another 64
        presence = rng.random(size=(131_072, 50)) < 0.3
        cands = np.array(list(combinations(range(50), 3)), dtype=np.int64)
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            got = _kernels.support_counts(presence, cands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        columns = presence.astype(np.int64)
        assert got[:200].tolist() == [
            int((columns[:, a] & columns[:, b] & columns[:, c]).sum()) for a, b, c in cands[:200]]


def _recorded(calls, fn):
    def call(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return call


class _NumpySpy:
    """numpy, with the calls that start building a ``RuleTable`` recorded."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        fn = getattr(np, name)
        return _recorded(self.calls, fn) if name in ("concatenate", "searchsorted") else fn


@st.composite
def _tied_rules(draw):
    """(n, rows): rows of (antecedent count, consequent count, joint count,
    tie) over n transactions, the ties distinct."""
    n = draw(st.integers(1, 8))
    size = draw(st.integers(0, 60))
    ties = draw(st.lists(st.integers(0, 2 ** 40), min_size=size, max_size=size, unique=True))
    rows = []
    for tie in ties:
        c_a, c_b = draw(st.integers(1, n)), draw(st.integers(1, n))
        rows.append((c_a, c_b, draw(st.integers(1, min(c_a, c_b))), tie))
    return n, rows


class TestFisinfisMine:
    def test_toy_rules(self, toy_transactions):
        config = MiningConfig(minsupp=0.5, mincnf=0.8, idf_min=0.0, idf_max=10.0)
        mined = rule_oracle.mined_to_dict(fisinfis_mine(toy_transactions, config))
        assert (("a",), ("b",), False, False) in mined
        assert (("b",), ("a",), False, False) in mined
        supp, conf, lift = mined[(("a",), ("c",), False, True)]
        assert (supp, conf) == (0.75, 1.0)
        assert abs(lift - 4 / 3) < 1e-12

    def test_idf_lower_band_excludes_item(self):
        # a in 9 of 10 transactions (idf 0.105), b and c in 7 each (idf 0.357)
        rows = ["abc"] * 4 + ["ab", "ab", "ac", "ac", "a", "bc"]
        txs = [Transaction(f"t{i}", frozenset(row)) for i, row in enumerate(rows)]
        def mined(idf_min):
            return fisinfis_mine(txs, MiningConfig(minsupp=0.2, mincnf=0.6,
                                                   idf_min=idf_min, idf_max=10.0))
        assert any("a" in items for items in mined(0.0).itemsets)
        banded = mined(0.3)
        assert len(banded) > 0
        assert banded.itemsets == (("b",), ("c",))
        assert all("a" not in items for items in banded.itemsets)

    def test_minsupp_one_empty(self, toy_transactions):
        config = MiningConfig(minsupp=1.0, mincnf=0.8, idf_min=0.0, idf_max=10.0)
        assert len(fisinfis_mine(toy_transactions, config)) == 0

    def test_empty_transactions_propagates(self):
        with pytest.raises(IncmineError, match="transaction list is empty"):
            fisinfis_mine([], MiningConfig())

    def test_sorted_by_lift_conf_lexicographic(self, rng):
        txs = rule_oracle.random_transactions(rng, max_items=8, max_tx=30)
        config = MiningConfig(minsupp=0.1, mincnf=0.3, idf_min=0.0,
                              idf_max=10.0, max_itemset_size=3)
        mined = fisinfis_mine(txs, config)
        keys = [(-lift, -conf, a, b, neg_a, neg_b)
                for a, b, neg_a, neg_b, _, conf, lift in rule_oracle.rule_rows(mined)]
        assert keys == sorted(keys)

    def test_itemset_ids_in_tuple_order(self, rng):
        for _ in range(10):
            txs = rule_oracle.random_transactions(rng, max_items=8, max_tx=30)
            mined = fisinfis_mine(txs, MiningConfig(minsupp=0.1, mincnf=0.3, idf_min=0.0,
                                                    idf_max=10.0, max_itemset_size=3))
            assert list(mined.itemsets) == sorted(set(mined.itemsets))
            assert all(list(items) == sorted(items) for items in mined.itemsets)
            used = np.union1d(mined.antecedent, mined.consequent)
            assert used.tolist() == list(range(len(mined.itemsets)))

    def test_oracle_equivalence_sample(self, rng):
        for _ in range(20):
            txs = rule_oracle.random_transactions(rng)
            config = rule_oracle.random_config(rng, len(txs))
            mined = rule_oracle.mined_to_dict(fisinfis_mine(txs, config))
            want = rule_oracle.enumerate_rules(txs, config)
            assert mined.keys() == want.keys()
            for key, metrics in want.items():
                got = mined[key]
                for g, w in zip(got, metrics):
                    assert abs(g - w) < 1e-12

    @pytest.mark.parametrize("require_lift_gt1", [True, False])
    def test_oracle_bit_identical_either_lift_gate(self, rng, require_lift_gt1):
        for _ in range(15):
            txs = rule_oracle.random_transactions(rng, max_items=9, max_tx=70)
            config = MiningConfig(minsupp=0.05, mincnf=0.3, idf_min=0.0,
                                  idf_max=10.0, max_itemset_size=4,
                                  require_lift_gt1=require_lift_gt1)
            mined = rule_oracle.mined_to_dict(fisinfis_mine(txs, config))
            assert mined == rule_oracle.enumerate_rules(txs, config)

    @pytest.mark.parametrize("require_lift_gt1", [True, False])
    def test_item_in_every_transaction(self, require_lift_gt1):
        # u is in every transaction, so !u never occurs, and every itemset of
        # a, b, c and u occurs: the support filter alone must keep each rule
        # on !u out, so every negated side left occurs in some transactions
        # but not all
        rows = ["u a b", "u a b", "u b c", "u c", "u a b c", "u", "u a c", "u b"]
        txs = [Transaction(f"t{i}", frozenset(row.split())) for i, row in enumerate(rows)]
        n = len(txs)
        config = MiningConfig(minsupp=1 / n, mincnf=0.1, idf_min=0.0, idf_max=10.0,
                              max_itemset_size=3, require_lift_gt1=require_lift_gt1)
        mined = fisinfis_mine(txs, config)
        assert rule_oracle.mined_to_dict(mined) == rule_oracle.enumerate_rules(txs, config)
        found = rule_oracle.rule_rows(mined)
        assert any("u" in a + b for a, b, *_ in found)
        negated = [items for a, b, neg_a, neg_b, *_ in found
                   for items, neg in ((a, neg_a), (b, neg_b)) if neg]
        assert negated
        for items in negated:
            assert 0 < sum(1 for t in txs if not set(items) <= t.items) < n

    def test_rule_bound(self, rng, monkeypatch):
        txs = rule_oracle.random_transactions(rng, max_items=8, max_tx=40)
        config = MiningConfig(minsupp=0.05, mincnf=0.3, idf_min=0.0,
                              idf_max=10.0, max_itemset_size=3)
        mined = fisinfis_mine(txs, config)
        assert len(mined) > 1
        built = []
        monkeypatch.setattr(rules, "np", _NumpySpy(built))
        monkeypatch.setattr(rules, "RuleTable", _recorded(built, rules.RuleTable))
        monkeypatch.setattr(rules, "MAX_RULES", len(mined))
        assert written(rules_to_csv, fisinfis_mine(txs, config)) == written(rules_to_csv, mined)
        assert set(built) == {"concatenate", "searchsorted", "RuleTable"}  # the spy sees the output
        built.clear()
        monkeypatch.setattr(rules, "MAX_RULES", len(mined) - 1)
        with pytest.raises(IncmineError, match=f"more than {len(mined) - 1} rules"):
            fisinfis_mine(txs, config)
        assert built == []  # refused before any output column or itemset tuple

    def test_lattice_cap(self, monkeypatch):
        # 5 items to size 2: 5 + 10 candidate itemsets, refused above a cap of 10
        txs = [Transaction(f"t{i}", frozenset("abcde"[:i % 5 + 1])) for i in range(10)]
        config = MiningConfig(minsupp=0.1, idf_min=0.0, idf_max=10.0, max_itemset_size=2)
        monkeypatch.setattr(rules, "MAX_LATTICE_CANDIDATES", 15)
        assert len(fisinfis_mine(txs, config)) > 0
        monkeypatch.setattr(rules, "MAX_LATTICE_CANDIDATES", 10)
        with pytest.raises(IncmineError, match=r"^5 items pass the IDF band, giving 15 "
                                               r"candidate itemsets up to size 2; tighten "
                                               r"the band or lower max_itemset_size$"):
            fisinfis_mine(txs, config)

    @settings(max_examples=200, deadline=None)
    @given(rows=_tied_rules())
    @example(rows=(4, [(2, 2, 1, 5), (2, 2, 1, 3), (4, 1, 1, 9), (1, 4, 1, 0)]))
    def test_order_key_matches_lexsort(self, rows):
        n, rows = rows
        c_a, c_b, c_x, tie = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        # as the miner computes them: few distinct fractions, so ties are dense
        supp = c_x / n
        conf = supp / (c_a / n)
        lift = supp / ((c_a / n) * (c_b / n))
        key = rules._order_key(_kernels._distinct_index(lift),
                               _kernels._distinct_index(conf), tie)
        assert key.dtype == np.int64
        assert len(np.unique(key)) == len(key)
        assert np.argsort(key).tolist() == np.lexsort((tie, -conf, -lift)).tolist()

    def test_order_key_fits_int64_at_max_rules(self):
        n = rules.MAX_RULES
        assert n ** 3 - 1 < 2 ** 63
        # n distinct lifts and confidences; row r has the (r+1)-th smallest of
        # each and the (r+1)-th largest tie, so row 0 has every rank at its maximum
        index = _kernels._distinct_index(np.arange(1, n + 1, dtype=np.float64))
        key = rules._order_key(index, index, -np.arange(n, dtype=np.int64))
        assert key.dtype == np.int64
        assert int(key[0]) == n ** 3 - 1
        rows = [0, 1, n // 2, n - 2, n - 1]
        assert [int(key[r]) for r in rows] == \
            [((n - 1 - r) * n + (n - 1 - r)) * n + (n - 1 - r) for r in rows]
        assert np.all(key[:-1] > key[1:])

    def test_complement_identity(self, rng):
        txs = rule_oracle.random_transactions(rng, max_items=8, max_tx=40)
        n = len(txs)
        for item in sorted({i for t in txs for i in t.items}):
            p = support(iset(item), txs)
            p_not = sum(1 for t in txs if item not in t.items) / n
            assert abs(p_not - (1.0 - p)) < 1e-12


PAR = (("a",), ("b",), False, False, 0.75, 1.0, 4 / 3)
NAR = (("a",), ("c",), False, True, 0.75, 1.0, 4 / 3)

# items with csv and DOT quote characters, accented letters and upper-case
# tags; their labels sort on both sides of the negation prefix "¬"
EXPORT_ITEMS = ("a", "caduta", "b,c", 'd"e', "è", "ùltimo", "TAG", "TAG,X", 'Z"')


def _from_bits(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# floats the miner never emits: signed zeros, subnormals, huge, infinite and
# NaN values (three bit patterns), and .3f / .6f half-way decimals
_EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300,
                math.inf, -math.inf, math.nan, _from_bits(0xFFF8000000000000),
                _from_bits(0x7FF8000000000001), 0.0005, 0.0015, 1.0005, -0.0005,
                5e-7, 0.1234565, 0.75, 4 / 3)
# each with its neighbours one ulp away, which mostly format the same
_METRIC_FLOATS = st.one_of(
    st.sampled_from([y for x in _EDGE_FLOATS
                     for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]),
    st.floats(width=64))
_ADVERSARIAL_ITEMS = ("a", "b,c", 'd"e', '"', ",", "¬", "¬f", "g¬", "TAG", "TAG,X")


def _node_name(items, negated):
    return ("¬" if negated else "") + "+".join(items)


@st.composite
def _adversarial_rows(draw):
    """Hand-made rule rows whose metrics repeat: each column draws from a
    small pool. The DOT (tail, head) name pairs are distinct, as mined rules'
    are: the object oracle orders equal pairs by edge label, the exporter by
    rule order."""
    side = st.lists(st.sampled_from(_ADVERSARIAL_ITEMS), min_size=1, max_size=3,
                    unique=True).map(lambda items: tuple(sorted(items)))
    pools = [draw(st.lists(_METRIC_FLOATS, min_size=1, max_size=6)) for _ in range(3)]
    row = st.tuples(side, side, st.booleans(), st.booleans(),
                    *(st.sampled_from(pool) for pool in pools))
    return draw(st.lists(row, max_size=30, unique_by=lambda r: (
        _node_name(r[0], r[2]), _node_name(r[1], r[3]))))


def _mined_shaped_table():
    """About 47k rules mined from 2,000 generated transactions over 40 words
    with Zipf-like frequencies, with labels of 4 to 10 letters."""
    rng = np.random.default_rng(0)
    letters = np.array(list("acdeilmnoprstu"))
    words = sorted({"".join(rng.choice(letters, size=int(rng.integers(4, 11))))
                    for _ in range(40)})
    p = 1.0 / np.arange(1, len(words) + 1) ** 0.6
    p /= p.sum()
    txs = [Transaction(str(i), frozenset(
        words[j] for j in rng.choice(len(words), size=int(rng.integers(3, 12)),
                                     replace=False, p=p)))
        for i in range(2000)]
    return fisinfis_mine(txs, MiningConfig(minsupp=0.05, mincnf=0.5, idf_min=0.0,
                                           idf_max=10.0, max_itemset_size=3))


# labels with accents, csv and DOT quote characters and upper-case tags
_BLOCK_ITEMS = ("à", "è", "caduta", "b,c", 'd"e', "TAG", "TAG,X", 'Z"')
# NaN (two bit patterns), the infinities, both zeros and ordinary values
_BLOCK_FLOATS = (math.nan, _from_bits(0xFFF8000000000000), math.inf, -math.inf, -0.0, 0.0,
                 0.0005, 0.0015, 0.1234565, 0.75, 4 / 3, 2.5)


def _edge_case_table(n_rules):
    """``n_rules`` rules in shuffled order, with distinct (tail, head) node
    names, over ``_BLOCK_ITEMS`` itemsets and ``_BLOCK_FLOATS`` metrics."""
    sides = [items for size in (1, 2, 3) for items in combinations(_BLOCK_ITEMS, size)]
    sides = [tuple(sorted(items)) for items in sides]
    nodes = len(sides) * 2
    assert n_rules <= nodes * nodes
    rng = np.random.default_rng(n_rules)
    rows = []
    for key in rng.permutation(nodes * nodes)[:n_rules].tolist():
        tail, head = divmod(key, nodes)
        rows.append((sides[tail >> 1], sides[head >> 1], bool(tail & 1), bool(head & 1),
                     *rng.choice(_BLOCK_FLOATS, size=3).tolist()))
    return rule_oracle.make_table(rows)


def _repetitive_table(n_rules):
    """``n_rules`` rules over 7,000 itemsets of one to four 4-10 letter words,
    with as many distinct metric floats as the 441k rules mined from
    perfbench's ``mine`` corpus (seed 0) with itemsets up to size 4 and
    ``idf_max`` 3.0 have: 1,600 supports, and about 0.08 confidences and
    0.12 lifts per rule."""
    rng = np.random.default_rng(1)
    letters = np.array(list("acdeilmnoprstu"))
    words = ["".join(rng.choice(letters, size=int(rng.integers(4, 11)))) for _ in range(60)]
    itemsets = sorted({tuple(sorted(set(rng.choice(words, size=int(rng.integers(1, 5))).tolist())))
                       for _ in range(7_000)})

    def metric(distinct):
        return rng.choice(rng.uniform(0.0, 3.0, size=distinct), size=n_rules)

    return rules.RuleTable(
        tuple(itemsets), rng.integers(0, len(itemsets), size=n_rules),
        rng.integers(0, len(itemsets), size=n_rules),
        rng.random(n_rules) < 0.5, rng.random(n_rules) < 0.5,
        metric(1_600), metric(n_rules * 8 // 100), metric(n_rules * 12 // 100))


class _ByteCounter:
    """A binary file that keeps only the count of its writes and bytes."""

    def __init__(self):
        self.writes = self.count = 0

    def write(self, data):
        self.writes += 1
        self.count += len(data)


class TestExport:
    def test_par_graph_structure(self):
        dot = written(export_rule_graph, rule_oracle.make_table([PAR])).decode()
        assert dot.count('";') == 2  # two node lines
        assert '"a" -> "b" [label="s=0.750 c=1.000 l=1.333"];' in dot
        assert "dashed" not in dot

    def test_nar_dashed_and_prefixed(self):
        dot = written(export_rule_graph, rule_oracle.make_table([NAR])).decode()
        assert '"¬c"' in dot
        assert "style=dashed" in dot

    def test_empty_graph_is_valid(self):
        assert written(export_rule_graph, rule_oracle.make_table([])).decode() == \
            "digraph rules {\n}\n"

    def test_dot_byte_stable(self, toy_transactions):
        config = MiningConfig(minsupp=0.5, mincnf=0.8, idf_min=0.0, idf_max=10.0)
        first = written(export_rule_graph, fisinfis_mine(toy_transactions, config))
        second = written(export_rule_graph, fisinfis_mine(toy_transactions, config))
        assert first == second

    def test_csv_format(self):
        text = written(rules_to_csv, rule_oracle.make_table([PAR, NAR])).decode()
        lines = text.splitlines()
        assert lines[0] == "antecedent,consequent,neg_a,neg_c,support,confidence,lift"
        assert lines[1] == "a,b,0,0,0.750000,1.000000,1.333333"
        assert lines[2] == "a,c,0,1,0.750000,1.000000,1.333333"

    def test_csv_quotes_like_csv_module(self):
        row = (("TAG,X", "a"), ('d"e',), True, False, 0.5, 0.6, 1.2)
        line = written(rules_to_csv, rule_oracle.make_table([row])).decode().splitlines()[1]
        assert line == '"TAG,X+a","d""e",1,0,0.500000,0.600000,1.200000'

    @settings(max_examples=60, deadline=None)
    @given(item_sets=st.lists(st.sets(st.sampled_from(EXPORT_ITEMS), min_size=1, max_size=5),
                              min_size=2, max_size=25),
           minsupp=st.sampled_from([0.05, 0.2, 1.0]),
           require_lift_gt1=st.booleans())
    def test_columns_match_object_oracle(self, item_sets, minsupp, require_lift_gt1):
        txs = [Transaction(str(i), frozenset(s)) for i, s in enumerate(item_sets)]
        config = MiningConfig(minsupp=minsupp, mincnf=0.3, idf_min=0.0, idf_max=10.0,
                              max_itemset_size=3, require_lift_gt1=require_lift_gt1)
        table = fisinfis_mine(txs, config)
        objects = export_oracle.rows(table)
        assert written(rules_to_csv, table).decode() == export_oracle.rules_to_csv(objects)
        assert written(export_rule_graph, table).decode() == \
            export_oracle.export_rule_graph(objects)

    @settings(max_examples=200, deadline=None)
    @given(rows=_adversarial_rows())
    @example(rows=[(("a",), ("b,c",), False, False, 0.0, -0.0, 0.0005),
                   (("b,c",), ("a",), True, False, -0.0, 0.0, math.nan)])
    def test_adversarial_table_matches_object_oracle(self, rows):
        table = rule_oracle.make_table(rows)
        objects = export_oracle.rows(table)
        assert written(rules_to_csv, table).decode() == export_oracle.rules_to_csv(objects)
        assert written(export_rule_graph, table).decode() == \
            export_oracle.export_rule_graph(objects)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(
               st.floats(),  # NaN, the infinities and -0.0 included
               st.floats(-3.0, 3.0),
               # k / 2000 lies half-way between two 3-decimal strings, and
               # its float neighbours round either way
               st.builds(lambda k, side: float(np.nextafter(k / 2000, side)),
                         st.integers(-6000, 6000),
                         st.sampled_from((-math.inf, 0.0, math.inf))),
               st.integers(-6000, 6000).map(lambda k: k / 2000)),
               max_size=80),
           template=st.sampled_from(("s=%.3f", " c=%.3f", "%.1f", "%.0f", b" l=%.3f")))
    @example(values=[0.0005, 0.0015, -0.0005, -0.0, 0.0, math.nan, math.inf, -math.inf,
                     0.0004999999999999999, 2.5, 2.5], template=" l=%.3f")
    def test_rounded_formatting_matches_distinct(self, values, template):
        values = np.array(values, dtype=np.float64)
        keys, position = _kernels._distinct_index(values)
        got = rules._format_rounded(keys, template)[position]
        assert got.dtype == object and got.shape == values.shape
        assert got.tolist() == _kernels._format_distinct(keys, template)[position].tolist()
        assert got.tolist() == [template % v for v in values.tolist()]

    @pytest.mark.parametrize("export", [rules_to_csv, export_rule_graph])
    def test_peak_memory_is_a_few_outputs(self, export):
        # the in-memory file that collects the bytes is counted too
        table = _mined_shaped_table()
        assert 40_000 < len(table) < 60_000
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            text = written(export, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(text)

    @pytest.mark.parametrize("export", [rules_to_csv, export_rule_graph])
    def test_peak_memory_is_distinct_values_and_a_block(self, export):
        # a file's worth of text, or one string per row, would exceed half
        # the bytes written; the distinct strings and one block stay below
        table = _repetitive_table(250_000)
        sink = _ByteCounter()
        tracemalloc.start()
        try:
            export(table, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sink.count / 2

    @pytest.mark.parametrize("n_rules", [0, 1, rules.EXPORT_ROWS - 1, rules.EXPORT_ROWS,
                                         rules.EXPORT_ROWS + 1, 3 * rules.EXPORT_ROWS + 5])
    def test_blocks_match_object_oracle(self, n_rules):
        table = _edge_case_table(n_rules)
        assert len(table) == n_rules
        objects = export_oracle.rows(table)
        assert written(rules_to_csv, table) == \
            export_oracle.rules_to_csv(objects).encode("utf-8")
        assert written(export_rule_graph, table) == \
            export_oracle.export_rule_graph(objects).encode("utf-8")

    def test_equal_node_pairs_keep_table_order(self):
        # "¬f" names both the itemset ("¬f",) and the negated ("f",): 300
        # edges share one (tail, head) pair and must keep the table's order
        rows = [((("¬f",), ("f",))[i % 2], ("a",), i % 2 == 1, False, i / 1000, 0.5, 2.0)
                for i in range(300)]
        rows.append((("a",), ("b",), False, False, 0.5, 0.5, 2.0))
        dot = written(export_rule_graph, rule_oracle.make_table(rows)).decode()
        edges = [line for line in dot.splitlines() if " -> " in line]
        assert edges[0] == '  "a" -> "b" [label="s=0.500 c=0.500 l=2.000"];'
        ends = ('"];', '", style=dashed];')
        assert edges[1:] == [f'  "¬f" -> "a" [label="s={i / 1000:.3f} c=0.500 l=2.000{ends[i % 2]}'
                             for i in range(300)]

    def test_each_block_is_one_write(self, monkeypatch):
        # blocks of 3 + 3 + 1 rules, after the CSV header, or between the DOT
        # header and nodes and its closing brace
        monkeypatch.setattr(rules, "EXPORT_ROWS", 3)
        table = _edge_case_table(7)
        for export, other_writes in ((rules_to_csv, 1), (export_rule_graph, 3)):
            sink = _ByteCounter()
            export(table, sink)
            assert sink.writes == other_writes + 3

    def test_empty_table_matches_object_oracle(self, toy_transactions):
        config = MiningConfig(minsupp=1.0, mincnf=0.8, idf_min=0.0, idf_max=10.0)
        table = fisinfis_mine(toy_transactions, config)
        assert len(table) == 0
        assert written(rules_to_csv, table).decode() == export_oracle.rules_to_csv([])
        assert written(export_rule_graph, table).decode() == \
            export_oracle.export_rule_graph([])


class TestItemset:
    def test_normalizes(self):
        assert Itemset(["b", "a", "b"]).items == ("a", "b")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Itemset([])


class TestMiningConfig:
    def test_band_must_be_ordered(self):
        with pytest.raises(ValueError):
            MiningConfig(idf_min=1.0, idf_max=0.5)

    def test_minsupp_range(self):
        with pytest.raises(ValueError):
            MiningConfig(minsupp=0.0)

    def test_default_band_ceiling_is_checked_when_mining(self, toy_transactions):
        # ln(4) - 0.1 = 1.286 caps the band; 1.3 lies above it
        config = MiningConfig(idf_min=1.3)
        with pytest.raises(ValueError, match="idf_max must be > idf_min"):
            fisinfis_mine(toy_transactions, config)
        assert len(fisinfis_mine(toy_transactions, MiningConfig(idf_min=1.2))) == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sets(st.sampled_from("abcdef"), min_size=1, max_size=4),
                min_size=2, max_size=20))
def test_metric_identity_property(item_sets):
    txs = [Transaction(str(i), frozenset(s)) for i, s in enumerate(item_sets)]
    config = MiningConfig(minsupp=0.1, mincnf=0.2, idf_min=0.0, idf_max=10.0,
                          max_itemset_size=3)
    n = len(txs)
    for _, cons, _, neg_c, _, conf, lift in rule_oracle.rule_rows(fisinfis_mine(txs, config)):
        count_b = 0
        for t in txs:
            present = set(cons) <= t.items
            count_b += present != neg_c
        p_b = count_b / n
        assert abs(lift * p_b - conf) < 1e-12
