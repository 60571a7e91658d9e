import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from incmine import _kernels, rules
from incmine.corpus import Transaction
from incmine.rules import (
    EmptyTransactionListError,
    Itemset,
    ItemAbsentError,
    MiningConfig,
    RulesError,
    UndefinedConfidenceError,
    UndefinedLiftError,
    export_rule_graph,
    fisinfis_mine,
    idf,
    rule_metrics,
    rules_to_csv,
    support,
)
from apriori_oracle import apriori_frequent
import export_oracle
import rule_oracle
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
        with pytest.raises(EmptyTransactionListError):
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
        with pytest.raises(UndefinedConfidenceError):
            rule_metrics(iset("z"), iset("a"), False, False, toy_transactions)

    def test_undefined_lift(self, toy_transactions):
        # consequent event "not c present in some transaction"... b absent everywhere
        with pytest.raises(UndefinedLiftError):
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
        assert abs(idf("a", toy_transactions) - math.log(4 / 3)) < 1e-12
        assert abs(idf("a", toy_transactions) - 0.287682) < 1e-6

    def test_universal_item_is_zero(self):
        txs = [Transaction(str(i), frozenset({"x", f"y{i}"})) for i in range(5)]
        assert idf("x", txs) == 0.0

    def test_hapax_in_thousand(self):
        txs = [Transaction(str(i), frozenset({"filler"})) for i in range(999)]
        txs.append(Transaction("999", frozenset({"raro"})))
        assert abs(idf("raro", txs) - math.log(1000)) < 1e-12
        assert abs(idf("raro", txs) - 6.907755) < 1e-6

    def test_absent_item(self, toy_transactions):
        with pytest.raises(ItemAbsentError):
            idf("z", toy_transactions)


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
        monkeypatch.setattr(_kernels, "SUPPORT_CHUNK", 4)
        presence = rng.random(size=(70, 6)) < 0.5
        cands = rng.integers(0, 6, size=(10, 2))
        assert (_kernels.support_counts(presence, cands)
                == support_counts_loop(presence, cands)).all()


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
        return _recorded(self.calls, fn) if name in ("concatenate", "unique") else fn


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
        with pytest.raises(EmptyTransactionListError):
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
        assert rules_to_csv(fisinfis_mine(txs, config)) == rules_to_csv(mined)
        assert set(built) == {"concatenate", "unique", "RuleTable"}  # the spy sees the output
        built.clear()
        monkeypatch.setattr(rules, "MAX_RULES", len(mined) - 1)
        with pytest.raises(RulesError, match=f"more than {len(mined) - 1} rules"):
            fisinfis_mine(txs, config)
        assert built == []  # refused before any output column or itemset tuple

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


class TestExport:
    def test_par_graph_structure(self):
        dot = export_rule_graph(rule_oracle.make_table([PAR]))
        assert dot.count('";') == 2  # two node lines
        assert '"a" -> "b" [label="s=0.750 c=1.000 l=1.333"];' in dot
        assert "dashed" not in dot

    def test_nar_dashed_and_prefixed(self):
        dot = export_rule_graph(rule_oracle.make_table([NAR]))
        assert '"¬c"' in dot
        assert "style=dashed" in dot

    def test_empty_graph_is_valid(self):
        assert export_rule_graph(rule_oracle.make_table([])) == "digraph rules {\n}\n"

    def test_dot_byte_stable(self, toy_transactions):
        config = MiningConfig(minsupp=0.5, mincnf=0.8, idf_min=0.0, idf_max=10.0)
        first = export_rule_graph(fisinfis_mine(toy_transactions, config))
        second = export_rule_graph(fisinfis_mine(toy_transactions, config))
        assert first == second

    def test_csv_format(self):
        text = rules_to_csv(rule_oracle.make_table([PAR, NAR]))
        lines = text.splitlines()
        assert lines[0] == "antecedent,consequent,neg_a,neg_c,support,confidence,lift"
        assert lines[1] == "a,b,0,0,0.750000,1.000000,1.333333"
        assert lines[2] == "a,c,0,1,0.750000,1.000000,1.333333"

    def test_csv_quotes_like_csv_module(self):
        row = (("TAG,X", "a"), ('d"e',), True, False, 0.5, 0.6, 1.2)
        line = rules_to_csv(rule_oracle.make_table([row])).splitlines()[1]
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
        assert rules_to_csv(table) == export_oracle.rules_to_csv(objects)
        assert export_rule_graph(table) == export_oracle.export_rule_graph(objects)

    def test_empty_table_matches_object_oracle(self, toy_transactions):
        config = MiningConfig(minsupp=1.0, mincnf=0.8, idf_min=0.0, idf_max=10.0)
        table = fisinfis_mine(toy_transactions, config)
        assert len(table) == 0
        assert rules_to_csv(table) == export_oracle.rules_to_csv([])
        assert export_rule_graph(table) == export_oracle.export_rule_graph([])


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
