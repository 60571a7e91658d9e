"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import math
import os
import time

import numpy as np

from incmine import _kernels, langmodel as lm
from incmine.cli import main as cli_main
from incmine.clustering import (
    VARIANCE_THRESHOLD,
    ClusterConfig,
    ipca_fit,
    pairwise_distances,
    reduce_to_variance,
    sweep_k,
)
from incmine.corpus import Transaction
from incmine.rules import (
    Itemset,
    MiningConfig,
    export_rule_graph,
    fisinfis_mine,
    rule_metrics,
)
from incmine.vectors import tfidf_matrix

from apriori_oracle import apriori_frequent
import rule_oracle
from export_oracle import written
from helpers import FIXTURE_ROWS, term_columns
from lm_fixtures import (NO_STOPWORDS, gradcheck_fixture, max_relative_fd_error,
                         overfit_fixture)
from test_clustering import exhaustive_two_medoids, principal_angles, small_fixture_suite


def _report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{suffix}")


def test_c01_rule_mining_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(100):
        txs = rule_oracle.random_transactions(rng, max_items=12, max_tx=64)
        config = rule_oracle.random_config(rng, len(txs))
        mined = rule_oracle.mined_to_dict(fisinfis_mine(txs, config))
        want = rule_oracle.enumerate_rules(txs, config)
        assert mined.keys() == want.keys()
        for key, metrics in want.items():
            for got, expected in zip(mined[key], metrics):
                assert abs(got - expected) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(1, "rule-mining oracle equivalence", f"100 corpora in {elapsed:.1f}s")


def test_c02_metric_identities():
    rng = np.random.default_rng(202)
    fixtures = [[Transaction(str(i), frozenset(s)) for i, s in
                 enumerate([{"a", "b"}, {"a", "b"}, {"a", "b"}, {"c"}])]]
    fixtures += [rule_oracle.random_transactions(rng, max_items=9, max_tx=40)
                 for _ in range(10)]
    checked = 0
    for txs in fixtures:
        n = len(txs)
        config = MiningConfig(minsupp=0.1, mincnf=0.2, idf_min=0.0,
                              idf_max=10.0, max_itemset_size=3)
        for ant, cons, neg_a, neg_c, supp, conf, lift in rule_oracle.rule_rows(
                fisinfis_mine(txs, config)):
            count_b = sum(1 for t in txs if (set(cons) <= t.items) != neg_c)
            p_b = count_b / n
            assert abs(lift * p_b - conf) < 1e-12
            # independent single-pass computation must agree exactly
            direct = rule_metrics(Itemset(ant), Itemset(cons), neg_a, neg_c, txs)
            assert abs(direct.support - supp) < 1e-12
            assert abs(direct.confidence - conf) < 1e-12
            assert abs(direct.lift - lift) < 1e-12
            checked += 1
        for item in sorted({i for t in txs for i in t.items}):
            p = rule_oracle.support(Itemset([item]), txs)
            p_not = sum(1 for t in txs if item not in t.items) / n
            assert abs(p_not - (1.0 - p)) < 1e-12
    assert checked > 50
    _report(2, "support/confidence/lift identities", f"{checked} rules")


def test_c03_apriori_anti_monotonicity():
    rng = np.random.default_rng(303)
    for _ in range(100):
        txs = rule_oracle.random_transactions(rng, max_items=10, max_tx=48)
        minsupp = float(rng.uniform(0.05, 0.5))
        result = apriori_frequent(txs, minsupp, 4)
        supports = {i.items: s for i, s in result}
        for items, supp in supports.items():
            for size in range(1, len(items)):
                for sub in itertools.combinations(items, size):
                    assert sub in supports
                    assert supports[sub] >= supp - 1e-15
    _report(3, "apriori anti-monotonicity", "100 corpora, subsets exhaustive")


def test_c04_idf_band_filters_extremes():
    rng = np.random.default_rng(404)
    for _ in range(20):
        txs = rule_oracle.random_transactions(rng, max_items=8, max_tx=30)
        n = len(txs)
        # plant a universal item and a hapax
        txs = [Transaction(t.id, t.items | {"ovunque"}) for t in txs]
        txs[0] = Transaction(txs[0].id, txs[0].items | {"unico"})
        config = MiningConfig(minsupp=0.05, mincnf=0.2, idf_min=0.1,
                              idf_max=math.log(n) - 0.05, max_itemset_size=3)
        assert config.idf_max < math.log(n)
        for items in fisinfis_mine(txs, config).itemsets:
            assert "ovunque" not in items  # idf 0 < idf_min
            assert "unico" not in items    # idf ln(n) > idf_max
    _report(4, "IDF band excludes universal and hapax items")


def test_c05_tfidf_fixture_and_idf_consistency():
    docs = [{"cade": 1, "scala": 1}, {"cade": 1, "martello": 1}]
    index = term_columns(docs)
    dense = tfidf_matrix(docs).toarray()
    assert abs(dense[0, index["scala"]] - math.log(2)) < 1e-12
    assert abs(dense[1, index["martello"]] - math.log(2)) < 1e-12
    assert dense[0, index["cade"]] == 0.0
    double = [{"raro": 2, "comune": 1}, {"comune": 1}]
    idx2 = term_columns(double)
    dense2 = tfidf_matrix(double).toarray()
    assert abs(dense2[0, idx2["raro"]] - 2 * math.log(2)) < 1e-12

    rng = np.random.default_rng(505)
    txs = rule_oracle.random_transactions(rng, max_items=10, max_tx=30)
    docs_bin = [{item: 1 for item in sorted(t.items)} for t in txs]
    idx3 = term_columns(docs_bin)
    dense3 = tfidf_matrix(docs_bin).toarray()
    for i, t in enumerate(txs):
        for item in t.items:
            assert abs(dense3[i, idx3[item]]
                       - rule_oracle.idf_of(item, txs)) < 1e-12
    _report(5, "tf-idf fixture weights and rules.idf consistency")


def test_c06_pam_swap_descent_optimum_and_blobs():
    # strict descent across SWAP passes on an instance that actually swaps
    passes = 0
    for attempt in range(300):
        local = np.random.default_rng(attempt)
        pts = local.normal(size=(14, 2)) + np.repeat(
            local.normal(scale=4.0, size=(3, 2)), (5, 5, 4), axis=0)
        dist = pairwise_distances(pts, "euclidean")
        build = _kernels.pam_build(dist, 3)
        _, passes = _kernels.pam_swap(dist, build, 100, _kernels.SwapSums(len(dist)))
        if passes >= 2:
            break
    assert passes >= 2
    costs = []
    for cap in range(passes + 1):
        med, _ = _kernels.pam_swap(dist, build, cap, _kernels.SwapSums(len(dist)))
        costs.append(float(_kernels.assign_to_medoids(dist, np.sort(med))[1].sum()))
    assert all(costs[i + 1] < costs[i] for i in range(len(costs) - 1))

    # exhaustive optimum on the deterministic n <= 10, k = 2 fixture suite
    for pts in small_fixture_suite():
        dist = pairwise_distances(pts, "euclidean")
        best_cost, _ = exhaustive_two_medoids(dist)
        fit, _ = sweep_k(pts, ClusterConfig(k_range=(2, 2)))
        assert abs(fit.cost - best_cost) < 1e-9

    # separated blobs: sweep over [2, 5] recovers the ground truth at k = 2
    rng = np.random.default_rng(606)
    blobs = np.vstack([rng.normal(size=(12, 3)),
                       rng.normal(size=(12, 3)) + 10.0])
    truth = np.array([0] * 12 + [1] * 12)
    best, report = sweep_k(blobs, ClusterConfig(k_range=(2, 5)))
    assert len(best.medoids) == 2
    aligned = best.labels if best.labels[0] == 0 else 1 - best.labels
    assert (aligned == truth).all()
    assert [k for k, _ in report.fits] == [2, 3, 4, 5]
    _report(6, "PAM descent, small-instance optimality, blob recovery")


def test_c07_ipca_against_batch_pca():
    rng = np.random.default_rng(707)
    data = rng.normal(size=(500, 32)) * np.linspace(2.5, 0.3, 32)
    model = ipca_fit(data, batch_size=64)
    centered = data - data.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    ratios = s ** 2 / (s ** 2).sum()
    m = 12
    assert principal_angles(model.components[:m], vt[:m]).max() < 1e-3
    assert np.abs(model.explained_variance_ratio[:m] - ratios[:m]).max() < 1e-3

    t = np.linspace(-3.0, 3.0, 50)
    line = np.stack([t, 2.0 * t], axis=1)
    _, m_line = reduce_to_variance(ipca_fit(line, batch_size=9), line, 0.85)
    assert m_line == 1
    iso = np.random.default_rng(42).normal(size=(1000, 2))
    _, m_iso = reduce_to_variance(ipca_fit(iso, batch_size=128), iso, 0.85)
    assert m_iso == 2
    _report(7, "incremental PCA matches batch PCA", "angles < 1e-3")


def test_c08_lm_gradient_check():
    start = time.perf_counter()
    model, ids, targets = gradcheck_fixture()
    worst = max_relative_fd_error(model, ids, targets, coords_per_tensor=12,
                                  fd_rng=np.random.default_rng(808))
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 60.0
    _report(8, "LM analytic vs finite-difference gradients",
            f"max rel err {worst:.2e} in {elapsed:.1f}s")


def test_c09_lm_overfit_and_prediction():
    start = time.perf_counter()
    corpus, pre, vocab, config, ids, targets = overfit_fixture(epochs=200)
    model, history = lm.train(ids, targets, config, vocab, pre)
    elapsed = time.perf_counter() - start
    assert history[-1] < 0.1 * history[0]
    for dynamics, consequence in zip(corpus.dynamics, corpus.consequences):
        top = lm.predict_consequence(model, dynamics, top_k=1)
        assert top[0][0] == consequence
    assert elapsed < 120.0
    _report(9, "LM overfit fixture",
            f"loss {history[0]:.3f} -> {history[-1]:.4f} in {elapsed:.1f}s")


def test_c10_determinism_and_roundtrips(tmp_path):
    corpus_path = tmp_path / "corpus.csv"
    lines = ["id,dynamics,consequence"]
    lines += [",".join(row) for row in FIXTURE_ROWS]
    corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run_all(out):
        assert cli_main(["mine-rules", "--corpus", str(corpus_path),
                         "--minsupp", "0.15", "--output-dir", out,
                         "--no-stopwords"]) == 0
        assert cli_main(["cluster-tfidf", "--corpus", str(corpus_path),
                         "--k", "3", "--output-dir", out,
                         "--no-stopwords"]) == 0
        assert cli_main(["train-lm", "--corpus", str(corpus_path),
                         "--vocab-size", "48", "--embed-dim", "6",
                         "--recurrent-units", "4", "--dense-units", "6",
                         "--dropout", "0.5", "--seq-len", "6",
                         "--epochs", "2", "--seed", "5", "--no-stopwords",
                         "--output-dir", out]) == 0
        assert cli_main(["predict", "--model", os.path.join(out, "model"),
                         "--text", "operaio scivola su scala bagnata",
                         "--output-dir", out]) == 0

    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    run_all(out_a)
    run_all(out_b)
    compared = []
    for root, _, files in os.walk(out_a):
        for fname in sorted(files):
            rel = os.path.relpath(os.path.join(root, fname), out_a)
            with open(os.path.join(out_a, rel), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(out_b, rel), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, f"output differs: {rel}"
            compared.append(rel)
    assert "rules.dot" in compared and "model/manifest.json" in [
        c.replace(os.sep, "/") for c in compared]

    # model round-trip reproduces eval forward exactly
    model = lm.load_model(os.path.join(out_a, "model"))
    lm.save_model(model, os.path.join(out_a, "model2"))
    again = lm.load_model(os.path.join(out_a, "model2"))
    ids = lm.encode(["operaio", "scivola"], model.vocab, model.config.seq_len)
    assert np.array_equal(lm.forward(model, ids), lm.forward(again, ids))

    # DOT text byte-stable across repeated in-process exports
    txs = [Transaction(str(i), frozenset(s)) for i, s in
           enumerate([{"a", "b"}, {"a", "b"}, {"a", "b"}, {"c"}])]
    config = MiningConfig(minsupp=0.5, mincnf=0.8, idf_min=0.0, idf_max=10.0)
    assert written(export_rule_graph, fisinfis_mine(txs, config)) == \
        written(export_rule_graph, fisinfis_mine(txs, config))
    _report(10, "byte-identical CLI reruns and artifact round-trip",
            f"{len(compared)} files compared")


def test_c11_paper_default_configuration():
    config = lm.LmConfig()
    assert config.vocab_size == 5000
    assert config.embed_dim == 128
    assert config.recurrent_units == 100
    assert config.dense_units == 50
    assert config.dropout_rate == 0.5
    assert VARIANCE_THRESHOLD == 0.85
    cluster = ClusterConfig(k_range=(2, 100))  # validates the paper's k sweep
    assert cluster.k_range == (2, 100)

    vocab = lm.LmVocabulary([lm.PAD_TOKEN, lm.UNK_TOKEN] +
                            [f"tok{i:04d}" for i in range(4998)])
    model = lm.LmModel.initialized(config, vocab, NO_STOPWORDS, np.random.default_rng(0))
    u = config.recurrent_units
    assert model.params["embedding"].shape == (5000, 128)
    assert model.params["lstm1_fw_wx"].shape == (128, 4 * u)
    assert model.params["lstm2_fw_wx"].shape == (2 * u, 4 * u)
    assert model.params["dense1_w"].shape == (config.seq_len * 2 * u, 50)
    assert model.params["dense2_w"].shape == (50, 50)
    assert model.params["out_w"].shape == (50, 5000)
    probs = lm.forward(model, np.zeros(config.seq_len, dtype=np.int64))
    assert probs.shape == (5000,)
    assert ((probs > 0.0) & (probs < 1.0)).all()

    # the sweep range is valid against a desk-scale stand-in matrix
    stand_in = np.random.default_rng(1).normal(size=(120, 8))
    lo, hi = cluster.k_range
    assert 2 <= lo <= hi <= stand_in.shape[0]
    _report(11, "stock configuration constructs at full scale")
