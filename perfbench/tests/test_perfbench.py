"""Tests of the benchmark's own code: generator, tracer and output checks.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import csv
import io
import json
import struct
import sys
import types

import numpy as np
import pytest

import checks
import inputs
import run
from tracer import Tracer


# -- generator --------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda seed: inputs.corpus_csv(seed, 300),
    inputs.ontology_tsv,
    lambda seed: inputs.embeddings_bin(seed, 60),
])
def test_same_seed_same_bytes_other_seed_other_bytes(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_corpus_has_placeholders_stopwords_and_accents():
    rows = list(csv.reader(io.StringIO(inputs.corpus_csv(3, 1000).decode("utf-8"))))
    assert rows[0] == ["id", "dynamics", "consequence"]
    dynamics = [r[1] for r in rows[1:]]
    assert sum(d in inputs.PLACEHOLDERS for d in dynamics) == 10
    words = " ".join(dynamics).lower().split()
    assert set(inputs.STOPWORDS) & set(words)
    assert any(ch in "àèìòù" for ch in "".join(dynamics))
    assert any("\u0300" in d for d in dynamics)  # some accents written decomposed (NFD)


def test_band_keeps_exactly_the_head_words():
    from incmine import corpus
    path_rows = inputs.corpus_csv(11, 3000).decode("utf-8")
    records = [r for r in list(csv.reader(io.StringIO(path_rows)))[1:]
               if r[1] not in inputs.PLACEHOLDERS]
    pre = corpus.PreprocessConfig(stopwords=corpus.default_stopwords())
    df = {}
    for r in records:
        for tok in set(corpus.preprocess(r[1], pre)):
            df[tok] = df.get(tok, 0) + 1
    n = len(records)
    kept = [t for t, d in df.items() if 0.1 <= np.log(n / d) <= 4.0]
    assert len(kept) == inputs.HEAD_WORDS


def test_embeddings_reduce_to_the_planted_dims():
    from incmine import clustering
    blob = inputs.embeddings_bin(5, 400)
    n, d = struct.unpack("<QQ", blob[:16])
    values = np.frombuffer(blob[16:], dtype="<f4").reshape(n, d).astype(np.float64)
    model = clustering.ipca_fit(values, batch_size=100)
    _, dims = clustering.reduce_to_variance(model, values, 0.85)
    assert dims == inputs.EMBED_REDUCED_DIMS


# -- tracer -----------------------------------------------------------------

class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_duration_minus_children():
    # outer 0..10 holds inner 1..3 and inner 4..7: outer self 5, inner self 5
    tracer = Tracer(targets=(), clock=_Clock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    inner = tracer.wrap(lambda: None, "inner_s")

    def outer_body():
        inner()
        inner()
        return "done"

    outer = tracer.wrap(outer_body, "outer_s")
    assert outer() == "done"
    report = tracer.report()
    assert report["self_s"] == {"outer_s": 5.0, "inner_s": 5.0}
    spans = {span[0]: span for span in report["spans"]}
    assert spans[0] == (0, -1, "outer_s", 0.0, 10.0)
    assert spans[1] == (1, 0, "inner_s", 1.0, 3.0)
    assert spans[2] == (2, 0, "inner_s", 4.0, 7.0)


def test_counter_reads_arguments_and_return_value():
    def count(counts, args, result):
        counts["rows"] += args[0].shape[0]
        counts["passes"] += result[1]

    tracer = Tracer(targets=())
    fn = tracer.wrap(lambda a: (a, 3), "kernel_s", count)
    fn(np.zeros((4, 2)))
    fn(np.zeros((5, 2)))
    assert tracer.report()["counts"] == {"rows": 9, "passes": 6}


def test_span_closes_when_the_call_raises():
    tracer = Tracer(targets=(), clock=_Clock([0.0, 2.0]))

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom_s")()
    assert tracer.report()["self_s"] == {"boom_s": 2.0}


def test_absent_targets_are_reported_not_raised(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.present = lambda: 1
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer(targets=(("fake_layer", "present", "present_s", None),
                             ("fake_layer", "removed", "removed_s", None),
                             ("fake_layer", "Gone.method", "gone_s", None),
                             ("no_such_module_anywhere", "f", "f_s", None)))
    tracer.install()
    try:
        assert module.present() == 1
    finally:
        tracer.uninstall()
    assert tracer.absent == ["fake_layer.removed", "fake_layer.Gone.method",
                             "no_such_module_anywhere.f"]
    assert "present_s" in tracer.report()["self_s"]
    assert not hasattr(module.present, "__wrapped__")


def test_counter_error_is_recorded_not_raised():
    tracer = Tracer(targets=())
    fn = tracer.wrap(lambda: None, "x_s", lambda counts, args, result: result.shape)
    fn()
    assert tracer.report()["counter_errors"]


def test_every_wrap_target_exists_in_the_program():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == []


# -- output checks ----------------------------------------------------------

@pytest.fixture
def mined(tmp_path):
    """rules.csv and rules.dot from the CLI on a small generated corpus."""
    from incmine import cli, corpus
    path = tmp_path / "corpus.csv"
    path.write_bytes(inputs.corpus_csv(2, 400))
    out = tmp_path / "out"
    assert cli.main(["mine-rules", "--corpus", str(path), "--max-itemset-size", "2",
                     "--idf-max", "4.0", "--output-dir", str(out)]) == 0
    pre = corpus.PreprocessConfig(stopwords=corpus.default_stopwords())
    txs = corpus.to_transactions(corpus.load_corpus(str(path)), pre).transactions
    return out, txs


def test_rules_check_passes_on_real_output(mined):
    out, txs = mined
    assert checks.guarded(checks.check_rules, str(out), txs) == []


def test_corrupted_rule_metric_is_a_failure(mined):
    out, txs = mined
    lines = (out / "rules.csv").read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    fields[4] = "0.999999"
    lines[1] = ",".join(fields)
    (out / "rules.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = checks.guarded(checks.check_rules, str(out), txs)
    assert problems and "row 2" in problems[0]


def test_truncated_output_is_a_failure_not_an_exception(mined):
    out, txs = mined
    (out / "rules.csv").write_text("antecedent,consequent,neg_a,neg_c,support,confidence,lift\n"
                                   "a,b,0\n", encoding="utf-8")
    problems = checks.guarded(checks.check_rules, str(out), txs)
    assert problems and "raised" in problems[0]
    (out / "rules.csv").unlink()
    assert checks.guarded(checks.check_rules, str(out), txs)


def _write_clusters(directory, labels, table, k=2, silhouette=None):
    with open(directory / "clusters.csv", "w", encoding="utf-8") as fh:
        fh.write("id,cluster\n" + "".join(f"{i},{c}\n" for i, c in labels))
    best = max(s for _, _, s in table) if silhouette is None else silhouette
    (directory / "cluster_summary.json").write_text(json.dumps(
        {"k": k, "silhouette": best, "medoid_ids": ["0", "1"][:k],
         "per_k_table": table}), encoding="utf-8")


def test_cluster_checks(tmp_path):
    table = [[2, 1.0, 0.5], [3, 0.8, 0.5]]
    ids = ["a", "b", "c"]
    _write_clusters(tmp_path, [("a", 0), ("b", 1), ("c", 1)], table)
    assert checks.check_clusters(str(tmp_path), ids) == []
    # a missing row, a label out of range, and a best k that is not the first maximum
    _write_clusters(tmp_path, [("a", 0), ("b", 2)], table, k=2)
    assert len(checks.check_clusters(str(tmp_path), ids)) == 2
    _write_clusters(tmp_path, [("a", 0), ("b", 1), ("c", 1)], table, k=3)
    assert any("picks" in p for p in checks.check_clusters(str(tmp_path), ids))


def test_prediction_checks(tmp_path):
    path = tmp_path / "prediction.json"
    vocab = {"<pad>", "<unk>"} | {f"w{i}" for i in range(20)}
    top = [[f"w{i}", 0.9 - i * 0.01] for i in range(10)]
    path.write_text(json.dumps({"text": "t", "top": top}), encoding="utf-8")
    assert checks.check_prediction(str(path), "t", vocab) == []
    top[3][0] = "<unk>"
    top[5][1] = 0.99
    path.write_text(json.dumps({"text": "t", "top": top}), encoding="utf-8")
    assert len(checks.check_prediction(str(path), "t", vocab)) == 2
    path.write_text("{", encoding="utf-8")
    assert checks.guarded(checks.check_prediction, str(path), "t", vocab)


def test_reference_comparison():
    ref = {"clusters.csv": "abc", "loss": 0.5}
    assert checks.compare_reference({"clusters.csv": "abc", "loss": 0.5002}, ref) == []
    assert len(checks.compare_reference({"clusters.csv": "abd", "loss": 0.6}, ref)) == 2
    assert checks.compare_reference({"clusters.csv": "x"}, None) == []


# -- runner -----------------------------------------------------------------

def test_run_refuses_without_program_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "mine", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
