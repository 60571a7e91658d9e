import argparse
import contextlib
import csv
import errno
import inspect
import io
import json
import math
import os
import re
import resource
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from incmine import cli, clustering, corpus, errors, langmodel, rules
from incmine.cli import build_parser, main, parse_config_file
from incmine.errors import IncmineError
from incmine.langmodel import LmConfig

from helpers import FIXTURE_ROWS, plain_and_bom, save_embeddings
from export_oracle import written


def run(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def tree(root):
    """Every entry under ``root`` by relative path: a file's bytes, or None
    for a directory."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            found[os.path.relpath(path, root)] = None if name in dirnames else read(path)
    return found


def assert_k_forms_identical(tmp_path, argv, k):
    """``--k K``, ``--k-range K K`` and ``clustering.k = K`` write the same
    clusters.csv and cluster_summary.json: a fixed k is the one-k range."""
    cfg = tmp_path / "k.cfg"
    cfg.write_text(f"clustering.k = {k}\n", encoding="utf-8")
    forms = {"flag": ["--k", str(k)], "range": ["--k-range", str(k), str(k)],
             "config": ["--config", str(cfg)]}
    outs = {}
    for name, extra in forms.items():
        out = str(tmp_path / name)
        assert run(*argv, *extra, "--output-dir", out) == 0
        outs[name] = [read(os.path.join(out, fname))
                      for fname in ("clusters.csv", "cluster_summary.json")]
    assert outs["flag"] == outs["range"] == outs["config"]
    summary = json.loads(outs["flag"][1])
    assert summary["k"] == k and summary["per_k_table"][0][0] == k
    assert len(summary["per_k_table"]) == 1 and summary["truncated"] is False


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run("mine-rules", "--no-such-flag") == 1

    def test_help_is_success(self):
        assert run("--help") == 0
        assert run("mine-rules", "--help") == 0

    def test_missing_corpus_file_is_data_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert run("mine-rules", "--corpus", missing,
                   "--output-dir", str(tmp_path)) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_no_corpus_flag_is_usage_error(self, tmp_path):
        assert run("mine-rules", "--output-dir", str(tmp_path)) == 1

    def test_bad_threshold_is_data_error(self, fixture_corpus_path, tmp_path):
        assert run("mine-rules", "--corpus", fixture_corpus_path,
                   "--minsupp", "2.0", "--output-dir", str(tmp_path)) == 2

    def test_zero_is_a_value_not_unset(self, fixture_corpus_path, tmp_path, capsys):
        assert run("preprocess", "--corpus", fixture_corpus_path, "--top-k", "0",
                   "--output-dir", str(tmp_path)) == 2
        assert "k must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("code, argv", [
        (2, ["preprocess", "--corpus", "{missing}"]),
        (2, ["preprocess", "--corpus", "{corpus}", "--top-k", "0"]),
        (2, ["mine-rules", "--corpus", "{corpus}", "--minsupp", "2.0"]),
        (1, ["cluster-tfidf", "--corpus", "{corpus}"]),
        (2, ["cluster-tfidf", "--corpus", "{corpus}", "--k", "1"]),
        (2, ["cluster-tfidf", "--corpus", "{corpus}", "--k", "999"]),
        (1, ["cluster-embeddings", "--k", "2"]),
        (2, ["cluster-embeddings", "--embeddings", "{embeddings}", "--k", "1"]),
        (2, ["cluster-embeddings", "--embeddings", "{embeddings}", "--k", "21"]),
        (2, ["train-lm", "--corpus", "{corpus}", "--epochs", "-1"]),
        (2, ["predict", "--model", "{missing}", "--text", "operaio cade"]),
        (2, ["predict", "--model", "{bad_model}", "--text", "operaio cade"]),
    ])
    def test_refused_call_makes_no_output_directory(self, code, argv, fixture_corpus_path,
                                                     tmp_path, capsys):
        embeddings = tmp_path / "emb.txt"
        save_embeddings(np.random.default_rng(0).normal(size=(20, 3)), embeddings)
        bad_model = tmp_path / "model"
        bad_model.mkdir()
        (bad_model / "manifest.json").write_text("[]", encoding="utf-8")
        paths = {"corpus": fixture_corpus_path, "embeddings": str(embeddings),
                 "missing": str(tmp_path / "nope"), "bad_model": str(bad_model)}
        out = tmp_path / "out"
        assert run(*(arg.format(**paths) for arg in argv), "--output-dir", str(out)) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["mine-rules", "--corpus", "{corpus}", "--mincnf", "0"], "mincnf must be in (0, 1]"),
        (["mine-rules", "--corpus", "{corpus}", "--idf-min", "-1"], "idf_min must be >= 0"),
        (["mine-rules", "--corpus", "{corpus}", "--max-itemset-size", "0"],
         "max_itemset_size must be >= 1"),
        (["cluster-tfidf", "--corpus", "{corpus}", "--k", "3", "--max-iter", "-1"],
         "max_iter must be >= 0"),
        (["cluster-embeddings", "--embeddings", "{embeddings}", "--k", "3", "--batch-size", "0"],
         "batch_size must be >= 1"),
        (["cluster-embeddings", "--embeddings", "{embeddings}", "--k", "3",
          "--variance-threshold", "1.5"], "threshold must be in [0, 1]"),
        (["predict", "--model", "{model}", "--text", "scala", "--top-k", "0"],
         "top_k must be >= 1"),
        (["cluster-embeddings", "--embeddings", "{short_bin}", "--k", "3"],
         "{short_bin}: truncated binary header"),
        (["mine-rules", "--corpus", "{empty_id}"], "{empty_id}:2: empty record id"),
    ], ids=["mincnf", "idf-min", "max-itemset-size", "max-iter", "batch-size",
            "variance-threshold", "top-k", "short-binary-header", "empty-record-id"])
    def test_refusal_message(self, argv, message, fixture_corpus_path, corpus_csv,
                             model_dir, tmp_path, capsys):
        embeddings = tmp_path / "emb.txt"
        save_embeddings(np.random.default_rng(0).normal(size=(20, 3)), embeddings)
        short_bin = tmp_path / "short.bin"
        short_bin.write_bytes(b"\0" * 10)
        paths = {"corpus": fixture_corpus_path, "embeddings": str(embeddings),
                 "model": model_dir, "short_bin": str(short_bin),
                 "empty_id": corpus_csv([("", "operaio cade", "frattura")], "empty_id.csv")}
        out = tmp_path / "refused"
        capsys.readouterr()
        assert run(*(arg.format(**paths) for arg in argv), "--output-dir", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
        assert not out.exists()

    def test_deeply_nested_jsonl_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        depth = 200_000
        path.write_text('{"id": "a", "dynamics": ' + "[" * depth + "]" * depth + "}\n",
                        encoding="utf-8")
        assert run("preprocess", "--corpus", str(path), "--format", "jsonl",
                   "--output-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "deep.jsonl:1" in err and "Traceback" not in err


class TestJsonlFields:
    def _preprocess(self, tmp_path, *objs):
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
        out = tmp_path / "out"
        code = run("preprocess", "--corpus", str(path), "--format", "jsonl",
                   "--no-stopwords", "--output-dir", str(out))
        return code, out

    @pytest.mark.parametrize("field, value", [
        ("id", None), ("id", True), ("id", 1.5), ("id", ["a"]),
        ("dynamics", ["cade", "male"]), ("dynamics", 3), ("dynamics", {"t": "x"}),
        ("consequence", 0), ("consequence", False), ("consequence", ["botta"]),
    ])
    def test_wrong_type_is_data_error(self, tmp_path, capsys, field, value):
        good = {"id": "a", "dynamics": "cade male", "consequence": "botta"}
        code, out = self._preprocess(tmp_path, good, {**good, "id": "b", field: value})
        assert code == 2
        err = capsys.readouterr().err
        assert f"c.jsonl:2: field '{field}'" in err and "Traceback" not in err
        assert not out.exists()

    def test_id_over_the_digit_limit_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "dynamics": "cade male"}\n'
                        '{"id": ' + "7" * 5000 + ', "dynamics": "urta"}\n', encoding="utf-8")
        code = run("preprocess", "--corpus", str(path), "--format", "jsonl",
                   "--no-stopwords", "--output-dir", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {path}:2: Exceeds the limit (4300 digits)" in err
        assert "Traceback" not in err

    def test_integer_id(self, tmp_path):
        code, out = self._preprocess(tmp_path, {"id": 7, "dynamics": "cade male"},
                                     {"id": 0, "dynamics": "urta il muro"})
        assert code == 0
        assert read(out / "transactions.csv") == b"id,items\n7,cade male\n0,il muro urta\n"

    def test_null_dynamics_is_dropped(self, tmp_path):
        code, out = self._preprocess(tmp_path, {"id": "a", "dynamics": None},
                                     {"id": "b", "dynamics": "cade male"})
        assert code == 0
        report = json.loads(read(out / "preprocess_report.json"))
        assert report["dropped"] == 1 and report["records"] == 1

    def test_null_or_absent_consequence(self, tmp_path):
        code, out = self._preprocess(
            tmp_path, {"id": "a", "dynamics": "cade male", "consequence": None},
            {"id": "b", "dynamics": "urta il muro"})
        assert code == 0
        loaded = corpus.load_corpus(str(tmp_path / "c.jsonl"), fmt="jsonl")
        assert loaded.ids == ("a", "b")
        assert loaded.dynamics == ("cade male", "urta il muro")
        assert loaded.consequences == ("", "")


class TestPreprocess:
    def test_writes_reports(self, fixture_corpus_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("preprocess", "--corpus", fixture_corpus_path,
                   "--output-dir", out, "--no-stopwords") == 0
        report = json.loads(read(os.path.join(out, "preprocess_report.json")))
        assert report["records"] == 12
        assert report["transactions"] == 12
        top = read(os.path.join(out, "top_words.csv")).decode()
        assert top.splitlines()[0] == "word,count"
        assert "preprocess:" in capsys.readouterr().out

    def test_ontology_substitution(self, fixture_corpus_path, tmp_path):
        onto = tmp_path / "onto.tsv"
        onto.write_text("scala\tATTREZZATURA\nponteggio\tATTREZZATURA\n",
                        encoding="utf-8")
        out = str(tmp_path / "out")
        assert run("preprocess", "--corpus", fixture_corpus_path,
                   "--ontology", str(onto), "--output-dir", out,
                   "--no-stopwords") == 0
        text = read(os.path.join(out, "transactions.csv")).decode()
        assert "ATTREZZATURA" in text
        assert "scala" not in text.replace("ATTREZZATURA", "")


class TestMineRules:
    def test_ontology_tag_with_label_syntax_is_data_error(self, fixture_corpus_path,
                                                          tmp_path, capsys):
        onto = tmp_path / "onto.tsv"
        onto.write_text("scala\tATTREZZATURA\nponteggio\tA+B\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("mine-rules", "--corpus", fixture_corpus_path,
                   "--ontology", str(onto), "--output-dir", str(out),
                   "--no-stopwords") == 2
        err = capsys.readouterr().err
        assert "'A+B'" in err and "Traceback" not in err
        assert not (out / "rules.csv").exists()

    def test_ontology_tag_with_backslash_is_data_error(self, fixture_corpus_path,
                                                       tmp_path, capsys):
        # the node "FALL\"; would leave its DOT string unclosed
        onto = tmp_path / "onto.tsv"
        onto.write_text("scala\tFALL\\\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("mine-rules", "--corpus", fixture_corpus_path,
                   "--ontology", str(onto), "--output-dir", str(out),
                   "--no-stopwords") == 2
        err = capsys.readouterr().err
        assert err == "error: ontology tag 'FALL\\\\' contains '\\', which rules.dot " \
                      "cannot quote\n"
        assert not (out / "rules.dot").exists()

    def test_default_band_refusal_names_the_default(self, fixture_corpus_path,
                                                    tmp_path, capsys):
        # no --idf-max: the band's ceiling is ln 12 - 0.1 for the 12 transactions
        assert run("mine-rules", "--corpus", fixture_corpus_path, "--idf-min", "5",
                   "--output-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == (
            "error: idf_max must be > idf_min = 5; the default idf_max for 12 "
            "transactions is 2.384907\n")

    def test_writes_rules_and_graph(self, fixture_corpus_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("mine-rules", "--corpus", fixture_corpus_path,
                   "--minsupp", "0.15", "--mincnf", "0.6",
                   "--idf-min", "0.0", "--idf-max", "10.0",
                   "--output-dir", out, "--no-stopwords") == 0
        rules_csv = read(os.path.join(out, "rules.csv")).decode()
        assert rules_csv.splitlines()[0] == \
            "antecedent,consequent,neg_a,neg_c,support,confidence,lift"
        assert len(rules_csv.splitlines()) > 1
        dot = read(os.path.join(out, "rules.dot")).decode()
        assert dot.startswith("digraph rules {")
        assert "mine-rules:" in capsys.readouterr().out

    def test_default_band_matches_library(self, fixture_corpus_path, tmp_path):
        out = str(tmp_path / "out")
        assert run("mine-rules", "--corpus", fixture_corpus_path, "--minsupp", "0.1",
                   "--output-dir", out) == 0
        pre = corpus.PreprocessConfig(stopwords=corpus.default_stopwords())
        txs = corpus.to_transactions(corpus.load_corpus(fixture_corpus_path), pre)
        mined = rules.fisinfis_mine(txs.transactions, rules.MiningConfig(minsupp=0.1))
        assert mined
        assert read(os.path.join(out, "rules.csv")).decode() == \
            written(rules.rules_to_csv, mined).decode()

    def test_rule_bound_is_data_error(self, fixture_corpus_path, tmp_path, capsys,
                                      monkeypatch):
        monkeypatch.setattr(rules, "MAX_RULES", 5)
        out = tmp_path / "out"
        assert run("mine-rules", "--corpus", fixture_corpus_path, "--minsupp", "0.1",
                   "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert "more than 5 rules" in err and "Traceback" not in err
        assert not (out / "rules.csv").exists()

    @pytest.mark.parametrize("failing, write", [("rules.csv", 3), ("rules.dot", 4)])
    def test_failed_export_leaves_no_file(self, fixture_corpus_path, tmp_path, capsys,
                                          monkeypatch, failing, write):
        out = tmp_path / "out"
        argv = ["mine-rules", "--corpus", fixture_corpus_path, "--minsupp", "0.1",
                "--output-dir", str(out)]
        assert run(*argv, "--no-stopwords") == 0  # an earlier run's outputs
        before = tree(out)
        # the CSV writes its header, then blocks; the DOT its header and
        # nodes, then blocks: ``write`` is the second block's write
        monkeypatch.setattr(rules, "EXPORT_ROWS", 2)
        failed = []

        class FullDisk(io.FileIO):
            writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes == write:
                    failed.append(self.name)
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        def open_(path, mode="r", *args, **kwargs):
            if os.path.basename(path) == failing:
                return FullDisk(path, mode)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", open_, raising=False)
        capsys.readouterr()
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert "error: [Errno 28] No space left on device" in captured.err
        assert "Traceback" not in captured.err and "mine-rules:" not in captured.out
        assert [os.path.basename(path) for path in failed] == [failing]
        assert tree(out) == before

    def test_byte_identical_outputs(self, fixture_corpus_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert run("mine-rules", "--corpus", fixture_corpus_path,
                       "--minsupp", "0.1", "--output-dir", out,
                       "--no-stopwords") == 0
            outs.append(out)
        for fname in ("rules.csv", "rules.dot"):
            assert read(os.path.join(outs[0], fname)) == \
                read(os.path.join(outs[1], fname))


class TestClusterTfidf:
    def test_fixed_k(self, fixture_corpus_path, tmp_path):
        out = str(tmp_path / "out")
        assert run("cluster-tfidf", "--corpus", fixture_corpus_path,
                   "--k", "3", "--output-dir", out, "--no-stopwords") == 0
        summary = json.loads(read(os.path.join(out, "cluster_summary.json")))
        assert summary["k"] == 3
        assert summary["metric"] == "cosine"
        assert len(summary["medoid_ids"]) == 3
        clusters = read(os.path.join(out, "clusters.csv")).decode().splitlines()
        assert clusters[0] == "id,cluster"
        assert len(clusters) == 13

    def test_sweep(self, fixture_corpus_path, tmp_path):
        out = str(tmp_path / "out")
        assert run("cluster-tfidf", "--corpus", fixture_corpus_path,
                   "--k-range", "2", "4", "--output-dir", out,
                   "--no-stopwords") == 0
        summary = json.loads(read(os.path.join(out, "cluster_summary.json")))
        assert [row[0] for row in summary["per_k_table"]] == [2, 3, 4]
        assert [row[0] for row in summary["swap_passes"]] == [2, 3, 4]
        assert all(passes >= 0 for _, passes in summary["swap_passes"])

    def test_swap_passes_and_max_iter_warning(self, fixture_corpus_path, tmp_path,
                                              capsys):
        out = str(tmp_path / "out")
        assert run("cluster-tfidf", "--corpus", fixture_corpus_path, "--k", "3",
                   "--max-iter", "0", "--output-dir", out, "--no-stopwords") == 0
        summary = json.loads(read(os.path.join(out, "cluster_summary.json")))
        assert summary["swap_passes"] == [[3, 0]]
        assert "max_iter=0" in capsys.readouterr().err
        assert run("cluster-tfidf", "--corpus", fixture_corpus_path, "--k", "3",
                   "--output-dir", out, "--no-stopwords") == 0
        assert capsys.readouterr().err == ""

    def test_distance_matrix_cap(self, fixture_corpus_path, tmp_path, capsys,
                                 monkeypatch):
        monkeypatch.setattr(errors, "MAX_ALLOCATION_BYTES", 12 * 12 * 8 - 1)
        assert run("cluster-tfidf", "--corpus", fixture_corpus_path, "--k", "3",
                   "--output-dir", str(tmp_path / "out"), "--no-stopwords") == 2
        err = capsys.readouterr().err
        assert "12 points" in err and "distance matrix" in err
        assert "Traceback" not in err

    def test_dense_matrix_cap(self, fixture_corpus_path, tmp_path, capsys,
                              monkeypatch):
        out = str(tmp_path / "out")
        assert run("cluster-tfidf", "--corpus", fixture_corpus_path, "--k", "3",
                   "--output-dir", out, "--no-stopwords") == 0
        n_terms = json.loads(read(os.path.join(out, "cluster_summary.json")))["n_terms"]
        assert n_terms > 12
        # the 12 x 12 distances fit, the 12 x n_terms dense rows do not
        monkeypatch.setattr(errors, "MAX_ALLOCATION_BYTES", 12 * n_terms * 8 - 1)
        capsys.readouterr()
        assert run("cluster-tfidf", "--corpus", fixture_corpus_path, "--k", "3",
                   "--output-dir", str(tmp_path / "refused"), "--no-stopwords") == 2
        err = capsys.readouterr().err
        assert f"12 x {n_terms} tf-idf matrix" in err and "Traceback" not in err

    @staticmethod
    def _wide_corpus_peak(corpus_csv, tmp_path, *flags):
        """n, n_terms and the tracemalloc peak of cluster-tfidf on 300
        records of more terms than records, so a dense n x V copy outweighs
        the n x n distances."""
        def word(i):
            return "parola" + "".join(chr(97 + int(c, 26)) for c in np.base_repr(i, 26))

        n = 300
        rows = [(f"r{r:03d}", " ".join(word(i) for i in
                                      (2 * r, 2 * r + 1, 2 * n + r // 2, 3 * n + r % 7)), "")
                for r in range(n)]
        path = corpus_csv(rows, name="wide.csv")
        out = str(tmp_path / "out")
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            assert run("cluster-tfidf", "--corpus", path, "--k", "4",
                       "--output-dir", out, "--no-stopwords", *flags) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_terms = json.loads(read(os.path.join(out, "cluster_summary.json")))["n_terms"]
        assert n_terms > 2 * n
        return n, n_terms, peak

    def test_peak_holds_one_dense_copy_of_the_rows(self, corpus_csv, tmp_path):
        # the cosine unit rows are the only dense copy, read from the sparse
        # matrix a block of rows at a time
        n, n_terms, peak = self._wide_corpus_peak(corpus_csv, tmp_path)
        assert peak < 8 * n * n + 1.25 * 8 * n * n_terms + 512 * 1024

    def test_euclidean_peak_holds_one_dense_copy_of_the_rows(self, corpus_csv, tmp_path):
        # the dense rows, and row differences in tiles of at most
        # _CHUNK_BUDGET elements, not a (1, n, V) difference per row
        n, n_terms, peak = self._wide_corpus_peak(corpus_csv, tmp_path,
                                                  "--metric", "euclidean")
        assert peak < 8 * n * n + 1.25 * 8 * n * n_terms + 512 * 1024

    def test_k_thirty_on_larger_corpus(self, corpus_csv, tmp_path):
        # the stock tags-occurrence setting: a fixed k of 30
        rng = np.random.default_rng(8)
        vocab = [f"parola{chr(97 + i)}{chr(97 + j)}"
                 for i in range(6) for j in range(6)]
        rows = []
        for i in range(45):
            words = rng.choice(vocab, size=6, replace=True)
            rows.append((f"r{i:02d}", " ".join(words), ""))
        path = corpus_csv(rows, name="large.csv")
        out = str(tmp_path / "out")
        assert run("cluster-tfidf", "--corpus", path, "--k", "30",
                   "--output-dir", out, "--no-stopwords") == 0
        summary = json.loads(read(os.path.join(out, "cluster_summary.json")))
        assert summary["k"] == 30
        assert len(set(summary["medoid_ids"])) == 30

    def test_fixed_k_is_one_k_range(self, fixture_corpus_path, tmp_path):
        assert_k_forms_identical(tmp_path, ("cluster-tfidf", "--corpus", fixture_corpus_path,
                                            "--no-stopwords"), 3)

    def test_k_and_range_conflict(self, fixture_corpus_path, tmp_path):
        assert run("cluster-tfidf", "--corpus", fixture_corpus_path,
                   "--k", "3", "--k-range", "2", "4",
                   "--output-dir", str(tmp_path)) == 1

    def test_deterministic(self, fixture_corpus_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert run("cluster-tfidf", "--corpus", fixture_corpus_path,
                       "--k", "3", "--output-dir", out, "--no-stopwords") == 0
            outs.append(out)
        for fname in ("clusters.csv", "cluster_summary.json", "tfidf_matrix.txt"):
            assert read(os.path.join(outs[0], fname)) == \
                read(os.path.join(outs[1], fname))


class TestClusterEmbeddings:
    def _write_blobs(self, tmp_path, fmt="text"):
        rng = np.random.default_rng(3)
        blob_a = rng.normal(size=(10, 6))
        blob_b = rng.normal(size=(10, 6)) + 9.0
        matrix = np.vstack([blob_a, blob_b])
        suffix = "bin" if fmt == "binary" else "txt"
        path = tmp_path / f"emb.{suffix}"
        save_embeddings(matrix, path, fmt=fmt)
        ids = tmp_path / "ids.txt"
        ids.write_text("".join(f"s{i}\n" for i in range(20)), encoding="utf-8")
        return str(path), str(ids)

    def test_text_embeddings_sweep(self, tmp_path):
        emb, ids = self._write_blobs(tmp_path)
        out = str(tmp_path / "out")
        assert run("cluster-embeddings", "--embeddings", emb, "--ids", ids,
                   "--k-range", "2", "4", "--variance-threshold", "0.85",
                   "--output-dir", out) == 0
        summary = json.loads(read(os.path.join(out, "cluster_summary.json")))
        assert summary["k"] == 2
        assert summary["reduced_dims"] >= 1
        assert summary["explained"] >= 0.85
        clusters = read(os.path.join(out, "clusters.csv")).decode().splitlines()
        assert clusters[1].startswith("s0,")

    def test_binary_autodetected(self, tmp_path):
        emb, ids = self._write_blobs(tmp_path, fmt="binary")
        out = str(tmp_path / "out")
        assert run("cluster-embeddings", "--embeddings", emb, "--ids", ids,
                   "--k", "2", "--output-dir", out) == 0

    def test_distance_matrix_cap(self, tmp_path, capsys, monkeypatch):
        emb, ids = self._write_blobs(tmp_path)
        monkeypatch.setattr(errors, "MAX_ALLOCATION_BYTES", 20 * 20 * 8 - 1)
        assert run("cluster-embeddings", "--embeddings", emb, "--ids", ids,
                   "--k-range", "2", "4", "--output-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "20 points" in err and "distance matrix" in err
        assert "Traceback" not in err

    def test_fixed_k_is_one_k_range(self, tmp_path):
        emb, ids = self._write_blobs(tmp_path)
        assert_k_forms_identical(tmp_path, ("cluster-embeddings", "--embeddings", emb,
                                            "--ids", ids), 3)

    def test_k_above_n_is_data_error(self, tmp_path, capsys):
        emb, ids = self._write_blobs(tmp_path)
        for k_flags in (["--k", "21"], ["--k-range", "21", "30"]):
            assert run("cluster-embeddings", "--embeddings", emb, "--ids", ids,
                       *k_flags, "--output-dir", str(tmp_path / "out")) == 2
            assert capsys.readouterr().err == \
                "error: k=21 exceeds number of points n=20\n"

    def test_zero_columns_is_data_error(self, tmp_path, capsys):
        # a 16-byte header declaring 10^12 rows of 0 columns needs no
        # payload; without ids the CLI would name every row
        emb = tmp_path / "empty.bin"
        emb.write_bytes(struct.pack("<QQ", 10**12, 0))
        assert run("cluster-embeddings", "--embeddings", str(emb), "--k", "2",
                   "--output-dir", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == f"error: {emb}: embedding matrix has no columns\n"

    @pytest.mark.parametrize("text, line", [
        ("3 2\n1_5 0.5\n1 2\n3 4\n", 2),  # float() reads 1_5 as 15
        ("3 2\n1 2\n\u0661 0.5\n3 4\n", 3),  # and ARABIC-INDIC DIGIT ONE as 1
        ("1_0 2\n" + "0.5 1.5\n" * 10, 1),  # int() reads 1_0 as 10
    ])
    def test_loose_numbers_are_data_errors(self, tmp_path, capsys, text, line):
        emb = tmp_path / "emb.txt"
        emb.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert run("cluster-embeddings", "--embeddings", str(emb), "--k", "2",
                   "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {emb}:{line}: ") and "Traceback" not in err
        assert not out.exists()

    def test_id_count_mismatch(self, tmp_path):
        emb, _ = self._write_blobs(tmp_path)
        short_ids = tmp_path / "short.txt"
        short_ids.write_text("only\n", encoding="utf-8")
        assert run("cluster-embeddings", "--embeddings", emb,
                   "--ids", str(short_ids), "--k", "2",
                   "--output-dir", str(tmp_path / "x")) == 2


class TestTrainPredict:
    def test_end_to_end(self, fixture_corpus_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run("train-lm", "--corpus", fixture_corpus_path,
                   "--vocab-size", "64", "--embed-dim", "8",
                   "--recurrent-units", "4", "--dense-units", "8",
                   "--dropout", "0.0", "--seq-len", "6", "--epochs", "3",
                   "--batch-size", "4", "--no-stopwords",
                   "--output-dir", out) == 0
        assert os.path.exists(os.path.join(out, "model", "manifest.json"))
        history = json.loads(read(os.path.join(out, "training_history.json")))
        assert len(history["loss"]) == 3
        capsys.readouterr()
        assert run("predict", "--model", os.path.join(out, "model"),
                   "--text", "operaio scivola su scala", "--top-k", "3",
                   "--output-dir", out) == 0
        pred = json.loads(read(os.path.join(out, "prediction.json")))
        assert len(pred["top"]) == 3

    def test_training_deterministic(self, fixture_corpus_path, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert run("train-lm", "--corpus", fixture_corpus_path,
                       "--vocab-size", "32", "--embed-dim", "4",
                       "--recurrent-units", "3", "--dense-units", "4",
                       "--dropout", "0.5", "--seq-len", "5", "--epochs", "2",
                       "--seed", "9", "--no-stopwords",
                       "--output-dir", out) == 0
            with open(os.path.join(out, "model", "params.bin"), "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1]

    def test_version_mismatch_is_data_error(self, fixture_corpus_path, tmp_path,
                                            capsys):
        out = str(tmp_path / "out")
        assert run("train-lm", "--corpus", fixture_corpus_path,
                   "--vocab-size", "32", "--embed-dim", "4",
                   "--recurrent-units", "3", "--dense-units", "4",
                   "--seq-len", "5", "--epochs", "0", "--no-stopwords",
                   "--output-dir", out) == 0
        manifest = os.path.join(out, "model", "manifest.json")
        data = json.loads(read(manifest))
        data["version"] = "lm-v9"
        with open(manifest, "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        assert run("predict", "--model", os.path.join(out, "model"),
                   "--text", "scala", "--output-dir", out) == 2
        assert "lm-v9" in capsys.readouterr().err

    def _train_refused(self, corpus_csv, tmp_path, capsys, flags):
        """Exit code, stderr and tracemalloc peak of a ``train-lm`` call on 45 rows."""
        path = corpus_csv([(f"r{i:02d}", f"operaio cade scala {i}", "frattura gamba")
                           for i in range(45)])
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            code = run("train-lm", "--corpus", path, *flags, "--epochs", "1",
                       "--output-dir", str(tmp_path / "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert not os.path.exists(tmp_path / "out" / "model")
        return err, peak

    @pytest.mark.parametrize("flags", [
        ["--recurrent-units", "200000"],
        ["--recurrent-units", "1" + "0" * 200],  # no float holds its size
        ["--vocab-size", "100000000"],
    ])
    def test_oversized_model_refused_before_allocating(self, corpus_csv, tmp_path,
                                                       capsys, flags):
        err, peak = self._train_refused(corpus_csv, tmp_path, capsys, flags)
        assert "parameters" in err and "GiB, above the 4.0 GiB limit" in err
        assert peak < 32 * 2**20

    def test_oversized_targets_refused_before_allocating(self, corpus_csv, tmp_path,
                                                         capsys, monkeypatch):
        # the weights (about 0.3 MB with their Adam state) fit under the
        # limit, one batch's 32 x 5000 float32 targets (640,000 bytes) do not
        monkeypatch.setattr(errors, "MAX_ALLOCATION_BYTES", 600_000)
        err, peak = self._train_refused(
            corpus_csv, tmp_path, capsys, ["--vocab-size", "5000", "--embed-dim", "1",
                                           "--dense-units", "1", "--recurrent-units", "1"])
        assert "the 32 x 5000 batch targets needs 0.0 GiB" in err
        assert peak < 600_000

    def test_failed_save_keeps_the_previous_model(self, fixture_corpus_path, tmp_path,
                                                  capsys, monkeypatch):
        out = tmp_path / "out"
        argv = ["train-lm", "--corpus", fixture_corpus_path, "--vocab-size", "32",
                "--embed-dim", "4", "--recurrent-units", "3", "--dense-units", "4",
                "--seq-len", "5", "--epochs", "3"]
        predict = ["predict", "--model", str(out / "model"), "--text",
                   "operaio scivola su scala", "--output-dir", str(tmp_path / "pred")]
        assert run(*argv, "--seed", "1", "--output-dir", str(out)) == 0
        before = tree(out)
        assert run(*predict) == 0
        prediction = read(tmp_path / "pred" / "prediction.json")
        # the retrained model differs, so keeping the old one is seen
        assert run(*argv, "--seed", "2", "--output-dir", str(tmp_path / "other")) == 0
        assert read(tmp_path / "other" / "model" / "params.bin") != before["model/params.bin"]

        def full_disk(*args, **kwargs):  # params.bin is written, the manifest is not
            raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(langmodel.json, "dump", full_disk)
        capsys.readouterr()
        assert run(*argv, "--seed", "2", "--output-dir", str(out)) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        monkeypatch.undo()
        assert tree(out) == before
        assert run(*predict) == 0
        assert read(tmp_path / "pred" / "prediction.json") == prediction

    def test_failed_model_swap_puts_the_old_model_back(self, fixture_corpus_path, tmp_path,
                                                       capsys, monkeypatch):
        # the new model/ is written; moving it in fails after the old one
        # has been moved aside, which must then be put back
        out = tmp_path / "out"
        argv = ["train-lm", "--corpus", fixture_corpus_path, *_SMALL_LM,
                "--output-dir", str(out)]
        assert run(*argv, "--seed", "1") == 0
        before = tree(out)
        renames = []
        real_rename = os.rename

        def failing_rename(src, dst):
            renames.append((os.path.relpath(src, out), os.path.relpath(dst, out)))
            if os.path.basename(os.path.dirname(src)).startswith(".incmine-") \
                    and os.path.basename(src) == "model":
                raise OSError(errno.EIO, "Input/output error")
            real_rename(src, dst)
        monkeypatch.setattr(os, "rename", failing_rename)
        capsys.readouterr()
        assert run(*argv, "--seed", "2") == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == "error: [Errno 5] Input/output error\n"
        stage = renames[0][1].split(os.sep)[0]
        assert stage.startswith(".incmine-") and renames == [
            ("model", f"{stage}/model.old"), (f"{stage}/model", "model"),
            (f"{stage}/model.old", "model")]
        assert tree(out) == before  # model/ and training_history.json, no stage

    def test_retrain_replaces_the_whole_artifact(self, fixture_corpus_path, tmp_path):
        out = tmp_path / "out"
        argv = ["train-lm", "--corpus", fixture_corpus_path, "--vocab-size", "32",
                "--embed-dim", "4", "--recurrent-units", "3", "--dense-units", "4",
                "--seq-len", "5", "--epochs", "0", "--output-dir", str(out)]
        assert run(*argv) == 0
        (out / "model" / "tensors").mkdir()  # as an lm-v1 artifact left it
        (out / "model" / "tensors" / "x.bin").write_bytes(b"\0" * 4)
        assert run(*argv) == 0
        assert sorted(os.listdir(out / "model")) == ["manifest.json", "params.bin"]
        assert sorted(os.listdir(out)) == ["model", "training_history.json"]

    def test_manifest_records_the_tokenizer(self, fixture_corpus_path, tmp_path):
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("su\nDA\ncon\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("train-lm", "--corpus", fixture_corpus_path, *_SMALL_LM,
                   "--stopwords", str(stopwords), "--min-token-len", "3",
                   "--output-dir", str(out)) == 0
        manifest = json.loads(read(out / "model" / "manifest.json"))
        assert manifest["preprocess"] == {"stopwords": ["con", "da", "su"],
                                          "min_token_len": 3}
        assert langmodel.load_model(out / "model").pre == corpus.PreprocessConfig(
            stopwords=frozenset({"con", "da", "su"}), min_token_len=3)

    def test_predict_tokenizes_as_training(self, fixture_corpus_path, tmp_path,
                                           monkeypatch):
        out = tmp_path / "out"
        assert run("train-lm", "--corpus", fixture_corpus_path, *_SMALL_LM,
                   "--no-stopwords", "--output-dir", str(out)) == 0
        model = langmodel.load_model(out / "model")
        text = "operaio scivola su scala"  # "su" is a bundled stopword
        default = replace(model, pre=corpus.PreprocessConfig(
            stopwords=corpus.default_stopwords()))
        want = [[tok, p] for tok, p in langmodel.predict_consequence(model, text)]
        assert want != [[tok, p] for tok, p in langmodel.predict_consequence(default, text)]

        def read_stopwords(*args):
            raise AssertionError("predict read a stopword file")
        monkeypatch.setattr(corpus, "default_stopwords", read_stopwords)
        monkeypatch.setattr(corpus, "load_stopwords", read_stopwords)
        assert run("predict", "--model", str(out / "model"), "--text", text,
                   "--output-dir", str(tmp_path / "pred")) == 0
        assert json.loads(read(tmp_path / "pred" / "prediction.json"))["top"] == want

    @pytest.mark.parametrize("flags, position", [
        # 12 pairs, one batch per epoch
        (["--lr", "1e30", "--epochs", "3"], "epoch 1, batch 0"),  # the second step
        (["--lr", "1e300"], "epoch 0, batch 0"),  # the only step's update overflows
    ])
    def test_diverging_training_is_a_data_error(self, fixture_corpus_path, tmp_path,
                                                flags, position):
        # in a child process: numpy's RuntimeWarnings would be errors here
        out = tmp_path / "out"
        code, err = _run_child(["train-lm", "--corpus", fixture_corpus_path, *_SMALL_LM,
                                *flags, "--output-dir", str(out)])
        assert code == 2 and "Traceback" not in err
        *warned, last = err.splitlines()
        assert last == f"error: training diverged at {position}"
        # each numpy warning is one line, without its source path and code
        assert warned and all(line.startswith("warning: ") for line in warned)
        assert not any(".py:" in line for line in err.splitlines())
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--lr", "nan"], ["--lr", "inf"], ["--config", "{cfg}"]],
                             ids=["flag-nan", "flag-inf", "key-inf"])
    def test_non_finite_lr_is_refused(self, fixture_corpus_path, tmp_path, capsys, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lm.learning_rate = inf\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("train-lm", "--corpus", fixture_corpus_path, *_SMALL_LM,
                   *(flag.format(cfg=cfg) for flag in flags), "--output-dir", str(out)) == 2
        assert capsys.readouterr().err == "error: learning_rate must be finite\n"
        assert not out.exists()

    def test_stock_config_from_lm_config(self, fixture_corpus_path, tmp_path):
        out = str(tmp_path / "out")
        assert run("train-lm", "--corpus", fixture_corpus_path, "--epochs", "1",
                   "--output-dir", out) == 0
        manifest = json.loads(read(os.path.join(out, "model", "manifest.json")))
        assert manifest["config"] == asdict(LmConfig(epochs=1))


@pytest.fixture
def model_dir(fixture_corpus_path, tmp_path):
    """Artifact directory of an untrained model with a 32-token vocabulary."""
    out = str(tmp_path / "out")
    assert run("train-lm", "--corpus", fixture_corpus_path,
               "--vocab-size", "32", "--embed-dim", "4",
               "--recurrent-units", "3", "--dense-units", "4",
               "--seq-len", "5", "--epochs", "0", "--no-stopwords",
               "--output-dir", out) == 0
    return os.path.join(out, "model")


def _run_child(argv, preexec_fn=None):
    """Exit code and standard error of an ``incmine`` call in a child process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "incmine.cli", *argv], env=env,
                          preexec_fn=preexec_fn, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stderr


def _run_capped(argv, max_file_bytes):
    """``_run_child`` in a child process that can write no file past
    ``max_file_bytes`` (Python ignores SIGXFSZ, so a write past it fails
    with EFBIG)."""
    def cap():
        resource.setrlimit(resource.RLIMIT_FSIZE, (max_file_bytes, max_file_bytes))

    return _run_child(argv, cap)


_SMALL_LM = ["--vocab-size", "32", "--embed-dim", "4", "--recurrent-units", "3",
             "--dense-units", "4", "--seq-len", "5", "--epochs", "1"]


@pytest.mark.parametrize("argv, first, rerun", [
    (["preprocess", "--corpus", "{corpus}"], ["--top-k", "5"], ["--no-stopwords"]),
    (["mine-rules", "--corpus", "{corpus}", "--minsupp", "0.1"], [], ["--no-stopwords"]),
    (["cluster-tfidf", "--corpus", "{corpus}"], ["--k", "3"], ["--k", "4"]),
    (["cluster-embeddings", "--embeddings", "{embeddings}"], ["--k", "3"], ["--k", "4"]),
    (["train-lm", "--corpus", "{corpus}", *_SMALL_LM], ["--seed", "1"], ["--seed", "2"]),
    (["predict", "--model", "{model}"], ["--text", "operaio scivola su scala"],
     ["--text", "caduta da ponteggio"]),
], ids=["preprocess", "mine-rules", "cluster-tfidf", "cluster-embeddings", "train-lm",
        "predict"])
def test_failed_rerun_changes_nothing(fixture_corpus_path, model_dir, tmp_path, argv,
                                      first, rerun):
    """A rerun into a filled output directory that fails while writing, here
    on a file size cap below its largest output, exits 2 and leaves every
    byte of the directory as the earlier run wrote it, with no stage left."""
    embeddings = tmp_path / "emb.txt"
    save_embeddings(np.random.default_rng(3).normal(size=(20, 6)), embeddings)
    paths = {"corpus": fixture_corpus_path, "embeddings": str(embeddings),
             "model": model_dir}
    argv = [arg.format(**paths) for arg in argv]
    out = tmp_path / "filled"
    assert run(*argv, *first, "--output-dir", str(out)) == 0
    before = tree(out)
    largest = max(len(blob) for blob in before.values() if blob is not None)
    code, err = _run_capped([*argv, *rerun, "--output-dir", str(out)], largest // 2)
    assert code == 2 and "File too large" in err and "Traceback" not in err
    assert tree(out) == before
    assert not [name for name in os.listdir(out) if name.startswith(".incmine-")]


class TestModelManifest:
    """A malformed model manifest is a data error (exit 2), never a traceback."""

    def _predict_with(self, model_dir, manifest, capsys):
        with open(os.path.join(model_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        code = run("predict", "--model", model_dir, "--text", "scala",
                   "--output-dir", os.path.dirname(model_dir))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def _manifest(self, model_dir):
        return json.loads(read(os.path.join(model_dir, "manifest.json")))

    def test_missing_key(self, model_dir, capsys):
        data = self._manifest(model_dir)
        del data["vocab"]
        code, err = self._predict_with(model_dir, data, capsys)
        assert code == 2 and "vocab" in err

    def test_unknown_key(self, model_dir, capsys):
        data = self._manifest(model_dir)
        data["comment"] = "hand-edited"
        code, err = self._predict_with(model_dir, data, capsys)
        assert code == 2 and "comment" in err

    def test_unknown_config_key(self, model_dir, capsys):
        data = self._manifest(model_dir)
        data["config"]["momentum"] = 0.9
        code, err = self._predict_with(model_dir, data, capsys)
        assert code == 2 and "momentum" in err

    def test_vocab_longer_than_config(self, model_dir, capsys):
        # "scala" would get the id 32 of a 32-row embedding
        data = self._manifest(model_dir)
        data["vocab"] = [tok for tok in data["vocab"] if tok != "scala"] + ["nuovo", "scala"]
        code, err = self._predict_with(model_dir, data, capsys)
        assert code == 2 and "manifest vocab has 33 tokens" in err

    def test_invalid_json_names_the_manifest(self, model_dir, capsys):
        manifest = os.path.join(model_dir, "manifest.json")
        with open(manifest, "w") as fh:
            fh.write("not json")
        code = run("predict", "--model", model_dir, "--text", "scala",
                   "--output-dir", os.path.dirname(model_dir))
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"error: {manifest}: Expecting value: line 1 column 1 (char 0)" in err

    def test_not_an_object(self, model_dir, capsys):
        code, err = self._predict_with(model_dir, [self._manifest(model_dir)], capsys)
        assert code == 2 and "not a JSON object" in err

    def test_deeply_nested(self, model_dir, capsys):
        depth = 200_000
        with open(os.path.join(model_dir, "manifest.json"), "w") as fh:
            fh.write("[" * depth + "]" * depth)
        code = run("predict", "--model", model_dir, "--text", "scala",
                   "--output-dir", os.path.dirname(model_dir))
        err = capsys.readouterr().err
        assert code == 2 and "manifest" in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("seq_len", 5.0), ("recurrent_units", 2.5), ("epochs", 1.5), ("batch_size", True),
        ("seed", "0"), ("learning_rate", "0.001"), ("dropout_rate", False)])
    def test_config_value_of_the_wrong_type(self, model_dir, capsys, field, value):
        data = self._manifest(model_dir)
        data["config"][field] = value
        code, err = self._predict_with(model_dir, data, capsys)
        assert code == 2 and f"{field} must be" in err

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_learning_rate(self, model_dir, capsys, value):
        # json writes the rate as NaN or Infinity, and reads it back
        data = self._manifest(model_dir)
        data["config"]["learning_rate"] = value
        code, err = self._predict_with(model_dir, data, capsys)
        assert code == 2 and "error: manifest config: learning_rate must be finite" in err

    def _swap_first_two(data):
        data["vocab"][:2] = data["vocab"][1::-1]

    def _repeat_last_but_one(data):
        data["vocab"][-1] = data["vocab"][-2]

    def _float16(data):
        data["config"]["dtype"] = "float16"

    @pytest.mark.parametrize("edit, message", [
        (_swap_first_two, "manifest vocab: vocabulary must start with PAD, UNK"),
        (_repeat_last_but_one, "manifest vocab: vocabulary contains duplicate tokens"),
        (_float16, "manifest config: dtype must be float32 or float64"),
    ], ids=["pad-unk-order", "repeated-token", "float16"])
    def test_bad_vocabulary_or_dtype(self, model_dir, capsys, edit, message):
        data = self._manifest(model_dir)
        length = len(data["vocab"])
        edit(data)
        assert len(data["vocab"]) == length
        out = os.path.join(os.path.dirname(model_dir), "pred")
        with open(os.path.join(model_dir, "manifest.json"), "w") as fh:
            json.dump(data, fh)
        capsys.readouterr()
        assert run("predict", "--model", model_dir, "--text", "scala", "--output-dir", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out)

    def test_preprocess_is_the_training_tokenizer(self, model_dir):
        assert self._manifest(model_dir)["preprocess"] == {"stopwords": [],
                                                           "min_token_len": 2}

    @pytest.mark.parametrize("value, message", [
        ({"stopwords": [], "min_token_len": 0}, "min_token_len must be >= 1"),
        ({"stopwords": [], "min_token_len": "2"}, "min_token_len must be int, got '2'"),
        ({"stopwords": [], "min_token_len": True}, "min_token_len must be int, got True"),
        ({"stopwords": ["Su"], "min_token_len": 2}, "stopwords must be lowercase"),
        ({"stopwords": "su", "min_token_len": 2}, "stopwords is not a JSON list of strings"),
        ({"stopwords": [1], "min_token_len": 2}, "stopwords is not a JSON list of strings"),
        ({"min_token_len": 2}, "missing keys ['stopwords']"),
        (["su"], "manifest preprocess is not a JSON object"),
    ])
    def test_bad_preprocess(self, model_dir, capsys, value, message):
        data = self._manifest(model_dir)
        data["preprocess"] = value
        code, err = self._predict_with(model_dir, data, capsys)
        assert code == 2 and message in err

    def test_lm_v1_manifest_must_be_retrained(self, model_dir, capsys):
        data = self._manifest(model_dir)
        del data["sha256"]
        data.update(version="lm-v1", tensors={})  # lm-v1 described one file per tensor
        code, err = self._predict_with(model_dir, data, capsys)
        assert code == 2 and "'lm-v1'" in err and "'lm-v3'" in err


class TestConfigFile:
    def test_values_and_override(self, fixture_corpus_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# pipeline settings\n"
            "rules.minsupp = 0.5\n"
            "rules.idf_min = 0.0\n"
            f"paths.corpus = {fixture_corpus_path}\n",
            encoding="utf-8",
        )
        out_a = str(tmp_path / "a")
        assert run("mine-rules", "--config", str(cfg), "--output-dir", out_a,
                   "--no-stopwords") == 0
        # flag beats config: much lower minsupp admits more rules
        out_b = str(tmp_path / "b")
        assert run("mine-rules", "--config", str(cfg), "--minsupp", "0.1",
                   "--output-dir", out_b, "--no-stopwords") == 0
        n_a = len(read(os.path.join(out_a, "rules.csv")).splitlines())
        n_b = len(read(os.path.join(out_b, "rules.csv")).splitlines())
        assert n_b >= n_a

    def test_allow_lift_flag_beats_config(self, fixture_corpus_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rules.require_lift_gt1 = true\n", encoding="utf-8")
        outputs = []
        for name, extra in (("flag", ()), ("both", ("--config", str(cfg)))):
            out = str(tmp_path / name)
            assert run("mine-rules", "--corpus", fixture_corpus_path,
                       "--max-itemset-size", "2", "--allow-lift-le1",
                       "--output-dir", out, *extra) == 0
            outputs.append(read(os.path.join(out, "rules.csv")))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value, same_as", [
        ("false", "flag"), ("no", "flag"), ("0", "flag"), ("off", "flag"),
        ("true", "no key")])
    def test_require_lift_key_reads_a_boolean(self, fixture_corpus_path, tmp_path, value,
                                              same_as):
        argv = ["mine-rules", "--corpus", fixture_corpus_path, "--max-itemset-size", "2"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"rules.require_lift_gt1 = {value}\n", encoding="utf-8")
        outputs = {}
        for name, extra in (("flag", ["--allow-lift-le1"]), ("no key", []),
                            ("config", ["--config", str(cfg)])):
            out = str(tmp_path / name)
            assert run(*argv, *extra, "--output-dir", out) == 0
            outputs[name] = read(os.path.join(out, "rules.csv"))
        assert outputs["flag"] != outputs["no key"]
        assert outputs["config"] == outputs[same_as]

    def test_require_lift_key_refuses_a_non_boolean(self, fixture_corpus_path, tmp_path,
                                                    capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rules.require_lift_gt1 = maybe\n", encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run("mine-rules", "--corpus", fixture_corpus_path, "--config", str(cfg),
                   "--output-dir", str(out)) == 2
        assert capsys.readouterr().err == \
            f"error: {cfg}: rules.require_lift_gt1: not a boolean: 'maybe'\n"
        assert not out.exists()

    def test_parse_rejects_garbage(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a key value line\n", encoding="utf-8")
        with pytest.raises(Exception, match="key = value"):
            parse_config_file(str(cfg))

    def test_parse_skips_byte_order_mark(self, tmp_path):
        plain, bom = plain_and_bom(tmp_path, "cfg", "rules.minsupp = 0.2\n# note\n")
        assert parse_config_file(bom) == parse_config_file(plain) == {"rules.minsupp": "0.2"}

    def test_unknown_key_is_usage_error(self, fixture_corpus_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rules.minsup = 0.9\n", encoding="utf-8")
        assert run("mine-rules", "--corpus", fixture_corpus_path, "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "rules.minsup" in err and "run.cfg" in err
        assert not os.path.exists(tmp_path / "out")

    def test_one_file_serves_every_stage(self, fixture_corpus_path, tmp_path):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("lm.dropout_rate = 0.1\n"
                       "lm.epochs = 1\n"
                       "clustering.k = 3\n"
                       "clustering.metric = euclidean\n"
                       "rules.minsupp = 0.5\n"
                       "rules.idf_min = 0.0\n"
                       f"paths.corpus = {fixture_corpus_path}\n", encoding="utf-8")
        out = str(tmp_path / "out")
        assert run("mine-rules", "--config", str(cfg), "--output-dir", out,
                   "--no-stopwords") == 0
        # the rules.* keys were applied: the same band and minsupp by flags
        flags = str(tmp_path / "flags")
        assert run("mine-rules", "--corpus", fixture_corpus_path, "--minsupp", "0.5",
                   "--idf-min", "0.0", "--output-dir", flags, "--no-stopwords") == 0
        assert read(os.path.join(out, "rules.csv")) == \
            read(os.path.join(flags, "rules.csv"))

    def test_k_range_flag_beats_config_k(self, fixture_corpus_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("clustering.k = 3\n", encoding="utf-8")
        out = str(tmp_path / "out")
        assert run("cluster-tfidf", "--corpus", fixture_corpus_path, "--config", str(cfg),
                   "--k-range", "2", "4", "--output-dir", out, "--no-stopwords") == 0
        summary = json.loads(read(os.path.join(out, "cluster_summary.json")))
        assert [row[0] for row in summary["per_k_table"]] == [2, 3, 4]

    def test_dropout_and_lr_keys(self, fixture_corpus_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lm.dropout_rate = 0.25\nlm.learning_rate = 0.01\n",
                       encoding="utf-8")
        out = str(tmp_path / "out")
        assert run("train-lm", "--corpus", fixture_corpus_path, "--config", str(cfg),
                   "--lr", "0.02", "--vocab-size", "32", "--embed-dim", "4",
                   "--recurrent-units", "3", "--dense-units", "4", "--seq-len", "5",
                   "--epochs", "0", "--output-dir", out) == 0
        manifest = json.loads(read(os.path.join(out, "model", "manifest.json")))
        assert manifest["config"]["dropout_rate"] == 0.25
        assert manifest["config"]["learning_rate"] == 0.02

    def test_readme_table_lists_every_key(self):
        """The README's "Config keys" table lists each key the subcommands
        declare, once, with the flag that declares it."""
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8") as fh:
            rows = re.findall(r"^\| `([a-z0-9_]+\.[a-z0-9_]+)` \| [^|]*?`(--[a-z0-9-]+)`",
                              fh.read(), re.M)
        listed = [key for key, _ in rows]
        assert sorted(listed) == _KNOWN_KEYS
        declared = {}
        for sub in build_parser().commands.values():
            flags = {action.dest: action.option_strings[0] for action in sub._actions}
            for key, (dest, _) in sub.settings.items():
                declared.setdefault(key, set()).add(flags[dest])
        assert dict(rows) == {key: flag for key, (flag,) in declared.items()}

    @pytest.mark.parametrize("argv", [
        ("preprocess", "--seed", "0"), ("mine-rules", "--seed", "0"),
        ("cluster-tfidf", "--k", "2", "--seed", "0"),
        ("cluster-embeddings", "--k", "2", "--seed", "0"),
        ("predict", "--model", "m", "--text", "scala", "--seed", "0"),
        ("train-lm", "--ontology", "onto.tsv")])
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, argv):
        # --seed seeded nothing outside train-lm; train-lm never used an ontology
        assert run(*argv, "--output-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and f"unrecognized arguments: {argv[-2]}" in err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("flag", [("--stopwords", "words.txt"), ("--min-token-len", "3"),
                                      ("--no-stopwords",)])
    def test_predict_has_no_tokenizer_flags(self, tmp_path, capsys, flag):
        # the model carries the tokenizer it was trained with
        assert run("predict", "--model", "m", "--text", "scala", *flag,
                   "--output-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert f"usage error: unrecognized arguments: {' '.join(flag)}" in err

    def test_corpus_keys_are_ignored_by_predict(self, model_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"corpus.stopwords = {tmp_path / 'missing.txt'}\n"
                       "corpus.min_token_len = 9\n", encoding="utf-8")
        text = ("--text", "operaio scivola su scala")
        assert run("predict", "--model", model_dir, *text,
                   "--output-dir", str(tmp_path / "plain")) == 0
        assert run("predict", "--model", model_dir, *text, "--config", str(cfg),
                   "--output-dir", str(tmp_path / "configured")) == 0
        assert read(tmp_path / "configured" / "prediction.json") == \
            read(tmp_path / "plain" / "prediction.json")

    def test_other_stage_keys_are_ignored_by_predict(self, model_dir, tmp_path):
        # predict's parser declares no clustering key; the pipeline's file does
        cfg = tmp_path / "run.cfg"
        cfg.write_text("clustering.k = 3\n", encoding="utf-8")
        text = ("--text", "operaio scivola su scala")
        assert run("predict", "--model", model_dir, *text,
                   "--output-dir", str(tmp_path / "plain")) == 0
        assert run("predict", "--model", model_dir, *text, "--config", str(cfg),
                   "--output-dir", str(tmp_path / "configured")) == 0
        assert read(tmp_path / "configured" / "prediction.json") == \
            read(tmp_path / "plain" / "prediction.json")

    def test_predict_refuses_a_key_no_subcommand_declares(self, model_dir, tmp_path,
                                                          capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("clustering.k = 3\nclustering.kk = 3\n", encoding="utf-8")
        out = tmp_path / "refused"
        assert run("predict", "--model", model_dir, "--text", "operaio scivola su scala",
                   "--config", str(cfg), "--output-dir", str(out)) == 1
        assert capsys.readouterr().err == \
            f"usage error: {cfg}: unknown config key 'clustering.kk'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [("cluster-tfidf", "--k", "2"), ("train-lm",)])
    def test_removed_clustering_seed_key_is_usage_error(self, fixture_corpus_path, tmp_path,
                                                        capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("clustering.seed = 0\n", encoding="utf-8")
        assert run(*command, "--corpus", fixture_corpus_path, "--config", str(cfg),
                   "--output-dir", str(tmp_path / "out")) == 1
        assert "unknown config key 'clustering.seed'" in capsys.readouterr().err

    # int() reads 1_0 as 10 and float() 0.1_0 as 0.1; both read U+0661,
    # ARABIC-INDIC DIGIT ONE, as 1
    _LOOSE_NUMBERS = pytest.mark.parametrize("flag, key, value", [
        ("--k", "clustering.k", "1_0"), ("--k", "clustering.k", "\u0661"),
        ("--minsupp", "rules.minsupp", "0.1_0"), ("--minsupp", "rules.minsupp", "0.\u0661")])
    # the subcommand that takes each flag, and the type the flag reads
    _NUMBER_FLAGS = {"--k": ("cluster-tfidf", "int"), "--minsupp": ("mine-rules", "float")}

    @_LOOSE_NUMBERS
    def test_loose_flag_number_is_usage_error(self, fixture_corpus_path, tmp_path, capsys,
                                              flag, key, value):
        command, kind = self._NUMBER_FLAGS[flag]
        out = tmp_path / "out"
        assert run(command, "--corpus", fixture_corpus_path, flag, value,
                   "--output-dir", str(out)) == 1
        assert capsys.readouterr().err.endswith(
            f"usage error: argument {flag}: invalid {kind} value: {value!r}\n")
        assert not os.path.exists(out)

    @_LOOSE_NUMBERS
    def test_loose_config_number_is_data_error(self, fixture_corpus_path, tmp_path, capsys,
                                               flag, key, value):
        command, kind = self._NUMBER_FLAGS[flag]
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert run(command, "--corpus", fixture_corpus_path, "--config", str(cfg),
                   "--output-dir", str(out)) == 2
        message = (f"invalid literal for int() with base 10: {value!r}" if kind == "int"
                   else f"could not convert string to float: {value!r}")
        assert capsys.readouterr().err == f"error: {cfg}: {key}: {message}\n"
        assert not os.path.exists(out)

    def test_train_lm_ignores_the_ontology_key(self, fixture_corpus_path, tmp_path):
        onto = tmp_path / "onto.tsv"
        onto.write_text("not a word-tag line\n", encoding="utf-8")
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text(f"paths.ontology = {onto}\n", encoding="utf-8")
        assert run("train-lm", "--corpus", fixture_corpus_path, "--config", str(cfg),
                   "--vocab-size", "32", "--embed-dim", "4", "--recurrent-units", "3",
                   "--dense-units", "4", "--seq-len", "5", "--epochs", "0",
                   "--output-dir", str(tmp_path / "out")) == 0
        # the same file is another subcommand's, which reads it
        assert run("preprocess", "--corpus", fixture_corpus_path, "--config", str(cfg),
                   "--output-dir", str(tmp_path / "pre")) == 2


_KNOWN_KEYS = sorted(set().union(*(sub.settings
                                   for sub in build_parser().commands.values())))
_VALUES = st.one_of(
    st.sampled_from(["", "0", "-1", "2", "0.5", "nan", "inf", "1e309", "true", "no",
                     "abc", "csv", "jsonl", "cosine", "/nonexistent/x", "\x00"]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
            max_size=8))
_UNKNOWN_KEYS = st.from_regex(r"[a-z_]{1,8}\.[a-z_]{1,8}", fullmatch=True) \
    .filter(lambda key: key not in _KNOWN_KEYS)
_LINES = st.one_of(
    st.tuples(st.sampled_from(_KNOWN_KEYS), _VALUES).map(lambda kv: "%s = %s" % kv),
    st.tuples(_UNKNOWN_KEYS, _VALUES).map(lambda kv: "%s = %s" % kv),
    st.sampled_from(["# comment", "", "no equals sign here"]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(command=st.sampled_from([("preprocess",), ("mine-rules", "--max-itemset-size", "2"),
                                ("cluster-tfidf", "--k", "3")]),
       lines=st.lists(_LINES, max_size=6), junk=st.binary(max_size=4))
def test_config_file_fuzz_keeps_exit_contract(fixture_corpus_path, command, lines, junk):
    """Config files of known keys with garbage values, unknown keys, lines
    without '=' and non-UTF-8 bytes exit 0, 1 or 2, never with a traceback;
    a file that parses and holds an unknown key exits 1."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "fuzz.cfg")
        with open(cfg, "wb") as fh:
            fh.write("\n".join(lines).encode("utf-8") + b"\n" + junk)
        try:
            parsed = parse_config_file(cfg)
        except (IncmineError, ValueError):  # a line without '=', or not UTF-8
            parsed = {}
        code, err = _exit_contract([*command, "--config", cfg, "--corpus", fixture_corpus_path,
                                    "--output-dir", os.path.join(tmp, "out")])
    unknown = sorted(key for key in parsed if key not in _KNOWN_KEYS)
    if unknown:
        assert code == 1 and repr(unknown[0]) in err


def _exit_contract(argv):
    """Exit code and stderr of ``main(argv)``, which must exit 0, 1 or 2 and
    print no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


def _fuzz_file(directory, name, data: bytes):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


_FUZZ_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                 HealthCheck.too_slow])
# commands that read a corpus, an ontology or both; the sizes keep each run small
_CORPUS_COMMANDS = st.sampled_from([("preprocess",), ("mine-rules", "--max-itemset-size", "2"),
                                    ("cluster-tfidf", "--k", "2")])
_TEXTS = st.one_of(
    st.sampled_from(["", " ", "r1", "r2", "operaio cade da scala", "caduta scala bagnata",
                     "n.d.", "-", "TAG", '"', ",", "a\nb", "\x00", "\ufeff", "🙂"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=10))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXTS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXTS, inner, max_size=3),
    max_leaves=6)
# usually nothing; else a NUL, a bare CR or a byte that is not UTF-8
_JUNK = st.sampled_from([b"", b"", b"", b"\x00", b"\r", b"\xff", b"\xc3"])
_IDS = st.one_of(st.sampled_from(["r1", "r2", "r3", "r4", ""]), _TEXTS)
_GOOD_RECORDS = st.lists(st.sampled_from(FIXTURE_ROWS), unique=True, max_size=12)


@st.composite
def _spliced(draw, lines, garbage):
    """The lines ``lines`` draws with up to two ``garbage`` lines inserted
    anywhere, then junk bytes: a file that is valid or nearly so."""
    lines = list(draw(lines))
    for line in draw(st.lists(garbage, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines).encode("utf-8") + b"\n" + draw(_JUNK)


def _csv_line(row):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(row)
    return buf.getvalue()


_CSV_HEADERS = st.sampled_from(["id,dynamics,consequence", "\ufeffid,dynamics,consequence",
                                " id , dynamics , consequence", "id,dynamics"])
_CSV_CORPUS = _spliced(
    st.tuples(_CSV_HEADERS, _GOOD_RECORDS.map(lambda rows: [_csv_line(r) for r in rows]))
    .map(lambda parts: [parts[0], *parts[1]]),
    st.one_of(st.tuples(_IDS, _TEXTS, _TEXTS).map(_csv_line),
              st.lists(_TEXTS, max_size=4).map(",".join)))
_JSONL_CORPUS = _spliced(
    _GOOD_RECORDS.map(lambda rows: [
        json.dumps({"id": r[0], "dynamics": r[1], "consequence": r[2]}) for r in rows]),
    st.one_of(
        st.fixed_dictionaries({"id": st.one_of(_IDS, st.integers(), _JSON_VALUES),
                               "dynamics": st.one_of(_TEXTS, _JSON_VALUES)},
                              optional={"consequence": st.one_of(_TEXTS, _JSON_VALUES)}
                              ).map(json.dumps),
        st.fixed_dictionaries({}, optional={"id": _IDS, "dynamics": _TEXTS}).map(json.dumps),
        _JSON_VALUES.map(json.dumps),
        st.sampled_from(['{"id": ' + "9" * 5000 + ', "dynamics": "caduta"}',
                         "[" * 5000 + "]" * 5000, '{"id": "r1"', "NaN"]),
        _TEXTS))


@_FUZZ_SETTINGS
@given(command=_CORPUS_COMMANDS,
       corpus_file=st.one_of(st.tuples(st.just("csv"), _CSV_CORPUS),
                             st.tuples(st.just("jsonl"), _JSONL_CORPUS)))
def test_corpus_fuzz_keeps_exit_contract(command, corpus_file):
    """Corpus CSV and JSONL files of fixture records with garbage rows and
    fields spliced in exit 0, 1 or 2, never with a traceback."""
    fmt, data = corpus_file
    with tempfile.TemporaryDirectory() as tmp:
        path = _fuzz_file(tmp, f"corpus.{fmt}", data)
        _exit_contract([*command, "--corpus", path, "--format", fmt, "--no-stopwords",
                        "--output-dir", os.path.join(tmp, "out")])


_ONTOLOGY_LINES = st.one_of(
    st.tuples(st.sampled_from(["scala", "caduta", "Operaio", "lama", "", " "]) | _TEXTS,
              st.sampled_from(["LUOGO", "luogo", "A+B", "¬X", "TAG,X", "SCALA", "CADUTA", ""])
              | _TEXTS).map("\t".join),
    st.sampled_from(["# comment", "", "scala\tLUOGO\textra", "scala"]),
    _TEXTS)


@_FUZZ_SETTINGS
@given(command=_CORPUS_COMMANDS, lines=st.lists(_ONTOLOGY_LINES, max_size=6), junk=_JUNK)
def test_ontology_fuzz_keeps_exit_contract(fixture_corpus_path, command, lines, junk):
    """Ontology TSV lines with missing or extra tabs, lowercase tags, tags
    holding '+' or '¬', conflicting words and junk bytes exit 0, 1 or 2,
    never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = _fuzz_file(tmp, "ontology.tsv", "\n".join(lines).encode("utf-8") + junk)
        _exit_contract([*command, "--corpus", fixture_corpus_path, "--ontology", path,
                        "--output-dir", os.path.join(tmp, "out")])


_MATRICES = st.lists(st.lists(st.floats(-10, 10), min_size=3, max_size=3), max_size=8)
_DIMS = st.sampled_from(["0", "1", "2", "3", "5", "-1", "1e3", "x", "",
                         str(10**12), str(2**64)])
_EMBED_VALUES = st.one_of(st.sampled_from(["0.5", "1", "-2", "0", "nan", "inf", "1e309",
                                           "x", "1,5"]),
                          st.floats(-10, 10).map(repr))


@st.composite
def _text_embeddings(draw):
    """A valid n x 3 matrix, its header sometimes replaced, with garbage
    rows spliced in."""
    rows = draw(_MATRICES)
    header = draw(st.one_of(st.just(f"{len(rows)} 3"),
                            st.lists(_DIMS, min_size=1, max_size=3).map(" ".join)))
    lines = [header] + [" ".join(map(repr, row)) for row in rows]
    return draw(_spliced(st.just(lines), st.lists(_EMBED_VALUES, max_size=4).map(" ".join)))


@st.composite
def _binary_embeddings(draw):
    """A valid n x 3 float32 matrix with its (rows, cols) uint64 header
    sometimes replaced by a wrong, huge or empty shape (an empty one with
    the empty payload it declares), a value sometimes made NaN or infinite,
    and its payload sometimes cut short."""
    values = [v for row in draw(_MATRICES) for v in row]
    n_rows, n_cols = len(values) // 3, 3
    if draw(st.booleans()):
        n_rows, n_cols = draw(st.sampled_from([
            (n_rows + 1, 3), (n_rows, 2), (2**63, 2), (2**64 - 1, 2**64 - 1),
            (0, 3), (0, 2**64 - 1), (10**12, 0)]))
        if n_rows * n_cols == 0:
            values = []
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    payload = struct.pack(f"<{len(values)}f", *values)
    cut = draw(st.sampled_from([0, 0, 1, 4]))
    return struct.pack("<QQ", n_rows, n_cols) + payload[:len(payload) - cut] + draw(_JUNK)


@_FUZZ_SETTINGS
@given(embeddings=st.one_of(st.tuples(st.just("txt"), _text_embeddings()),
                            st.tuples(st.just("bin"), _binary_embeddings())),
       n_ids=st.one_of(st.none(), st.integers(0, 6)),
       k=st.sampled_from([("--k", "2"), ("--k-range", "1", "3")]))
def test_embeddings_fuzz_keeps_exit_contract(embeddings, n_ids, k):
    """Text and binary embedding files with bad headers, short or long rows,
    non-finite values and truncated payloads, with or without an id file,
    exit 0, 1 or 2, never with a traceback."""
    ext, data = embeddings
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["cluster-embeddings", "--embeddings", _fuzz_file(tmp, f"emb.{ext}", data),
                *k, "--output-dir", os.path.join(tmp, "out")]
        if n_ids is not None:
            ids = "".join(f"s{i}\n" for i in range(n_ids)).encode("utf-8")
            argv += ["--ids", _fuzz_file(tmp, "ids.txt", ids)]
        _exit_contract(argv)


def _paths(value, prefix=()):
    """Every key path into nested dicts and lists, the root included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*prefix, key))


@_FUZZ_SETTINGS
@given(data=st.data())
def test_manifest_fuzz_keeps_exit_contract(model_dir, data):
    """A manifest.json with any node replaced, deleted or given an extra
    key, with vocabulary tokens added, or replaced by junk bytes exits 0, 1
    or 2, never with a traceback."""
    manifest_path = os.path.join(model_dir, "manifest.json")
    original = os.path.join(model_dir, "manifest.orig")  # examples share the fixture
    if not os.path.exists(original):
        os.replace(manifest_path, original)
    manifest = json.loads(read(original))
    for _ in range(data.draw(st.integers(0, 2))):
        path = data.draw(st.sampled_from(list(_paths(manifest))))
        if not path:  # the whole manifest
            manifest = data.draw(_JSON_VALUES)
            break
        parent = manifest
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "delete", "add", "tokens"]))
        if action == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == "add" and isinstance(parent[path[-1]], dict):
            parent[path[-1]][data.draw(_TEXTS)] = data.draw(_JSON_VALUES)
        elif action == "tokens" and isinstance(manifest.get("vocab"), list):
            # the text's word "scala" moves up to 40 places past the last id
            words = [tok for tok in manifest["vocab"] if tok != "scala"]
            filler = [f"w{i}" for i in range(data.draw(st.integers(0, 40)))]
            manifest["vocab"] = words + filler + ["scala"]
        else:
            parent[path[-1]] = data.draw(_JSON_VALUES)
    text = json.dumps(manifest).encode("utf-8")
    if data.draw(st.integers(0, 7)) == 0:
        text = data.draw(st.binary(max_size=8))
    _fuzz_file(model_dir, "manifest.json", text)
    _exit_contract(["predict", "--model", model_dir, "--text", "operaio scivola su scala",
                    "--output-dir", os.path.dirname(model_dir)])


class _ReadRecorder(argparse.Namespace):
    """A namespace that records each attribute read once ``reads`` is a set."""

    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("command", ["preprocess", "mine-rules", "cluster-tfidf",
                                     "cluster-embeddings", "train-lm", "predict"])
def test_every_flag_is_read(fixture_corpus_path, model_dir, tmp_path, command):
    """Each dest a subcommand declares is read by the run it configures: a
    flag that nothing reads is a setting that changes nothing. The cluster
    subcommands run once with --k and once with --k-range, which each leave
    the other unread."""
    emb = tmp_path / "emb.txt"
    save_embeddings(np.random.default_rng(0).normal(size=(8, 3)), emb)
    corpus_in = ("--corpus", fixture_corpus_path)
    runs = {
        "preprocess": [corpus_in],
        "mine-rules": [(*corpus_in, "--max-itemset-size", "2")],
        "cluster-tfidf": [(*corpus_in, "--k", "2"), (*corpus_in, "--k-range", "2", "3")],
        "cluster-embeddings": [("--embeddings", str(emb), "--k", "2"),
                               ("--embeddings", str(emb), "--k-range", "2", "3")],
        "train-lm": [(*corpus_in, "--vocab-size", "32", "--embed-dim", "4",
                      "--recurrent-units", "3", "--dense-units", "4", "--seq-len", "5",
                      "--epochs", "0")],
        "predict": [("--model", model_dir, "--text", "operaio scivola su scala")],
    }[command]
    parser = build_parser()
    read_dests = {"config"}  # main reads it, to apply the file
    for i, argv in enumerate(runs):
        args = parser.parse_args([command, *argv, "--output-dir", str(tmp_path / f"out{i}")],
                                 namespace=_ReadRecorder())
        args.reads = read_dests
        assert args.func(args) == 0
    declared = {action.dest for action in parser.commands[command]._actions} - {"help"}
    assert sorted(declared - read_dests) == []


class TestPipelineConfig:
    """Defaults the CLI leaves to the library function, whose signature takes
    them from a module constant: the CLI has no literal or copy of its own."""

    def test_variance_threshold_has_one_source(self, tmp_path, capsys, monkeypatch):
        threshold = clustering.VARIANCE_THRESHOLD
        assert inspect.signature(clustering.reduce_to_variance) \
            .parameters["variance_threshold"].default == threshold
        assert run("cluster-embeddings", "--help") == 0
        assert f"(default {threshold})" in capsys.readouterr().out
        # the CLI passes no threshold of its own: 0.0 keeps one component
        monkeypatch.setattr(clustering.reduce_to_variance, "__defaults__", (0.0,))
        emb = tmp_path / "emb.txt"
        save_embeddings(np.random.default_rng(0).normal(size=(8, 4)), emb)
        out = str(tmp_path / "out")
        assert run("cluster-embeddings", "--embeddings", str(emb), "--k", "2",
                   "--output-dir", out) == 0
        summary = json.loads(read(os.path.join(out, "cluster_summary.json")))
        assert summary["reduced_dims"] == 1

    def test_top_words_has_one_source(self, fixture_corpus_path, tmp_path, capsys,
                                      monkeypatch):
        assert inspect.signature(corpus.top_frequent_words) \
            .parameters["top_k"].default == corpus.TOP_WORDS
        assert run("preprocess", "--help") == 0
        assert f"(default {corpus.TOP_WORDS})" in capsys.readouterr().out
        monkeypatch.setattr(corpus.top_frequent_words, "__defaults__", (3,))
        out = str(tmp_path / "out")
        assert run("preprocess", "--corpus", fixture_corpus_path, "--output-dir", out) == 0
        assert len(read(os.path.join(out, "top_words.csv")).splitlines()) == 1 + 3
