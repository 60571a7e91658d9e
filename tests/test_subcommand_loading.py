"""A CLI call loads only its own subcommand: ``import incmine.cli`` loads no
stage module, a call imports the stage modules its subcommand runs, and
``main`` parses with a parser that holds the flags of that subcommand only.
That parser must accept, refuse and print exactly what the full one does."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from incmine import cli
from incmine.cli import _UsageError, build_parser, main

from helpers import save_embeddings

STAGES = ["_kernels", "clustering", "corpus", "langmodel", "rules", "vectors"]

# prints the stage modules loaded, and _hashlib if OpenSSL's libcrypto is,
# after the import and after the main call given as JSON, if any
_PROBE = f"""
import json, sys
def loaded():
    return ([name for name in {STAGES!r} if "incmine." + name in sys.modules]
            + ["_hashlib"] * ("_hashlib" in sys.modules))
from incmine import cli
found = {{"import": loaded()}}
if len(sys.argv) > 1:
    found["rc"] = cli.main(json.loads(sys.argv[1]))
    found["call"] = loaded()
print(json.dumps(found))
"""


def _probe(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = [json.dumps(list(argv))] if argv else []
    proc = subprocess.run([sys.executable, "-c", _PROBE, *args], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_stage_module():
    assert _probe() == {"import": []}


@pytest.fixture
def inputs(fixture_corpus_path, tmp_path):
    emb = tmp_path / "emb.txt"
    save_embeddings(np.random.default_rng(0).normal(size=(8, 3)), emb)
    model = tmp_path / "trained"
    assert main(["train-lm", "--corpus", fixture_corpus_path, "--vocab-size", "32",
                 "--embed-dim", "4", "--recurrent-units", "3", "--dense-units", "4",
                 "--seq-len", "5", "--epochs", "0", "--output-dir", str(model)]) == 0
    return {"corpus": fixture_corpus_path, "embeddings": str(emb),
            "model": str(model / "model"), "out": str(tmp_path / "out")}


# each subcommand's flags on the tiny inputs, and the modules its call loads
_CALLS = {
    "preprocess": (["--corpus", "{corpus}"], ["corpus"]),
    "mine-rules": (["--corpus", "{corpus}", "--max-itemset-size", "2"],
                   ["_kernels", "corpus", "rules"]),
    "cluster-tfidf": (["--corpus", "{corpus}", "--k", "2"],
                      ["_kernels", "clustering", "corpus", "rules", "vectors"]),
    "cluster-embeddings": (["--embeddings", "{embeddings}", "--k", "2"],
                           ["_kernels", "clustering"]),
    "train-lm": (["--corpus", "{corpus}", "--vocab-size", "32", "--embed-dim", "4",
                  "--recurrent-units", "3", "--dense-units", "4", "--seq-len", "5",
                  "--epochs", "0"], ["corpus", "langmodel", "_hashlib"]),
    "predict": (["--model", "{model}", "--text", "operaio scivola su scala"],
                ["corpus", "langmodel", "_hashlib"]),
}


@pytest.mark.parametrize("command", list(_CALLS))
def test_call_loads_its_own_stage_modules(inputs, command):
    flags, stages = _CALLS[command]
    found = _probe(command, *(arg.format(**inputs) for arg in flags),
                   "--output-dir", inputs["out"])
    assert found == {"import": [], "rc": 0, "call": stages}


def _parsed(parser, argv):
    """The namespace ``parser`` gives ``argv``, or the usage error's text."""
    try:
        return parser.parse_args(argv)
    except _UsageError as exc:
        return f"usage error: {exc}"


# per subcommand: valid flags, then flags the parser refuses; a missing
# --k/--k-range parses (the subcommand refuses it), a missing --model does not
_ARGVS = {
    "preprocess": [["--corpus", "c.csv", "--top-k", "3", "--no-stopwords"],
                   ["--corpus", "c.csv", "--top-k", "3x"]],
    "mine-rules": [["--corpus", "c.csv", "--minsupp", "0.1", "--allow-lift-le1",
                    "--format", "jsonl"],
                   ["--corpus", "c.csv", "--format", "xml"],
                   ["--corpus", "c.csv", "--minsupp", "0.1_0"]],
    "cluster-tfidf": [["--corpus", "c.csv", "--k", "3", "--metric", "euclidean"],
                      ["--corpus", "c.csv", "--k-range", "2", "5", "--max-iter", "4"],
                      ["--corpus", "c.csv"],
                      ["--corpus", "c.csv", "--k", "3", "--k-range", "2", "5"],
                      ["--corpus", "c.csv", "--k", "3", "--metric", "manhattan"],
                      ["--corpus", "c.csv", "--k", "١"]],
    "cluster-embeddings": [["--embeddings", "e.bin", "--k-range", "2", "5",
                            "--variance-threshold", "0.5", "--embeddings-format", "binary"],
                           ["--embeddings", "e.bin"],
                           ["--embeddings", "e.bin", "--k", "2", "--metric", "l1"],
                           ["--embeddings", "e.bin", "--k-range", "2"],
                           ["--embeddings", "e.bin", "--k", "2", "--batch-size", "1.5"]],
    "train-lm": [["--corpus", "c.csv", "--epochs", "2", "--lr", "0.01", "--seed", "3"],
                 ["--corpus", "c.csv", "--ontology", "o.tsv"],
                 ["--corpus", "c.csv", "--dropout", "half"]],
    "predict": [["--model", "m", "--text", "operaio cade", "--top-k", "5"],
                ["--text", "operaio cade"],
                ["--model", "m", "--text", "operaio cade", "--top-k", "five"]],
}
_COMMON = [[], ["--conf", "run.cfg"], ["--config=run.cfg"], ["--output-dir", "o"],
           ["--no-such-flag"], ["--no-such-flag=1"], ["--", "extra"]]


@pytest.mark.parametrize("command", sorted(_ARGVS))
def test_one_subcommand_parser_parses_as_the_full_parser(command):
    full, own = build_parser(), build_parser(command)
    for flags in _ARGVS[command]:
        for extra in _COMMON:
            argv = [command, *flags, *extra]
            expected = _parsed(full, argv)
            assert _parsed(own, argv) == expected, argv
            if extra in (["--conf", "run.cfg"], ["--config=run.cfg"]) \
                    and isinstance(expected, argparse.Namespace):
                assert expected.config == "run.cfg"
    assert isinstance(_parsed(full, [command, *_ARGVS[command][0]]), argparse.Namespace)


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["-x", "predict"], ["-", "predict"],
                                  ["--", "predict", "--model", "m", "--text", "t"]])
def test_argv_not_led_by_a_subcommand_is_refused_as_by_the_full_parser(argv, capsys):
    # main picks the parser by the first argument not starting with "-"
    expected = _parsed(build_parser(), argv)
    assert expected.startswith("usage error: ")
    assert main(argv) == 1
    assert capsys.readouterr().err == expected + "\n"


def _help(argv, run):
    """Standard output of an ``argv`` that asks for help, through ``run``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, None)
    return buf.getvalue()


@pytest.mark.parametrize("command", [None, *sorted(_ARGVS)])
def test_help_is_the_full_parsers(command):
    argv = ["--help"] if command is None else [command, "--help"]
    expected = _help(argv, build_parser().parse_args)
    assert expected.startswith("usage: incmine")
    assert _help(argv, main) == expected
