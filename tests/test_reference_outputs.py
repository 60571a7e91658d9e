"""The benchmark's recorded outputs as a standing gate.

``perfbench/reference.json`` pins the output digests of each benchmark
workload per input seed, and the final training loss of ``lm``. This test
makes the seed-0 ``mine``, ``cluster_tfidf``, ``cluster_sweep`` and ``lm``
calls in one subprocess, with BLAS pinned to one thread as the benchmark
runs it, and compares what ``workloads.found_outputs`` reads with the
recorded entry; the loss holds training to the bit. The benchmark's
modules are imported from ``perfbench/`` on the subprocess's path and only
read; every file the calls write goes under ``tmp_path``."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(REPO, "perfbench")
SRC = os.path.join(REPO, "src")
SEED = "0"
NAMES = ("mine", "cluster_tfidf", "cluster_sweep", "lm")

_CALLS = """
import json, os, sys
bench, src, out, seed, *names = sys.argv[1:]
sys.path[:0] = [src, bench]
from incmine import cli
from workloads import WORKLOADS, found_outputs
found = {}
for name in names:
    workload = WORKLOADS[name]
    directory = os.path.join(out, name)
    os.makedirs(directory)
    inputs = workload.prepare(int(seed), directory)
    outputs = os.path.join(directory, "out")
    rc = cli.main(workload.argv(inputs, outputs))
    found[name] = {"rc": rc, "found": found_outputs(workload, outputs)}
with open(os.path.join(out, "found.json"), "w", encoding="utf-8") as fh:
    json.dump(found, fh)
"""


def test_seed0_outputs_match_the_benchmark_reference(tmp_path):
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _CALLS, BENCH, SRC, str(tmp_path), SEED, *NAMES],
        cwd=str(tmp_path), env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "found.json", encoding="utf-8") as fh:
        found = json.load(fh)
    for name in NAMES:
        assert found[name]["rc"] == 0, name
        assert found[name]["found"] == reference[name][SEED], name
