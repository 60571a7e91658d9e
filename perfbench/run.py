"""The incmine benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload mine --seed 0 --seconds 20 --trace 0

The run generates its inputs from ``--seed`` under ``.perfbench/``, then
starts fresh worker processes one after another (a closed loop with one
caller) for ``--seconds`` seconds.  Each worker imports ``incmine.cli`` from
``src/`` and makes the workload's CLI call; the lm workload follows every
training call with ``PREDICTS_PER_MODEL`` predict calls on the model it
trained, and trains at least often enough to predict all ``PREDICT_TEXTS``.
Outputs are checked after each worker exits, outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
traced calls, which alternate with untraced ones so the tracing overhead can
be read off.  Every run also writes ``.perfbench/results/BENCH_*.json`` with
the environment, input sizes, samples, problems and spans.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
sys.path[:0] = [HERE, SRC]

import checks  # the benchmark's own modules, importable once HERE is on sys.path
from workloads import WORKLOADS, found_outputs, predict_calls

BLAS_THREADS = 1          # one thread keeps timings steady on a shared machine
SETUP_PROBES = 5          # import-only processes per run, after one warm-up
LAST_START_S = 150.0      # no call starts later than this into the run ...
RUN_LIMIT_S = 170.0       # ... and a worker still running at this point is killed


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(request: dict, scratch: str, env: dict,
          timeout: float = RUN_LIMIT_S) -> tuple[dict | None, str]:
    """Run one worker to completion; (result, error text) with result None on failure."""
    req_path = os.path.join(scratch, "request.json")
    res_path = os.path.join(scratch, "result.json")
    with open(req_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    if os.path.exists(res_path):
        os.remove(res_path)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               req_path, res_path], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker killed after {timeout:.0f} s"
    if proc.returncode != 0 or not os.path.exists(res_path):
        return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    with open(res_path, encoding="utf-8") as fh:
        return json.load(fh), ""


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "load": "closed loop, one caller",
    }


def load_reference(workload: str, seed: int):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Run:
    """The calls of one run and what their checks found."""

    def __init__(self, workload, seed, trace):
        self.started = perf_counter()
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.dir = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "inputs"))
        self.env = worker_env()
        self.reference = load_reference(workload, seed)
        self.inputs = self.workload.prepare(seed, os.path.join(self.dir, "inputs"))
        self.setup_s: list[float] = []
        self.calls: list[dict] = []            # main calls
        self.predicts: list[dict] = []         # lm predict calls, one record each
        self.predict_batches: list[dict] = []  # the workers that made them
        self.first_outputs = None

    def probe_setup(self):
        """One warm-up import, then SETUP_PROBES timed imports in fresh processes."""
        for i in range(SETUP_PROBES + 1):
            result, error = spawn({"argvs": []}, self.dir, self.env, self._time_left())
            if result is None:
                raise RuntimeError(f"incmine.cli does not import: {error}")
            if i:
                self.setup_s.append(result["setup_s"])

    def call(self, index: int, traced: bool):
        out = os.path.join(self.dir, f"call{index}")
        record = {"traced": traced, "problems": []}
        self.calls.append(record)
        try:
            result, error = spawn({"argvs": [self.workload.argv(self.inputs, out)],
                                   "trace": traced}, self.dir, self.env, self._time_left())
            if result is None:
                record["problems"].append(error)
                return
            rc = result["calls"][0]["rc"]
            record.update(wall_s=result["calls"][0]["wall_s"], setup_s=result["setup_s"],
                          peak_rss_mb=result["peak_rss_mb"], trace=result.get("trace"))
            if rc != 0:
                record["problems"].append(f"exit code {rc}")
                return
            record["problems"] += checks.guarded(self.workload.check, self.inputs, out)
            record["problems"] += checks.guarded(self._compare, out)
            if self.workload.predicts:
                self._predict(out, index, traced)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _time_left(self) -> float:
        return max(1.0, self.started + RUN_LIMIT_S - perf_counter())

    def _compare(self, out):
        found = found_outputs(self.workload, out)
        problems = checks.compare_reference(found, self.reference)
        if self.first_outputs is None:
            self.first_outputs = found
        elif found != self.first_outputs:
            problems.append("outputs differ from the first call of this run")
        return problems

    def _predict(self, out, index, traced):
        calls = predict_calls(self.inputs, out, index)
        result, error = spawn({"argvs": [argv for argv, _, _ in calls], "trace": traced},
                              self.dir, self.env, self._time_left())
        if result is None:
            self.predicts.extend({"traced": traced, "problems": [error]} for _ in calls)
            return
        self.predict_batches.append({"traced": traced, "setup_s": result["setup_s"],
                                     "size": len(calls), "trace": result.get("trace")})
        try:
            vocab = checks.model_vocab(out)
        except (OSError, ValueError, KeyError):
            vocab = set()  # an unreadable manifest fails every prediction's check
        for (_, text, path), call in zip(calls, result["calls"]):
            problems = ([f"exit code {call['rc']}"] if call["rc"] != 0
                        else checks.guarded(checks.check_prediction, path, text, vocab))
            self.predicts.append({"traced": traced, "problems": problems,
                                  "wall_s": call["wall_s"]})

    def measure(self, seconds: float):
        """Calls back to back while the next one, as long as the last, still fits."""
        min_calls = 2 if self.trace else self.workload.min_calls
        t0 = perf_counter()
        index = 0
        duration = 0.0
        while index < min_calls or perf_counter() - t0 + duration <= seconds:
            if perf_counter() - self.started > LAST_START_S:
                break
            start = perf_counter()
            self.call(index, traced=self.trace and index % 2 == 1)
            duration = perf_counter() - start
            index += 1

    # -- results ---------------------------------------------------------

    def attempted_failed(self):
        everything = self.calls + self.predicts
        return len(everything), sum(1 for c in everything if c["problems"])

    def end_to_end(self) -> dict[str, float]:
        plain = [c for c in self.calls if not c["traced"] and "wall_s" in c]
        walls = [c["wall_s"] for c in plain]
        wall = statistics.median(walls)
        latencies = ([p["wall_s"] for p in self.predicts if "wall_s" in p]
                     if self.workload.predicts else walls)
        setup = self.setup_s + [w["setup_s"] for w in plain + self.predict_batches]
        return {
            "wall_s": wall,
            "rows_per_s": self.inputs.rows / wall,
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in plain),
            "setup_s": statistics.median(setup),
            "call_p50_ms": statistics.median(latencies) * 1e3,
            "call_p90_ms": _p90(latencies) * 1e3,
        }

    def per_layer(self, names) -> dict[str, float]:
        """Means over traced calls; the uncovered rest of each wall time is *.other_s."""
        traced = [c for c in self.calls if c["traced"] and c.get("trace")]
        plain = [c for c in self.calls if not c["traced"] and "wall_s" in c]
        metrics = dict.fromkeys(names, 0.0)
        metrics.update(_mean_trace([c["trace"] for c in traced]))
        wall = statistics.fmean(c["wall_s"] for c in traced)
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_s"] = wall - statistics.fmean(c["wall_s"] for c in plain)
        metrics["cli.other_s"] = wall - sum(
            v for k, v in metrics.items()
            if k.endswith("_s") and not k.startswith(("predict.", "trace.", "cli.")))
        if metrics.get("rules.candidates"):
            metrics["rules.rules_per_candidate"] = (metrics["rules.rules_emitted"]
                                                    / metrics["rules.candidates"])
        metrics["trace.absent_targets"] = float(max(len(c["trace"]["absent"]) for c in traced))

        batches = [b for b in self.predict_batches if b["traced"] and b["trace"]]
        if batches:
            size = sum(b["size"] for b in batches)
            per_call = {k: v * len(batches) / size
                        for k, v in _mean_trace([b["trace"] for b in batches]).items()}
            pwall = statistics.fmean(p["wall_s"] for p in self.predicts
                                     if p["traced"] and "wall_s" in p)
            metrics.update({f"predict.{k}": v for k, v in per_call.items()})
            metrics["predict.wall_s"] = pwall
            metrics["predict.cli.other_s"] = pwall - sum(
                v for k, v in per_call.items() if k.endswith("_s"))
        return {name: metrics[name] for name in names}

    def write_record(self, metrics):
        attempted, failed = self.attempted_failed()
        traced = [c["trace"] for c in self.calls if c.get("trace")]
        record = {
            "workload": self.workload.name, "seed": self.seed, "trace": self.trace,
            "environment": environment(),
            "inputs": dict(self.inputs.sizes, rows=self.inputs.rows,
                           row_unit=self.workload.row_unit),
            "reference": "present" if self.reference else "absent",
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted if attempted else 1.0,
            "metrics": metrics,
            "samples": {"setup_s": self.setup_s,
                        "wall_s": [c.get("wall_s") for c in self.calls],
                        "traced": [c["traced"] for c in self.calls],
                        "predict_ms": [p["wall_s"] * 1e3 for p in self.predicts
                                       if "wall_s" in p]},
            "problems": [p for c in self.calls + self.predicts for p in c["problems"]][:50],
            "absent_targets": traced[0]["absent"] if traced else [],
            "counter_errors": sorted({e for t in traced for e in t["counter_errors"]}),
            "spans": traced[0]["spans"] if traced else [],
        }
        results = os.path.join(WORK, "results")
        os.makedirs(results, exist_ok=True)
        name = f"BENCH_{self.workload.name}_seed{self.seed}_trace{int(self.trace)}.json"
        with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        return record


def _mean_trace(traces: list[dict]) -> dict[str, float]:
    """Per-worker means of the layer self times and counts of traced workers."""
    totals: dict[str, float] = {}
    for t in traces:
        for source in (t["self_s"], t["counts"]):
            for key, value in source.items():
                totals[key] = totals.get(key, 0.0) + value
    return {k: v / len(traces) for k, v in totals.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "incmine", "cli.py")):
        print(f"error: no incmine sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, bool(args.trace))
    try:
        run.probe_setup()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run.measure(args.seconds)
    for traced in ((False, True) if args.trace else (False,)):
        if not any(c["traced"] == traced and "wall_s" in c for c in run.calls):
            problems = [p for c in run.calls for p in c["problems"]]
            print(f"error: no {'traced' if traced else 'untraced'} call completed; "
                  + "; ".join(problems[:3]), file=sys.stderr)
            return 2

    units = metric_units("per_layer" if args.trace else "end_to_end")
    metrics = run.per_layer(list(units)) if args.trace else run.end_to_end()
    if set(metrics) != set(units):
        print(f"error: computed metrics {sorted(metrics)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    record = run.write_record(metrics)

    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# inputs {json.dumps(record['inputs'], sort_keys=True)}")
    print(f"# reference {record['reference']}; "
          f"fail_ratio {record['fail_ratio']:.4f} "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    for problem in record["problems"][:10]:
        print(f"# problem: {problem}")
    for name, value in metrics.items():
        print(f"{name:<34} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
