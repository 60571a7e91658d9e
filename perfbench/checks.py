"""Output checks; each ``check_*`` returns a list of problems.

The checks run in the benchmark's parent process, after the measured worker
has exited, so they are outside every timed region.  ``guarded`` turns an
exception inside a check (a truncated file, a missing key) into a problem,
so a corrupted output counts as a failed call instead of ending the run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

RULE_SAMPLE = 25          # rules recomputed with rules.rule_metrics per call
LOSS_TOLERANCE = 1e-3     # relative; float32 rounding may change, the loss may not
TOP_K = 10                # predict's default --top-k


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def guarded(check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as exc:  # a check must report, never end the run
        return [f"{check.__name__} raised {type(exc).__name__}: {exc}"]


def digests(outdir, names) -> dict[str, str]:
    return {name: sha256(os.path.join(outdir, name)) for name in names}


def compare_reference(found: dict, reference) -> list[str]:
    """Digest (and loss) mismatches against the recorded reference, if any."""
    if reference is None:
        return []
    problems = [f"{name} digest {found.get(name)} != reference {want}"
                for name, want in reference.items()
                if name != "loss" and found.get(name) != want]
    if "loss" in reference:
        loss, want = found.get("loss"), reference["loss"]
        if loss is None or abs(loss - want) > LOSS_TOLERANCE * max(1.0, abs(want)):
            problems.append(f"loss {loss} not within {LOSS_TOLERANCE} of reference {want}")
    return problems


def check_rules(outdir, transactions) -> list[str]:
    """Recompute a fixed sample of rules.csv rows with rules.rule_metrics."""
    from incmine.rules import Itemset, rule_metrics

    with open(os.path.join(outdir, "rules.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    if header != ["antecedent", "consequent", "neg_a", "neg_c",
                  "support", "confidence", "lift"]:
        return [f"rules.csv header {header}"]
    if not body:
        return ["rules.csv has no rules"]
    problems = []
    picks = sorted({round(i * (len(body) - 1) / (RULE_SAMPLE - 1))
                    for i in range(RULE_SAMPLE)})
    for i in picks:
        a, c, neg_a, neg_c, *values = body[i]
        m = rule_metrics(Itemset(a.split("+")), Itemset(c.split("+")),
                         neg_a == "1", neg_c == "1", transactions)
        want = [f"{m.support:.6f}", f"{m.confidence:.6f}", f"{m.lift:.6f}"]
        if values != want:
            problems.append(f"rules.csv row {i + 2}: {values} != recomputed {want}")
    return problems


def check_clusters(outdir, ids) -> list[str]:
    """One label per input row, in input order; best k is the first max silhouette."""
    with open(os.path.join(outdir, "clusters.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(os.path.join(outdir, "cluster_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    problems = []
    if rows[0] != ["id", "cluster"]:
        problems.append(f"clusters.csv header {rows[0]}")
    if [r[0] for r in rows[1:]] != list(ids):
        problems.append(f"clusters.csv has {len(rows) - 1} rows, "
                        f"not one per input row ({len(ids)}) in input order")
    k = summary["k"]
    if any(not 0 <= int(r[1]) < k for r in rows[1:]):
        problems.append(f"clusters.csv has a label outside [0, {k})")
    table = summary["per_k_table"]
    best = max(sil for _, _, sil in table)
    first_best = next(kk for kk, _, sil in table if sil == best)
    if k != first_best or summary["silhouette"] != best:
        problems.append(f"summary picks k={k}, silhouette table picks k={first_best}")
    if len(summary["medoid_ids"]) != k:
        problems.append(f"{len(summary['medoid_ids'])} medoids for k={k}")
    return problems


def training_loss(outdir) -> float:
    with open(os.path.join(outdir, "training_history.json"), encoding="utf-8") as fh:
        return json.load(fh)["loss"][-1]


def check_training(outdir) -> list[str]:
    loss = training_loss(outdir)
    return [] if math.isfinite(loss) else [f"training loss {loss} is not finite"]


def model_vocab(outdir) -> set[str]:
    with open(os.path.join(outdir, "model", "manifest.json"), encoding="utf-8") as fh:
        return set(json.load(fh)["vocab"])


def check_prediction(path, text, vocab) -> list[str]:
    """top-k distinct vocabulary tokens, never PAD/UNK, probabilities non-increasing."""
    with open(path, encoding="utf-8") as fh:
        pred = json.load(fh)
    top = pred["top"]
    tokens = [tok for tok, _ in top]
    probs = [p for _, p in top]
    problems = []
    if pred["text"] != text:
        problems.append("prediction.json echoes another text")
    if len(top) != TOP_K or len(set(tokens)) != TOP_K:
        problems.append(f"{len(top)} predictions, {len(set(tokens))} distinct; want {TOP_K}")
    if any(tok in ("<pad>", "<unk>") or tok not in vocab for tok in tokens):
        problems.append("prediction outside the model vocabulary, or PAD/UNK")
    if any(not 0.0 <= p <= 1.0 for p in probs) or probs != sorted(probs, reverse=True):
        problems.append("prediction probabilities not in [0, 1] or not non-increasing")
    return problems
