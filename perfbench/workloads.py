"""The four workloads: generated inputs, the measured CLI call and its checks.

Why each workload exists, and which layer metrics should move its end-to-end
metrics, is written down in LAYERS.md next to this file.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import checks
import inputs

MINE_ROWS = 3000          # 2970 records after the 1 % placeholder rows
MINE_IDF_MAX = 4.0        # narrowed band: the stock band exceeds MAX_LATTICE_CANDIDATES
MINE_IDF_MIN = 0.1        # the CLI default
MINE_MAX_SIZE = 3
SWEEP_ROWS = 1000
TFIDF_ROWS = 3000         # 2970 records
LM_ROWS = 517             # 512 records, so 512 training pairs
LM_EPOCHS = 1
PREDICT_TEXTS = 100       # distinct texts predicted per run ...
PREDICTS_PER_MODEL = 25   # ... a quarter after each training call, so a run trains often


@dataclass
class Inputs:
    paths: dict[str, str]
    rows: int                               # the unit rows_per_s counts
    sizes: dict[str, object]
    ids: list[str] = field(default_factory=list)
    transactions: tuple = ()
    texts: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    row_unit: str
    prepare: Callable[[int, str], Inputs]
    argv: Callable[[Inputs, str], list[str]]
    check: Callable[[Inputs, str], list[str]]
    digested: tuple[str, ...] = ()
    predicts: bool = False
    min_calls: int = 1        # untraced main calls every run makes


def _write(path, data: bytes) -> str:
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _corpus_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [r for r in rows if r[1].strip() not in inputs.PLACEHOLDERS]


def _transactions(path):
    from incmine import corpus
    pre = corpus.PreprocessConfig(stopwords=corpus.default_stopwords())
    return corpus.to_transactions(corpus.load_corpus(path), pre).transactions


# -- mine -------------------------------------------------------------------

def _mine_prepare(seed, directory):
    path = _write(os.path.join(directory, "corpus.csv"), inputs.corpus_csv(seed, MINE_ROWS))
    txs = _transactions(path)
    n = len(txs)
    df = Counter(item for t in txs for item in t.items)
    kept = sum(1 for d in df.values() if MINE_IDF_MIN <= math.log(n / d) <= MINE_IDF_MAX)
    candidates = sum(math.comb(kept, s) for s in range(1, MINE_MAX_SIZE + 1))
    records = len(_corpus_rows(path))
    return Inputs(paths={"corpus": path}, rows=records,
                  sizes={"rows_in_file": MINE_ROWS, "records": records,
                         "transactions": n, "items_kept": kept, "candidates": candidates},
                  transactions=txs)


def _mine_argv(inp, out):
    return ["mine-rules", "--corpus", inp.paths["corpus"],
            "--max-itemset-size", str(MINE_MAX_SIZE), "--idf-max", str(MINE_IDF_MAX),
            "--output-dir", out]


def _mine_check(inp, out):
    return checks.check_rules(out, inp.transactions)


# -- cluster_sweep ----------------------------------------------------------

def _sweep_prepare(seed, directory):
    path = _write(os.path.join(directory, "embeddings.bin"),
                  inputs.embeddings_bin(seed, SWEEP_ROWS))
    return Inputs(paths={"embeddings": path}, rows=SWEEP_ROWS,
                  sizes={"n": SWEEP_ROWS, "d": inputs.EMBED_DIM,
                         "reduced_dims": inputs.EMBED_REDUCED_DIMS, "k_range": [2, 25]},
                  ids=[str(i) for i in range(SWEEP_ROWS)])


def _sweep_argv(inp, out):
    return ["cluster-embeddings", "--embeddings", inp.paths["embeddings"],
            "--batch-size", "250", "--k-range", "2", "25", "--output-dir", out]


def _sweep_check(inp, out):
    problems = checks.check_clusters(out, inp.ids)
    with open(os.path.join(out, "cluster_summary.json"), encoding="utf-8") as fh:
        dims = json.load(fh)["reduced_dims"]
    if dims != inputs.EMBED_REDUCED_DIMS:
        problems.append(f"reduced to {dims} dims, generator planted {inputs.EMBED_REDUCED_DIMS}")
    return problems


# -- cluster_tfidf ----------------------------------------------------------

def _tfidf_prepare(seed, directory):
    path = _write(os.path.join(directory, "corpus.csv"), inputs.corpus_csv(seed, TFIDF_ROWS))
    onto = _write(os.path.join(directory, "ontology.tsv"), inputs.ontology_tsv(seed))
    rows = _corpus_rows(path)
    return Inputs(paths={"corpus": path, "ontology": onto}, rows=len(rows),
                  sizes={"rows_in_file": TFIDF_ROWS, "records": len(rows), "k": 8},
                  ids=[r[0] for r in rows])


def _tfidf_argv(inp, out):
    return ["cluster-tfidf", "--corpus", inp.paths["corpus"],
            "--ontology", inp.paths["ontology"], "--k", "8", "--output-dir", out]


def _tfidf_check(inp, out):
    return checks.check_clusters(out, inp.ids)


# -- lm ---------------------------------------------------------------------

def _lm_prepare(seed, directory):
    path = _write(os.path.join(directory, "corpus.csv"), inputs.corpus_csv(seed, LM_ROWS))
    rows = _corpus_rows(path)
    return Inputs(paths={"corpus": path}, rows=len(rows) * LM_EPOCHS,
                  sizes={"rows_in_file": LM_ROWS, "pairs": len(rows), "epochs": LM_EPOCHS,
                         "predict_texts": PREDICT_TEXTS},
                  texts=[r[1] for r in rows[:PREDICT_TEXTS]])


def _lm_argv(inp, out):
    return ["train-lm", "--corpus", inp.paths["corpus"], "--epochs", str(LM_EPOCHS),
            "--output-dir", out]


def _lm_check(inp, out):
    return checks.check_training(out)


def predict_calls(inp: Inputs, out: str, index: int) -> list[tuple[list[str], str, str]]:
    """(argv, text, prediction.json path) of the predict calls after main call index."""
    model = os.path.join(out, "model")
    calls = []
    for i in range(PREDICTS_PER_MODEL):
        text = inp.texts[(index * PREDICTS_PER_MODEL + i) % len(inp.texts)]
        pred_dir = os.path.join(out, "predict", f"{i:03d}")
        calls.append((["predict", "--model", model, "--text", text, "--output-dir", pred_dir],
                      text, os.path.join(pred_dir, "prediction.json")))
    return calls


WORKLOADS = {w.name: w for w in (
    Workload("mine", "records", _mine_prepare, _mine_argv, _mine_check,
             digested=("rules.csv", "rules.dot")),
    Workload("cluster_sweep", "embedding rows", _sweep_prepare, _sweep_argv, _sweep_check,
             digested=("clusters.csv",)),
    Workload("cluster_tfidf", "records", _tfidf_prepare, _tfidf_argv, _tfidf_check,
             digested=("clusters.csv", "tfidf_matrix.txt")),
    Workload("lm", "training pairs x epochs", _lm_prepare, _lm_argv, _lm_check,
             predicts=True, min_calls=PREDICT_TEXTS // PREDICTS_PER_MODEL),
)}


def found_outputs(workload: Workload, out: str) -> dict:
    """What the reference pins for one call: output digests, and the lm loss."""
    found: dict[str, Optional[object]] = checks.digests(out, workload.digested)
    if workload.predicts:
        found["loss"] = checks.training_loss(out)
    return found
