"""Subcommand CLI composing the pipeline stages.

Exit codes: 0 success, 1 usage error, 2 data error. All outputs are
deterministic given identical inputs and seeds - reports carry no timestamps
and floats are serialized with a fixed format.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from io import StringIO
from typing import Optional

import numpy as np

from . import clustering, corpus as corpus_mod, langmodel, rules as rules_mod, vectors
from .errors import IncmineError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


@dataclass(frozen=True)
class PipelineConfig:
    """Aggregate configuration for a full pipeline run."""

    corpus_path: Optional[str] = None
    stopwords_path: Optional[str] = None
    ontology_path: Optional[str] = None
    embeddings_path: Optional[str] = None
    output_dir: str = "."
    use_tags: bool = True
    rules: rules_mod.MiningConfig = rules_mod.MiningConfig()
    cluster: clustering.ClusterConfig = clustering.ClusterConfig(sweep=(2, 100))
    variance_threshold: float = clustering.VARIANCE_THRESHOLD
    lm: langmodel.LmConfig = langmodel.LmConfig()

    def __post_init__(self):
        if not 0.0 <= self.variance_threshold <= 1.0:
            raise ValueError("variance_threshold must be in [0, 1]")

    @classmethod
    def defaults(cls) -> "PipelineConfig":
        """Stock configuration: 5000-token vocab, 128-d embedding, 2x100
        bidirectional units, 2x50 dense, 0.5 dropout, k sweep [2, 100] and
        the ``clustering.VARIANCE_THRESHOLD`` variance threshold."""
        return cls()

    def validate_paths(self):
        for label, path in (("corpus", self.corpus_path),
                            ("stopwords", self.stopwords_path),
                            ("ontology", self.ontology_path),
                            ("embeddings", self.embeddings_path)):
            if path is not None and not os.path.exists(path):
                raise FileNotFoundError(f"{label} path does not exist: {path}")


def parse_config_file(path) -> dict[str, str]:
    """Flat `section.key = value` lines; '#' comments and blank lines allowed."""
    cfg: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise IncmineError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


class _Resolver:
    """Flag value beats config file value beats default."""

    def __init__(self, args):
        self.args = args
        self.cfg = parse_config_file(args.config) if args.config else {}

    def get(self, flag_value, key, default, cast=str):
        if flag_value is not None:
            return flag_value
        if key in self.cfg:
            raw = self.cfg[key]
            return _parse_bool(raw) if cast is bool else cast(raw)
        return default


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_pre_config(res: _Resolver, args) -> corpus_mod.PreprocessConfig:
    stopwords_path = res.get(args.stopwords, "corpus.stopwords", None)
    if getattr(args, "no_stopwords", False):
        stopwords = frozenset()
    elif stopwords_path:
        stopwords = corpus_mod.load_stopwords(stopwords_path)
    else:
        stopwords = corpus_mod.default_stopwords()
    min_len = res.get(args.min_token_len, "corpus.min_token_len",
                      corpus_mod.PreprocessConfig.min_token_len, int)
    return corpus_mod.PreprocessConfig(stopwords=stopwords, min_token_len=min_len)


def _load_inputs(res: _Resolver, args):
    corpus_path = res.get(args.corpus, "paths.corpus", None)
    if corpus_path is None:
        raise _UsageError("a corpus is required (--corpus or paths.corpus)")
    fmt = res.get(args.format, "corpus.format", "csv")
    pre = _load_pre_config(res, args)
    loaded = corpus_mod.load_corpus(corpus_path, fmt=fmt,
                                    placeholders=pre.placeholders)
    ontology_path = res.get(args.ontology, "paths.ontology", None)
    ontology = corpus_mod.TagOntology.from_tsv(ontology_path) if ontology_path else None
    return loaded, pre, ontology


def _outdir(res: _Resolver, args) -> str:
    out = res.get(args.output_dir, "paths.output_dir", ".")
    os.makedirs(out, exist_ok=True)
    return out


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    res = _Resolver(args)
    loaded, pre, ontology = _load_inputs(res, args)
    out = _outdir(res, args)
    txs = corpus_mod.to_transactions(loaded, pre, ontology)
    top_k = res.get(args.top_k, "corpus.top_k", corpus_mod.TOP_WORDS, int)
    top = corpus_mod.top_frequent_words(loaded, top_k, pre)

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "items"])
    for t in txs.transactions:
        writer.writerow([t.id, " ".join(sorted(t.items))])
    _write_text(os.path.join(out, "transactions.csv"), buf.getvalue())

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["word", "count"])
    for word, count in top:
        writer.writerow([word, count])
    _write_text(os.path.join(out, "top_words.csv"), buf.getvalue())

    _write_json(os.path.join(out, "preprocess_report.json"), {
        "records": len(loaded),
        "dropped": loaded.provenance.dropped,
        "flagged": list(txs.flagged),
        "transactions": len(txs.transactions),
    })
    print(f"preprocess: {len(txs.transactions)} transactions "
          f"({loaded.provenance.dropped} dropped, {len(txs.flagged)} flagged) -> {out}")
    return 0


def cmd_mine_rules(args) -> int:
    res = _Resolver(args)
    loaded, pre, ontology = _load_inputs(res, args)
    out = _outdir(res, args)
    txs = corpus_mod.to_transactions(loaded, pre, ontology)
    n = len(txs.transactions)
    idf_max = res.get(args.idf_max, "rules.idf_max", None, float)
    if idf_max is None:
        idf_max = max(math.log(n) - 0.1, 0.2)  # default band caps hapaxes
    defaults = rules_mod.MiningConfig
    config = rules_mod.MiningConfig(
        minsupp=res.get(args.minsupp, "rules.minsupp", defaults.minsupp, float),
        mincnf=res.get(args.mincnf, "rules.mincnf", defaults.mincnf, float),
        # the CLI's band floor drops ubiquitous items; MiningConfig's is 0.0
        idf_min=res.get(args.idf_min, "rules.idf_min", 0.1, float),
        idf_max=idf_max,
        max_itemset_size=res.get(args.max_itemset_size, "rules.max_itemset_size",
                                 defaults.max_itemset_size, int),
        require_lift_gt1=res.get(False if args.allow_lift_le1 else None,
                                 "rules.require_lift_gt1",
                                 defaults.require_lift_gt1, bool),
    )
    mined = rules_mod.fisinfis_mine(txs.transactions, config)
    _write_text(os.path.join(out, "rules.csv"), rules_mod.rules_to_csv(mined))
    _write_text(os.path.join(out, "rules.dot"), rules_mod.export_rule_graph(mined))
    n_par = sum(1 for r in mined if r.is_par)
    print(f"mine-rules: {len(mined)} rules ({n_par} PAR, {len(mined) - n_par} NAR) "
          f"from {n} transactions -> {out}")
    return 0


def _cluster_and_report(points, ids, res, args, out, metric_default) -> dict:
    metric = res.get(args.metric, "clustering.metric", metric_default)
    defaults = clustering.ClusterConfig
    seed = res.get(args.seed, "clustering.seed", defaults.seed, int)
    max_iter = res.get(args.max_iter, "clustering.max_iter", defaults.max_iter, int)
    if args.k is not None and args.k_range is not None:
        raise _UsageError("--k and --k-range are mutually exclusive")
    k = res.get(args.k, "clustering.k", None, int)
    if args.k_range is not None:
        lo, hi = args.k_range
        best, report = clustering.sweep_k(points, lo, hi, metric=metric,
                                          seed=seed, max_iter=max_iter)
        table = [[kk, cost, sil] for kk, cost, sil in report.entries]
        swap_passes = [[kk, passes] for kk, passes in report.swap_passes]
        max_iter_hits = list(report.max_iter_hits)
        truncated = report.truncated
    else:
        if k is None:
            raise _UsageError("either --k or --k-range is required")
        cfg = clustering.ClusterConfig(k=k, metric=metric, max_iter=max_iter,
                                       seed=seed)
        best = clustering.kmedoids_fit(points, cfg)
        table = [[k, best.cost, best.silhouette]]
        swap_passes = [[k, best.swap_passes]]
        max_iter_hits = [k] if best.swap_hit_max_iter else []
        truncated = False
    if max_iter_hits:
        print(f"warning: SWAP used all max_iter={max_iter} passes for "
              f"k={', '.join(map(str, max_iter_hits))}; the medoids may not be a "
              f"local optimum", file=sys.stderr)

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "cluster"])
    for rid, label in zip(ids, best.labels):
        writer.writerow([rid, int(label)])
    _write_text(os.path.join(out, "clusters.csv"), buf.getvalue())

    summary = {
        "k": len(best.medoids),
        "cost": best.cost,
        "silhouette": best.silhouette,
        "medoid_ids": [ids[m] for m in best.medoids],
        "per_k_table": table,
        "swap_passes": swap_passes,
        "metric": metric,
        "seed": seed,
        "truncated": truncated,
    }
    return summary


def cmd_cluster_tfidf(args) -> int:
    res = _Resolver(args)
    loaded, pre, ontology = _load_inputs(res, args)
    out = _outdir(res, args)
    docs = vectors.corpus_term_counts(loaded, pre, ontology)
    index = vectors.build_term_index(docs)
    matrix = vectors.tfidf_matrix(docs, index)
    _write_text(os.path.join(out, "tfidf_matrix.txt"), matrix.to_coo_text())
    summary = _cluster_and_report(matrix.toarray(), list(loaded.ids), res, args,
                                  out, metric_default="cosine")
    summary["n_terms"] = matrix.n_cols
    _write_json(os.path.join(out, "cluster_summary.json"), summary)
    print(f"cluster-tfidf: k={summary['k']} silhouette={summary['silhouette']:.4f} "
          f"over {matrix.n_rows}x{matrix.n_cols} tf-idf matrix -> {out}")
    return 0


def cmd_cluster_embeddings(args) -> int:
    res = _Resolver(args)
    out = _outdir(res, args)
    emb_path = res.get(args.embeddings, "paths.embeddings", None)
    if emb_path is None:
        raise _UsageError("an embedding file is required (--embeddings)")
    fmt = args.embeddings_format
    if fmt is None:
        fmt = "binary" if str(emb_path).endswith(".bin") else "text"
    matrix = clustering.load_embeddings(emb_path, fmt=fmt)
    if args.ids:
        ids = clustering.load_embedding_ids(args.ids)
        if len(ids) != matrix.n_rows:
            raise IncmineError(
                f"id list has {len(ids)} entries, embeddings have {matrix.n_rows} rows")
    else:
        ids = [str(i) for i in range(matrix.n_rows)]
    threshold = res.get(args.variance_threshold,
                        "clustering.variance_threshold",
                        clustering.VARIANCE_THRESHOLD, float)
    batch_size = res.get(args.batch_size, "clustering.batch_size", None, int)
    # fit and reduce on the same matrix: the reduction is in-sample
    model = clustering.ipca_fit(matrix.values, batch_size=batch_size)
    reduced, m = clustering.reduce_to_variance(model, matrix.values, threshold)
    summary = _cluster_and_report(reduced, ids, res, args, out,
                                  metric_default="euclidean")
    summary["reduced_dims"] = m
    summary["explained"] = float(np.cumsum(model.explained_variance_ratio)[m - 1])
    _write_json(os.path.join(out, "cluster_summary.json"), summary)
    print(f"cluster-embeddings: k={summary['k']} dims={m} "
          f"silhouette={summary['silhouette']:.4f} -> {out}")
    return 0


def cmd_train_lm(args) -> int:
    res = _Resolver(args)
    loaded, pre, _ = _load_inputs(res, args)
    out = _outdir(res, args)
    defaults = langmodel.LmConfig
    config = langmodel.LmConfig(
        vocab_size=res.get(args.vocab_size, "lm.vocab_size", defaults.vocab_size, int),
        embed_dim=res.get(args.embed_dim, "lm.embed_dim", defaults.embed_dim, int),
        recurrent_units=res.get(args.recurrent_units, "lm.recurrent_units",
                                defaults.recurrent_units, int),
        dense_units=res.get(args.dense_units, "lm.dense_units", defaults.dense_units, int),
        dropout_rate=res.get(args.dropout, "lm.dropout_rate", defaults.dropout_rate, float),
        seq_len=res.get(args.seq_len, "lm.seq_len", defaults.seq_len, int),
        learning_rate=res.get(args.lr, "lm.learning_rate", defaults.learning_rate, float),
        batch_size=res.get(args.batch_size, "lm.batch_size", defaults.batch_size, int),
        epochs=res.get(args.epochs, "lm.epochs", defaults.epochs, int),
        seed=res.get(args.seed, "lm.seed", defaults.seed, int),
    )
    texts = [corpus_mod.preprocess(r.dynamics, pre) for r in loaded]
    texts += [corpus_mod.preprocess(r.consequence, pre) for r in loaded]
    vocab = langmodel.fit_vocab(texts, cap=config.vocab_size)
    pairs = langmodel.make_train_pairs(loaded, vocab, config, pre)
    model, history = langmodel.train(pairs, config, vocab)
    model_dir = os.path.join(out, "model")
    langmodel.save_model(model, model_dir)
    _write_json(os.path.join(out, "training_history.json"), {"loss": history})
    final = history[-1] if history else float("nan")
    print(f"train-lm: {len(pairs)} pairs, {config.epochs} epochs, "
          f"final loss {final:.6f} -> {model_dir}")
    return 0


def cmd_predict(args) -> int:
    res = _Resolver(args)
    out = _outdir(res, args)
    model = langmodel.load_model(args.model)
    pre = _load_pre_config(res, args)
    top = langmodel.predict_consequence(model, args.text, top_k=args.top_k, pre=pre)
    _write_json(os.path.join(out, "prediction.json"), {
        "text": args.text,
        "top": [[token, prob] for token, prob in top],
    })
    shown = " ".join(tok for tok, _ in top[:5])
    print(f"predict: {shown} -> {out}/prediction.json")
    return 0


# --------------------------------------------------------------------------
# parser wiring
# --------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--output-dir", default=None, help="directory for outputs")
    sub.add_argument("--seed", type=int, default=None, help="deterministic seed")


def _add_corpus_opts(sub):
    sub.add_argument("--corpus", help="corpus CSV/JSONL path")
    sub.add_argument("--format", choices=("csv", "jsonl"), default=None)
    sub.add_argument("--stopwords", help="stopword file (default: bundled Italian)")
    sub.add_argument("--no-stopwords", action="store_true",
                     help="disable stopword removal")
    sub.add_argument("--ontology", help="word<TAB>TAG substitution file")
    sub.add_argument("--min-token-len", type=int, default=None)


def _add_cluster_opts(sub):
    sub.add_argument("--k", type=int, default=None, help="fixed cluster count")
    sub.add_argument("--k-range", type=int, nargs=2, metavar=("LO", "HI"),
                     default=None, help="sweep k over [LO, HI], pick by silhouette")
    sub.add_argument("--metric", choices=clustering.METRICS, default=None)
    sub.add_argument("--max-iter", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="incmine",
                     description="Mine rules, cluster descriptions and predict "
                                 "consequences from incident-report text.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("preprocess", help="tokenize corpus into transactions")
    _add_common(sub)
    _add_corpus_opts(sub)
    sub.add_argument("--top-k", type=int, default=None,
                     help="how many frequent words to report "
                          f"(default {corpus_mod.TOP_WORDS})")
    sub.set_defaults(func=cmd_preprocess)

    sub = subs.add_parser("mine-rules",
                          help="mine positive/negative association rules")
    _add_common(sub)
    _add_corpus_opts(sub)
    sub.add_argument("--minsupp", type=float, default=None)
    sub.add_argument("--mincnf", type=float, default=None)
    sub.add_argument("--idf-min", type=float, default=None)
    sub.add_argument("--idf-max", type=float, default=None)
    sub.add_argument("--max-itemset-size", type=int, default=None)
    sub.add_argument("--allow-lift-le1", action="store_true",
                     help="also admit rules whose lift does not exceed 1")
    sub.set_defaults(func=cmd_mine_rules)

    sub = subs.add_parser("cluster-tfidf",
                          help="k-medoids over tf-idf rows (tag-substituted "
                               "when an ontology is given)")
    _add_common(sub)
    _add_corpus_opts(sub)
    _add_cluster_opts(sub)
    sub.set_defaults(func=cmd_cluster_tfidf)

    sub = subs.add_parser("cluster-embeddings",
                          help="reduce an external embedding matrix with "
                               "incremental PCA, then k-medoids (the PCA is "
                               "fit on the matrix it reduces)")
    _add_common(sub)
    _add_cluster_opts(sub)
    sub.add_argument("--embeddings", help="embedding matrix file")
    sub.add_argument("--embeddings-format", choices=("text", "binary"),
                     default=None, help="default: by extension (.bin = binary)")
    sub.add_argument("--ids", help="companion sentence-id file")
    sub.add_argument("--variance-threshold", type=float, default=None,
                     help="explained-variance target "
                          f"(default {clustering.VARIANCE_THRESHOLD})")
    sub.add_argument("--batch-size", type=int, default=None,
                     help="incremental PCA batch rows")
    sub.set_defaults(func=cmd_cluster_embeddings)

    sub = subs.add_parser("train-lm", help="train the consequence predictor")
    _add_common(sub)
    _add_corpus_opts(sub)
    sub.add_argument("--vocab-size", type=int, default=None)
    sub.add_argument("--embed-dim", type=int, default=None)
    sub.add_argument("--recurrent-units", type=int, default=None)
    sub.add_argument("--dense-units", type=int, default=None)
    sub.add_argument("--dropout", type=float, default=None)
    sub.add_argument("--seq-len", type=int, default=None)
    sub.add_argument("--lr", type=float, default=None)
    sub.add_argument("--batch-size", type=int, default=None)
    sub.add_argument("--epochs", type=int, default=None)
    sub.set_defaults(func=cmd_train_lm)

    sub = subs.add_parser("predict", help="rank consequence tokens for a text")
    _add_common(sub)
    sub.add_argument("--model", required=True, help="model artifact directory")
    sub.add_argument("--text", required=True, help="dynamics description")
    sub.add_argument("--top-k", type=int, default=10)
    sub.add_argument("--stopwords", help="stopword file (default: bundled Italian)")
    sub.add_argument("--no-stopwords", action="store_true")
    sub.add_argument("--min-token-len", type=int, default=None)
    sub.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (IncmineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
