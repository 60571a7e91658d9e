"""Subcommand CLI composing the pipeline stages.

Exit codes: 0 success, 1 usage error, 2 data error. All outputs are
deterministic given identical inputs and flags - reports carry no timestamps
and floats are serialized with a fixed format.

Each flag that a ``--config`` file may set declares its config key where the
flag is added (``_Parser.setting``). The file is applied once, before the
subcommand runs; the subcommands then build ``PreprocessConfig``,
``MiningConfig``, ``ClusterConfig`` and ``LmConfig`` from the values that
were set, by field name, so the dataclass defaults are the only defaults.

A call loads only what its subcommand runs: the stage modules (``corpus``,
``rules``, ``vectors``, ``clustering``, ``langmodel``) are imported by the
functions that use them, and ``main`` adds the flags of the one subcommand
it runs (``build_parser(command)``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import json
import os
import shutil
import sys
import tempfile
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from .errors import IncmineError, check_allocation, strict_float, strict_int

if TYPE_CHECKING:
    from . import clustering, corpus as corpus_mod


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors raised, and the config-file keys of its flags.

    ``settings`` maps each config key a flag declares to the flag's dest and
    the cast that reads the key's value from the file.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.settings: dict[str, tuple[str, Callable[[str], object]]] = {}

    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)

    def setting(self, flag, key, *, cast=None, group=None, **kwargs):
        """Add ``flag``; when it is absent, config key ``key`` (if not None)
        sets its dest, read with ``cast`` (by default the flag's ``type``)."""
        action = (group or self).add_argument(flag, **kwargs)
        if key is not None:
            self.settings[key] = (action.dest, cast or action.type or str)
        return action


def parse_config_file(path) -> dict[str, str]:
    """Flat `section.key = value` lines; '#' comments and blank lines allowed."""
    cfg: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
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


def _apply_config(args, commands) -> None:
    """Set each flag left out from the ``--config`` file: a flag beats the
    file, and the file beats the defaults of the dataclasses and functions
    the values go to. A key no subcommand declares is a usage error; another
    subcommand's key is ignored, so one file serves the whole pipeline."""
    values = parse_config_file(args.config)
    known = set().union(*(sub.settings for sub in commands.values()))
    unknown = sorted(values.keys() - known)
    if unknown:
        raise _UsageError(f"{args.config}: unknown config key "
                          f"{', '.join(map(repr, unknown))}")
    settings = commands[args.command].settings
    for key, raw in values.items():
        if key not in settings:
            continue
        dest, cast = settings[key]
        if getattr(args, dest) is None:
            try:
                setattr(args, dest, cast(raw))
            except ValueError as exc:
                raise IncmineError(f"{args.config}: {key}: {exc}") from exc


def _given(args, target) -> dict:
    """Keyword arguments for ``target``, a config dataclass or a function:
    each of its defaulted parameters that a flag or the config file set, by
    name. ``target``'s own defaults fill the rest."""
    return {name: getattr(args, name)
            for name, param in inspect.signature(target).parameters.items()
            if param.default is not param.empty
            and getattr(args, name, None) is not None}


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _pre_config(args) -> corpus_mod.PreprocessConfig:
    from . import corpus as corpus_mod

    if args.no_stopwords:
        stopwords = frozenset()
    elif args.stopwords_file is not None:
        stopwords = corpus_mod.load_stopwords(args.stopwords_file)
    else:
        stopwords = corpus_mod.default_stopwords()
    return corpus_mod.PreprocessConfig(stopwords=stopwords,
                                       **_given(args, corpus_mod.PreprocessConfig))


def _load_inputs(args):
    from . import corpus as corpus_mod

    if args.corpus is None:
        raise _UsageError("a corpus is required (--corpus or paths.corpus)")
    pre = _pre_config(args)
    return corpus_mod.load_corpus(args.corpus, **_given(args, corpus_mod.load_corpus)), pre


def _ontology(args):
    from . import corpus as corpus_mod

    return None if args.ontology is None else corpus_mod.TagOntology.from_tsv(args.ontology)


@contextlib.contextmanager
def _output_set(args):
    """Make the output directory and a fresh ``.incmine-*`` stage inside it,
    on the same file system, and yield ``(out, stage)``. A subcommand enters
    just before its first write, so a refused call makes no directory, and
    writes every output into the stage. On success each entry is renamed
    into ``out`` in sorted name order; a directory (``model/``) swaps with
    the one it replaces, which is put back if the swap fails. The stage is
    removed in every case, so a failed call leaves ``out`` as it was.
    """
    out = "." if args.output_dir is None else args.output_dir
    os.makedirs(out, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".incmine-", dir=out)
    try:
        yield out, stage
        for name in sorted(os.listdir(stage)):
            new, dest = os.path.join(stage, name), os.path.join(out, name)
            if os.path.isdir(new) and os.path.isdir(dest):
                os.rename(dest, new + ".old")
                try:
                    os.rename(new, dest)
                except BaseException:
                    os.rename(new + ".old", dest)
                    raise
            else:
                os.replace(new, dest)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    from . import corpus as corpus_mod

    loaded, pre = _load_inputs(args)
    txs = corpus_mod.to_transactions(loaded, pre, _ontology(args))
    top = corpus_mod.top_frequent_words(loaded, pre,
                                        **_given(args, corpus_mod.top_frequent_words))

    with _output_set(args) as (out, stage):
        _write_csv(os.path.join(stage, "transactions.csv"), ["id", "items"],
                   ([t.id, " ".join(sorted(t.items))] for t in txs.transactions))
        _write_csv(os.path.join(stage, "top_words.csv"), ["word", "count"], top)
        _write_json(os.path.join(stage, "preprocess_report.json"), {
            "records": len(loaded),
            "dropped": loaded.dropped,
            "flagged": list(txs.flagged),
            "transactions": len(txs.transactions),
        })
    print(f"preprocess: {len(txs.transactions)} transactions "
          f"({loaded.dropped} dropped, {len(txs.flagged)} flagged) -> {out}")
    return 0


def cmd_mine_rules(args) -> int:
    from . import corpus as corpus_mod, rules as rules_mod

    loaded, pre = _load_inputs(args)
    txs = corpus_mod.to_transactions(loaded, pre, _ontology(args))
    n = len(txs.transactions)
    config = rules_mod.MiningConfig(**_given(args, rules_mod.MiningConfig))
    mined = rules_mod.fisinfis_mine(txs.transactions, config)
    with _output_set(args) as (out, stage):
        for name, export in (("rules.csv", rules_mod.rules_to_csv),
                             ("rules.dot", rules_mod.export_rule_graph)):
            with open(os.path.join(stage, name), "wb") as fh:
                export(mined, fh)
    n_par = len(mined) - int(np.count_nonzero(mined.neg_antecedent | mined.neg_consequent))
    print(f"mine-rules: {len(mined)} rules ({n_par} PAR, {len(mined) - n_par} NAR) "
          f"from {n} transactions -> {out}")
    return 0


def _cluster_config(args, **defaults) -> clustering.ClusterConfig:
    """The ``ClusterConfig`` the flags set; ``defaults`` overrides its own.

    ``--k K`` (or ``clustering.k``) is the range (K, K); ``--k-range`` beats
    ``clustering.k`` from a config file."""
    from . import clustering

    k_range = args.k_range
    if k_range is None:
        if args.k is None:
            raise _UsageError("either --k or --k-range is required")
        k_range = (args.k, args.k)
    return clustering.ClusterConfig(
        k_range=tuple(k_range), **{**defaults, **_given(args, clustering.ClusterConfig)})


def _cluster_and_report(points, ids, config) -> tuple[Iterator, dict]:
    """k-medoids over ``points``: the rows of clusters.csv and the summary."""
    from . import clustering

    best, report = clustering.sweep_k(points, config)
    unconverged = [k for k, fit in report.fits if fit.swap_passes >= config.max_iter]
    if unconverged:
        print(f"warning: SWAP used all max_iter={config.max_iter} passes for "
              f"k={', '.join(map(str, unconverged))}; the medoids may not be a "
              f"local optimum", file=sys.stderr)

    return zip(ids, best.labels.tolist()), {
        "k": len(best.medoids),
        "cost": best.cost,
        "silhouette": best.silhouette,
        "medoid_ids": [ids[m] for m in best.medoids],
        "per_k_table": [[k, fit.cost, fit.silhouette] for k, fit in report.fits],
        "swap_passes": [[k, fit.swap_passes] for k, fit in report.fits],
        "metric": config.metric,
        "truncated": report.truncated,
    }


def cmd_cluster_tfidf(args) -> int:
    from . import vectors

    loaded, pre = _load_inputs(args)
    ontology = _ontology(args)
    config = _cluster_config(args, metric="cosine")
    matrix = vectors.tfidf_matrix(vectors.corpus_term_counts(loaded, pre, ontology))
    n_rows, n_cols = matrix.n_rows, matrix.n_cols
    # refuse before clustering: the n x n distances, then the dense n x V rows
    # (the unit rows of cosine distances, or the densified matrix of euclidean)
    check_allocation(n_rows * n_rows * 8, f"the distance matrix of {n_rows} points")
    check_allocation(n_rows * n_cols * 8, f"the dense {n_rows} x {n_cols} tf-idf matrix")
    clusters, summary = _cluster_and_report(matrix, loaded.ids, config)
    summary["n_terms"] = n_cols
    with _output_set(args) as (out, stage):
        _write_text(os.path.join(stage, "tfidf_matrix.txt"), matrix.to_coo_text())
        _write_csv(os.path.join(stage, "clusters.csv"), ["id", "cluster"], clusters)
        _write_json(os.path.join(stage, "cluster_summary.json"), summary)
    print(f"cluster-tfidf: k={summary['k']} silhouette={summary['silhouette']:.4f} "
          f"over {n_rows}x{n_cols} tf-idf matrix -> {out}")
    return 0


def cmd_cluster_embeddings(args) -> int:
    from . import clustering

    if args.embeddings is None:
        raise _UsageError("an embedding file is required (--embeddings)")
    config = _cluster_config(args)
    fmt = args.embeddings_format
    if fmt is None:
        fmt = "binary" if str(args.embeddings).endswith(".bin") else "text"
    matrix = clustering.load_embeddings(args.embeddings, fmt=fmt)
    if args.ids is not None:
        ids = clustering.load_embedding_ids(args.ids)
        if len(ids) != len(matrix):
            raise IncmineError(
                f"id list has {len(ids)} entries, embeddings have {len(matrix)} rows")
    else:
        ids = [str(i) for i in range(len(matrix))]
    # fit and reduce on the same matrix: the reduction is in-sample
    model = clustering.ipca_fit(matrix, **_given(args, clustering.ipca_fit))
    reduced, m = clustering.reduce_to_variance(
        model, matrix, **_given(args, clustering.reduce_to_variance))
    clusters, summary = _cluster_and_report(reduced, ids, config)
    summary["reduced_dims"] = m
    summary["explained"] = float(np.cumsum(model.explained_variance_ratio)[m - 1])
    with _output_set(args) as (out, stage):
        _write_csv(os.path.join(stage, "clusters.csv"), ["id", "cluster"], clusters)
        _write_json(os.path.join(stage, "cluster_summary.json"), summary)
    print(f"cluster-embeddings: k={summary['k']} dims={m} "
          f"silhouette={summary['silhouette']:.4f} -> {out}")
    return 0


def cmd_train_lm(args) -> int:
    from . import corpus as corpus_mod, langmodel

    loaded, pre = _load_inputs(args)
    config = langmodel.LmConfig(**_given(args, langmodel.LmConfig))
    dynamics = list(corpus_mod.tokenize(loaded.dynamics, pre))
    consequences = list(corpus_mod.tokenize(loaded.consequences, pre))
    vocab = langmodel.fit_vocab(dynamics + consequences, cap=config.vocab_size)
    ids, targets = langmodel.make_train_pairs(dynamics, consequences, vocab, config)
    model, history = langmodel.train(ids, targets, config, vocab, pre)
    with _output_set(args) as (out, stage):
        langmodel.save_model(model, os.path.join(stage, "model"))
        _write_json(os.path.join(stage, "training_history.json"), {"loss": history})
    final = history[-1] if history else float("nan")
    print(f"train-lm: {len(ids)} pairs, {config.epochs} epochs, "
          f"final loss {final:.6f} -> {os.path.join(out, 'model')}")
    return 0


def cmd_predict(args) -> int:
    from . import langmodel

    model = langmodel.load_model(args.model)
    top = langmodel.predict_consequence(model, args.text,
                                        **_given(args, langmodel.predict_consequence))
    with _output_set(args) as (out, stage):
        _write_json(os.path.join(stage, "prediction.json"), {
            "text": args.text,
            "top": [[token, prob] for token, prob in top],
        })
    shown = " ".join(tok for tok, _ in top[:5])
    print(f"predict: {shown} -> {out}/prediction.json")
    return 0


# --------------------------------------------------------------------------
# parser wiring: each flag a config file may set names its key here
# --------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.setting("--output-dir", "paths.output_dir", help="directory for outputs")


def _add_corpus_opts(sub, ontology=True):
    sub.setting("--corpus", "paths.corpus", help="corpus CSV/JSONL path")
    sub.setting("--format", "corpus.format", dest="fmt", choices=("csv", "jsonl"))
    sub.setting("--stopwords", "corpus.stopwords", dest="stopwords_file",
                metavar="FILE", help="stopword file (default: bundled Italian)")
    sub.add_argument("--no-stopwords", action="store_true",
                     help="disable stopword removal")
    sub.setting("--min-token-len", "corpus.min_token_len", type=strict_int)
    if ontology:
        sub.setting("--ontology", "paths.ontology", help="word<TAB>TAG substitution file")


def _add_cluster_opts(sub):
    from . import clustering

    k_or_sweep = sub.add_mutually_exclusive_group()
    sub.setting("--k", "clustering.k", type=strict_int, group=k_or_sweep,
                help="fixed cluster count")
    k_or_sweep.add_argument("--k-range", type=strict_int, nargs=2,
                            metavar=("LO", "HI"),
                            help="sweep k over [LO, HI], pick by silhouette")
    sub.setting("--metric", "clustering.metric", choices=clustering.METRICS)
    sub.setting("--max-iter", "clustering.max_iter", type=strict_int)


def _preprocess_opts(sub):
    from . import corpus as corpus_mod

    _add_corpus_opts(sub)
    sub.setting("--top-k", "corpus.top_k", type=strict_int,
                help="how many frequent words to report "
                     f"(default {corpus_mod.TOP_WORDS})")


def _mine_rules_opts(sub):
    _add_corpus_opts(sub)
    sub.setting("--minsupp", "rules.minsupp", type=strict_float)
    sub.setting("--mincnf", "rules.mincnf", type=strict_float)
    sub.setting("--idf-min", "rules.idf_min", type=strict_float)
    sub.setting("--idf-max", "rules.idf_max", type=strict_float)
    sub.setting("--max-itemset-size", "rules.max_itemset_size", type=strict_int)
    sub.setting("--allow-lift-le1", "rules.require_lift_gt1", cast=_parse_bool,
                dest="require_lift_gt1", action="store_const", const=False,
                help="also admit rules whose lift does not exceed 1")


def _cluster_tfidf_opts(sub):
    _add_corpus_opts(sub)
    _add_cluster_opts(sub)


def _cluster_embeddings_opts(sub):
    from . import clustering

    _add_cluster_opts(sub)
    sub.setting("--embeddings", "paths.embeddings", help="embedding matrix file")
    sub.add_argument("--embeddings-format", choices=("text", "binary"),
                     help="default: by extension (.bin = binary)")
    sub.add_argument("--ids", help="companion sentence-id file")
    sub.setting("--variance-threshold", "clustering.variance_threshold", type=strict_float,
                help="explained-variance target "
                     f"(default {clustering.VARIANCE_THRESHOLD})")
    sub.setting("--batch-size", "clustering.batch_size", type=strict_int,
                help="incremental PCA batch rows")


def _train_lm_opts(sub):
    _add_corpus_opts(sub, ontology=False)
    sub.setting("--seed", "lm.seed", type=strict_int,
                help="weight, batch-order and dropout seed")
    sub.setting("--vocab-size", "lm.vocab_size", type=strict_int)
    sub.setting("--embed-dim", "lm.embed_dim", type=strict_int)
    sub.setting("--recurrent-units", "lm.recurrent_units", type=strict_int)
    sub.setting("--dense-units", "lm.dense_units", type=strict_int)
    sub.setting("--dropout", "lm.dropout_rate", dest="dropout_rate", type=strict_float)
    sub.setting("--seq-len", "lm.seq_len", type=strict_int)
    sub.setting("--lr", "lm.learning_rate", dest="learning_rate", type=strict_float)
    sub.setting("--batch-size", "lm.batch_size", type=strict_int)
    sub.setting("--epochs", "lm.epochs", type=strict_int)


def _predict_opts(sub):
    sub.add_argument("--model", required=True, help="model artifact directory")
    sub.add_argument("--text", required=True, help="dynamics description")
    sub.add_argument("--top-k", type=strict_int)


# name -> (help line, the flags after --config and --output-dir, handler)
_COMMANDS = {
    "preprocess": ("tokenize corpus into transactions", _preprocess_opts, cmd_preprocess),
    "mine-rules": ("mine positive/negative association rules",
                   _mine_rules_opts, cmd_mine_rules),
    "cluster-tfidf": ("k-medoids over tf-idf rows (tag-substituted when an "
                      "ontology is given)", _cluster_tfidf_opts, cmd_cluster_tfidf),
    "cluster-embeddings": ("reduce an external embedding matrix with incremental "
                           "PCA, then k-medoids (the PCA is fit on the matrix it "
                           "reduces)", _cluster_embeddings_opts, cmd_cluster_embeddings),
    "train-lm": ("train the consequence predictor", _train_lm_opts, cmd_train_lm),
    "predict": ("rank consequence tokens for a text, tokenized as the model's "
                "training was", _predict_opts, cmd_predict),
}


def build_parser(command=None) -> _Parser:
    """The CLI parser; ``commands`` maps each subcommand name to its parser.

    Every subcommand is registered with its help line, but only ``command``
    gets its flags, or every subcommand when ``command`` is None. A call
    that runs one subcommand parses the same with either parser."""
    parser = _Parser(prog="incmine",
                     description="Mine rules, cluster descriptions and predict "
                                 "consequences from incident-report text.")
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices
    for name, (help_line, add_opts, func) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_line)
        if command is None or command == name:
            _add_common(sub)
            add_opts(sub)
            sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand is the first argument that is not an option: the
    # top-level parser takes no option with a value
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits
        return int(exc.code or 0)
    try:
        if args.config is not None:  # a key no subcommand declares is refused
            _apply_config(args, build_parser().commands)
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
