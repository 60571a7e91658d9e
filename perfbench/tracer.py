"""Layer spans recorded around the program's functions, from outside the program.

``TARGETS`` is the one table of wrap targets: (module, attribute, metric,
counter).  ``Tracer.install`` replaces each attribute with a wrapper that
times the call as a span and lets ``counter`` read counts from the arguments
and the return value.  A span's self time is its duration minus the time its
child spans cover, so the self times of all spans plus the uncovered rest add
up to the wall time of the traced call.

The program calls these functions through module attributes (``_kernels.
pam_swap``, ``rules_mod.fisinfis_mine``) or module globals, so replacing the
attribute is enough for every call to pass through the wrapper.  A target a
later refactor removes is listed in ``absent`` and its metrics read 0.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional


def _records(counts, args, result):
    counts["corpus.records"] += len(result)


def _items_kept(counts, args, result):
    counts["rules.items_kept"] += result.shape[1]


def _candidates(counts, args, result):
    presence, cands = args[0], args[1]
    counts["rules.candidates"] += cands.shape[0]
    counts["rules.support_cells"] += cands.shape[0] * presence.shape[0]


def _rules_emitted(counts, args, result):
    counts["rules.rules_emitted"] += len(result)


def _nnz(counts, args, result):
    counts["vectors.nnz"] += result.nnz


def _distance_bytes(counts, args, result):
    counts["clustering.distance_bytes"] += result.nbytes


def _build(counts, args, result):
    counts["clustering.build_medoids"] += int(args[1])
    counts["clustering.k_fitted"] += 1


def _swap(counts, args, result):
    passes = int(result[1])
    counts["clustering.swap_passes"] += passes
    counts["clustering.swap_max_iter_hits"] += passes >= int(args[2])


def _reduced_dims(counts, args, result):
    counts["clustering.reduced_dims"] += result[1]


def _steps(counts, args, result):
    counts["langmodel.steps"] += 1


# (module, attribute, metric, counter); the metric gets the span's self time
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("incmine.corpus", "load_corpus", "corpus.load_s", _records),
    ("incmine.corpus", "to_transactions", "corpus.transactions_s", None),
    ("incmine.rules", "fisinfis_mine", "rules.rulegen_s", _rules_emitted),
    ("incmine.rules", "idf", "rules.idf_band_s", None),
    ("incmine.rules", "_presence_matrix", "rules.presence_s", _items_kept),
    ("incmine._kernels", "support_counts", "rules.support_count_s", _candidates),
    ("incmine.rules", "rules_to_csv", "rules.export_csv_s", None),
    ("incmine.rules", "export_rule_graph", "rules.export_dot_s", None),
    ("incmine.vectors", "corpus_term_counts", "vectors.term_counts_s", None),
    ("incmine.vectors", "build_term_index", "vectors.tfidf_s", None),
    ("incmine.vectors", "tfidf_matrix", "vectors.tfidf_s", _nnz),
    ("incmine.vectors", "TfIdfMatrix.toarray", "vectors.densify_s", None),
    ("incmine.vectors", "TfIdfMatrix.to_coo_text", "vectors.coo_text_s", None),
    ("incmine.clustering", "load_embeddings", "clustering.load_embeddings_s", None),
    ("incmine.clustering", "ipca_fit", "clustering.ipca_s", None),
    ("incmine.clustering", "reduce_to_variance", "clustering.reduce_s", _reduced_dims),
    ("incmine.clustering", "pairwise_distances", "clustering.distance_s", _distance_bytes),
    ("incmine._kernels", "pam_build", "clustering.build_s", _build),
    ("incmine._kernels", "pam_swap", "clustering.swap_s", _swap),
    ("incmine._kernels", "assign_to_medoids", "clustering.assign_s", None),
    ("incmine._kernels", "silhouette_samples_from_dist", "clustering.silhouette_s", None),
    ("incmine.langmodel", "fit_vocab", "langmodel.vocab_s", None),
    ("incmine.langmodel", "make_train_pairs", "langmodel.pairs_s", None),
    ("incmine.langmodel", "train", "langmodel.train_loop_s", None),
    ("incmine.langmodel", "_lstm_forward", "langmodel.lstm_forward_s", None),
    ("incmine.langmodel", "_lstm_backward", "langmodel.lstm_backward_s", None),
    ("incmine.langmodel", "_forward_batch", "langmodel.head_forward_s", None),
    ("incmine.langmodel", "backward", "langmodel.head_backward_s", None),
    ("incmine.langmodel", "clip_gradients", "langmodel.clip_s", None),
    ("incmine.langmodel", "adam_step", "langmodel.adam_s", _steps),
    ("incmine.langmodel", "save_model", "langmodel.save_s", None),
    ("incmine.langmodel", "load_model", "langmodel.load_s", None),
    ("incmine.langmodel", "predict_consequence", "langmodel.predict_s", None),
)


class Tracer:
    """Spans and counts of one process; kept in memory until ``report``."""

    def __init__(self, targets=TARGETS, clock=perf_counter):
        self.targets = targets
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.absent: list[str] = []
        self.counter_errors: list[str] = []
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._installed: list[tuple[object, str, object]] = []

    def install(self):
        for module_name, attr, metric, counter in self.targets:
            owner, name = self._resolve(module_name, attr)
            if owner is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(owner, name)
            self._installed.append((owner, name, original))
            setattr(owner, name, self.wrap(original, metric, counter))

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    @staticmethod
    def _resolve(module_name, attr):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, name, None)):
            return None, None
        return owner, name

    def wrap(self, fn, metric: str, counter: Optional[Callable] = None):
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self.spans.append((span_id, parent, metric, 0.0, 0.0))
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.self_s[metric] += duration - frame[1]
                self.spans[span_id] = (span_id, parent, metric, start, end)
            if counter is not None:
                try:
                    counter(self.counts, args, result)
                except (AttributeError, IndexError, TypeError, ValueError) as exc:
                    self.counter_errors.append(f"{metric}: {exc!r}")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def report(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "spans": self.spans, "absent": self.absent,
                "counter_errors": self.counter_errors}
