"""Desk-scale consequence predictor: tokenizer, BiLSTM stack, sigmoid head.

Dynamics text is encoded to a fixed-length id sequence, passed through an
embedding table, two stacked bidirectional LSTM layers, a flatten, two ReLU
dense layers, dropout and a sigmoid output over the vocabulary. The target is
a multi-hot vector marking the consequence tokens, trained with mean binary
cross entropy and ADAM. Gradients are exact reverse-mode derivatives through
the whole stack; a finite-difference harness in the test suite holds them to
account.

One kernel pair runs an LSTM direction forward in time; the bw direction is
that kernel on the time-reversed sequence (Schuster & Paliwal 1997). The
input projection and ``d_x`` are each one stacked matmul per direction
outside the time loop (Appleyard et al. 2016): (T, B, d) @ wx, not a
reshaped (B*T, d) GEMM, because the stacked form makes the per-step BLAS
call (a gemv at B=1, as in ``predict``) and so keeps its floats. Adam
moments live only inside ``train``, so the artifact holds no optimizer state.

All parameters live in one contiguous 1-D buffer: ``_param_specs`` fixes the
order and shape of the tensors, and so each tensor's offset, and
``FlatParams`` maps each name to its reshaped view. The embedding has one
row per vocabulary token, ``len(vocab)``, not ``vocab_size``: a row past
the vocabulary would only ever get a zero gradient. The head keeps its
``vocab_size`` columns, which the loss averages over. Training keeps its
gradients and the Adam m and v as buffers of the same layout; ``backward``
writes into the gradient views, clipping squares one tensor at a time and
Adam runs on cache-sized blocks of the buffer. Two places keep the floats
of the ``vocab_size`` layout: ``init_params`` advances the generator past
the embedding rows beyond the vocabulary, and ``clip_gradients`` sums the
embedding's squares padded with zeros to ``vocab_size`` rows. The artifact
stores, as one file ``params.bin`` with one checksum, the live parameters
of that buffer: those a vocabulary token can reach (``_live_segments``).
``load_model`` reads them straight into a zero-filled little-endian
float32 buffer and hashes those same bytes; a float64 config casts the
buffer once, after the checksum has passed. No head column past the
vocabulary changes a live float, and ``forward`` returns the ``len(vocab)``
live probabilities only, so a reload gives the same bytes. The manifest
also carries the ``PreprocessConfig`` that training tokenized with.

The training set is built once from the token lists that also fit the
vocabulary: ``ids`` (N, seq_len) int64, and each pair's target ids in CSR
form (``TargetIds``), one int64 per consequence token. A step's batch is the
same rows of both; only that batch's multi-hot targets, (B, V) in the config
dtype, are made dense, just before its ``backward``. ``backward`` drops the
head's (B, V) temporaries as soon as it has used them, so training memory
does not grow with N x V, and ``train`` keeps the first step's LSTM
activations for every later step of that batch size to write over.

Each LSTM direction's cache is (x, gates, c, h), each activation stored
once: ``gates`` (T, B, 4u) is the buffer of the input projection, which each
step overwrites with its activated i, f, g, o and the backward with its dz;
``c`` is (T, B, u), so that a step's cell state is one contiguous block
from which the backward recomputes tanh(c) as the forward computed it; ``h``
is the (B, T, u) output.

Parameters default to float32 so the on-disk artifact (little-endian float32
bytes) round-trips bit-exactly; gradient checking uses float64 configs. An
``LmConfig`` whose training buffers (weights, gradients, Adam m and v, and
float64 squares of the whole buffer for clipping, an upper bound) would
exceed ``errors.MAX_ALLOCATION_BYTES`` is refused when it is built, and
``make_train_pairs`` refuses a batch's dense targets over it.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import PreprocessConfig, preprocess
from .errors import IncmineError, check_allocation

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

ARTIFACT_VERSION = "lm-v3"
_PROB_EPS = 1e-7


# --------------------------------------------------------------------------
# vocabulary and encoding
# --------------------------------------------------------------------------

class LmVocabulary:
    """Frequency-ranked token list with PAD at 0 and UNK at 1."""

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if len(tokens) < 2 or tokens[0] != PAD_TOKEN or tokens[1] != UNK_TOKEN:
            raise IncmineError("vocabulary must start with PAD, UNK")
        self.tokens = tokens
        self._index = {tok: i for i, tok in enumerate(tokens)}
        if len(self._index) != len(tokens):
            raise IncmineError("vocabulary contains duplicate tokens")

    def __len__(self):
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._index.get(token, UNK_ID)


def fit_vocab(texts: Iterable[Sequence[str]], cap: int) -> LmVocabulary:
    """Rank tokens by descending count (ties lexicographic), keep cap-2 of them."""
    if cap < 2:
        raise ValueError("cap must be >= 2 to hold PAD and UNK")
    counts: Counter[str] = Counter()
    for tokens in texts:
        counts.update(tokens)
    if not counts:
        raise IncmineError("no tokens to build a vocabulary from")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked[:cap - 2]]
    return LmVocabulary([PAD_TOKEN, UNK_TOKEN] + kept)


def encode(tokens: Sequence[str], vocab: LmVocabulary, seq_len: int) -> np.ndarray:
    """Token ids right-padded with PAD to seq_len, truncated beyond it."""
    ids = [vocab.id_of(tok) for tok in tokens[:seq_len]]
    ids.extend([PAD_ID] * (seq_len - len(ids)))
    return np.asarray(ids, dtype=np.int64)


# --------------------------------------------------------------------------
# configuration and parameters
# --------------------------------------------------------------------------

# what each annotation of an LmConfig field admits; bool is refused for both
_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real}


@dataclass(frozen=True)
class LmConfig:
    vocab_size: int = 5000
    embed_dim: int = 128
    recurrent_units: int = 100   # per direction, two bidirectional layers
    dense_units: int = 50        # two dense layers
    dropout_rate: float = 0.5
    seq_len: int = 30
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    epochs: int = 5
    seed: int = 0
    clip_norm: float = 5.0
    dtype: str = "float32"

    def __post_init__(self):
        for f in fields(self):  # a manifest's JSON may hold 5.0, true or "5"
            value, kind = getattr(self, f.name), _FIELD_KINDS.get(f.type)
            if kind is not None and (isinstance(value, bool)
                                     or not isinstance(value, kind)):
                raise ValueError(f"{f.name} must be {kind.__name__.lower()}, "
                                 f"got {value!r}")
        for name in ("vocab_size", "embed_dim", "recurrent_units",
                     "dense_units", "seq_len", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not math.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")
        n_params = _param_count(self, self.vocab_size)
        # an upper bound, kept as it was so that every config that ran still
        # runs: clipping squares one tensor at a time in float64, not the
        # whole buffer, and the embedding has len(vocab) rows
        check_allocation(n_params * (8 + 4 * np.dtype(self.dtype).itemsize),
                         f"a model of {n_params:,} parameters (weights, gradients, "
                         f"Adam m and v, float64 squares for clipping)")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def _param_specs(config: LmConfig, n_live: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each tensor in buffer order, for an embedding of
    ``n_live`` rows, the vocabulary's length."""
    u = config.recurrent_units
    specs = [("embedding", (n_live, config.embed_dim))]
    in_dims = {1: config.embed_dim, 2: 2 * u}
    for layer in (1, 2):
        for direction in ("fw", "bw"):
            specs.append((f"lstm{layer}_{direction}_wx", (in_dims[layer], 4 * u)))
            specs.append((f"lstm{layer}_{direction}_wh", (u, 4 * u)))
            specs.append((f"lstm{layer}_{direction}_b", (4 * u,)))
    flat = config.seq_len * 2 * u
    specs.append(("dense1_w", (flat, config.dense_units)))
    specs.append(("dense1_b", (config.dense_units,)))
    specs.append(("dense2_w", (config.dense_units, config.dense_units)))
    specs.append(("dense2_b", (config.dense_units,)))
    specs.append(("out_w", (config.dense_units, config.vocab_size)))
    specs.append(("out_b", (config.vocab_size,)))
    return specs


def _param_count(config: LmConfig, n_live: int) -> int:
    return sum(math.prod(shape) for _, shape in _param_specs(config, n_live))


class FlatParams(dict):
    """Name -> reshaped view of ``flat``, one per ``_param_specs`` entry.

    The views tile the 1-D buffer ``flat`` in registry order, so the dict
    iterates in that order and a whole-buffer operation acts on every tensor.
    Without ``flat``, a new zero-filled buffer of the config dtype is used.
    """

    def __init__(self, config: LmConfig, n_live: int, flat: Optional[np.ndarray] = None):
        super().__init__()
        size = _param_count(config, n_live)
        if flat is None:
            flat = np.zeros(size, dtype=config.np_dtype)
        elif flat.shape != (size,):
            raise ValueError(f"flat buffer of shape {flat.shape}, the layout needs ({size},)")
        start = 0
        for name, shape in _param_specs(config, n_live):
            stop = start + math.prod(shape)
            self[name] = flat[start:stop].reshape(shape)
            start = stop
        self.flat = flat


def _xavier_bound(shape: tuple[int, ...]) -> float:
    if len(shape) == 2:
        fan_in, fan_out = shape
    else:
        fan_in = fan_out = shape[0]
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_params(config: LmConfig, n_live: int, rng: np.random.Generator) -> FlatParams:
    """Uniform Xavier draw per tensor of the ``vocab_size`` layout, in
    registry order, cast to config dtype, for an embedding of ``n_live`` rows.

    The embedding's bound is that of its ``(vocab_size, embed_dim)`` shape,
    and the generator is advanced past the draws of the rows beyond
    ``n_live``: PCG64, ``np.random.default_rng``'s generator, takes one
    64-bit output per uniform double, so every float kept is that of one
    full draw per tensor.
    """
    params = FlatParams(config, n_live)
    for (_, shape), view in zip(_param_specs(config, config.vocab_size), params.values()):
        bound = _xavier_bound(shape)
        view[...] = rng.uniform(-bound, bound, size=view.shape)
        rng.bit_generator.advance(math.prod(shape) - view.size)
    return params


# elements per block of ``adam_step``: a block of params, grads, m, v and
# scratch (5 x 256 KiB in float32) stays in a 2 MiB L2 cache across its 14
# passes, where passes over the whole buffer are bound by memory traffic
_ADAM_BLOCK = 1 << 16


@dataclass
class AdamState:
    """Moments of a flat parameter buffer, and the scratch of one Adam block."""
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        """Zero moments for a 1-D ``params``."""
        return cls(m=np.zeros_like(params), v=np.zeros_like(params),
                   scratch=np.empty(min(params.size, _ADAM_BLOCK), dtype=params.dtype))


@dataclass
class LmModel:
    """The network and its tokenizer: ``pre`` and ``vocab`` turn a text
    into the ids that ``forward`` reads."""
    config: LmConfig
    vocab: LmVocabulary
    pre: PreprocessConfig
    params: FlatParams

    @classmethod
    def initialized(cls, config: LmConfig, vocab: LmVocabulary, pre: PreprocessConfig,
                    rng: np.random.Generator) -> "LmModel":
        """``init_params``'s draw, one embedding row per vocabulary token."""
        if len(vocab) > config.vocab_size:
            raise IncmineError("vocabulary larger than configured vocab_size")
        return cls(config=config, vocab=vocab, pre=pre,
                   params=init_params(config, len(vocab), rng))


@dataclass(frozen=True)
class TargetIds:
    """Each training pair's target ids, CSR style: pair i's are
    ``ids[offsets[i]:offsets[i + 1]]``, with ``offsets`` (N + 1,) int64."""
    offsets: np.ndarray
    ids: np.ndarray

    def multi_hot(self, rows: np.ndarray, config: LmConfig) -> np.ndarray:
        """The batch's dense targets, (len(rows), V) in the config dtype:
        row k is 1 at each target id of pair ``rows[k]``, 0 elsewhere."""
        dense = np.zeros((len(rows), config.vocab_size), dtype=config.np_dtype)
        for k, i in enumerate(rows):
            dense[k, self.ids[self.offsets[i]:self.offsets[i + 1]]] = 1.0
        return dense


def make_train_pairs(dynamics: Sequence[Sequence[str]],
                     consequences: Sequence[Sequence[str]], vocab: LmVocabulary,
                     config: LmConfig) -> tuple[np.ndarray, TargetIds]:
    """Token lists -> the training set ``(ids, targets)``.

    Row i of ``ids`` (N, seq_len) int64 is ``encode(dynamics[i])``; pair i's
    ``targets`` are the ids of ``consequences[i]``'s tokens, which
    ``TargetIds.multi_hot`` sets to 1. Ids at or below UNK are never kept: a
    token missing from the vocabulary is dropped rather than collapsed onto
    UNK, so the model never learns to predict UNK, and PAD is never a target.
    The dense targets of one batch, min(N, batch_size) x V, are checked
    against the size guard before anything is allocated.
    """
    n = len(dynamics)
    rows = min(n, config.batch_size)
    check_allocation(rows * config.vocab_size * np.dtype(config.dtype).itemsize,
                     f"the {rows} x {config.vocab_size} batch targets")
    ids = np.empty((n, config.seq_len), dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    target_ids: list[int] = []
    for i, (tokens, consequence) in enumerate(zip(dynamics, consequences, strict=True)):
        ids[i] = encode(tokens, vocab, config.seq_len)
        target_ids.extend(idx for idx in map(vocab.id_of, consequence) if idx > UNK_ID)
        offsets[i + 1] = len(target_ids)
    return ids, TargetIds(offsets, np.array(target_ids, dtype=np.int64))


# --------------------------------------------------------------------------
# forward / backward
# --------------------------------------------------------------------------

def _sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, with no
    mask: e = exp(-|z|) cannot overflow, and max(e, z >= 0) is the numerator
    (1 above zero, since e <= 1; e below)."""
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def _lstm_forward(x, wx, wh, b, out=None):
    """One LSTM direction, forward in time: h (B, T, u) and the cache
    (x, gates, c, h), each activation stored once.

    The input projection of all steps is one stacked matmul, xw = (T, B, d)
    @ wx, before the loop; it makes the same BLAS call per step as ``x[:, t]
    @ wx``. Once step t has read ``xw[t]``, its activated i, f, g, o
    overwrite it, so ``gates`` is that (T, B, 4u) buffer. ``c`` is kept as
    (T, B, u), so each step's cell state is a contiguous (B, u) block, and
    h as the (B, T, u) output; tanh(c) is not kept.

    ``out``, the (gates, c, h) of an earlier call, is written over when its
    shapes and dtype fit; otherwise new arrays are made.
    """
    B, T, _ = x.shape
    u = wh.shape[0]
    g = slice(2 * u, 3 * u)
    shapes = [(T, B, 4 * u), (T, B, u), (B, T, u)]
    if out is None or [(a.shape, a.dtype) for a in out] != [(s, x.dtype) for s in shapes]:
        out = [np.empty(shape, dtype=x.dtype) for shape in shapes]
    gates, c_s, h_seq = out
    np.matmul(x.transpose(1, 0, 2), wx, out=gates)
    h = np.zeros((B, u), dtype=x.dtype)
    c = np.zeros((B, u), dtype=x.dtype)
    for t in range(T):
        z = gates[t] + h @ wh
        z += b
        a = _sigmoid(z)
        np.tanh(z[:, g], out=a[:, g])
        gates[t] = a
        c = a[:, u:2 * u] * c + a[:, :u] * a[:, g]
        h = a[:, 3 * u:] * np.tanh(c)
        c_s[t], h_seq[:, t] = c, h
    return h_seq, (x, gates, c_s, h_seq)


def _lstm_backward(cache, wx, wh, d_h_seq, d_wx, d_wh, d_b):
    """Gradients of one ``_lstm_forward`` direction: returns d_x, and
    writes the weight gradients into ``d_wx``, ``d_wh`` and ``d_b`` (views
    of the gradient buffer), which are zeroed and then summed over steps.

    The cache is used up: each step recomputes tanh(c) from the contiguous
    ``c[t]``, as the forward computed it, and after its last read of the
    activations ``a = gates[t]`` writes its dz over them: the activation
    derivatives (1 - a for i, f and o, 1 - g*g for g) times (d_gate * a)
    for i, f, o and d_gate for g. d_x is then one stacked matmul over
    ``gates``, (T, B, 4u) in C order as in the forward, so each dz is a
    contiguous (B, 4u) block: a strided one can change the rounding of a
    gemv (dz @ wx.T at d=1).
    """
    x, gates, c_s, h_seq = cache
    B, T, _ = x.shape
    u = wh.shape[0]
    g = slice(2 * u, 3 * u)
    d_gates = np.empty((B, 4 * u), dtype=x.dtype)
    for d_w in (d_wx, d_wh, d_b):
        d_w.fill(0.0)
    dh_carry = np.zeros((B, u), dtype=x.dtype)
    dc_carry = np.zeros((B, u), dtype=x.dtype)
    zeros = np.zeros((B, u), dtype=x.dtype)
    for t in range(T - 1, -1, -1):
        a = gates[t]
        c_prev = c_s[t - 1] if t > 0 else zeros
        h_prev = h_seq[:, t - 1] if t > 0 else zeros
        tc = np.tanh(c_s[t])
        dh = d_h_seq[:, t] + dh_carry
        dc = dh * a[:, 3 * u:]
        dc *= 1.0 - tc * tc
        dc += dc_carry
        np.multiply(dc, a[:, g], out=d_gates[:, :u])
        np.multiply(dc, c_prev, out=d_gates[:, u:2 * u])
        np.multiply(dc, a[:, :u], out=d_gates[:, g])
        np.multiply(dh, tc, out=d_gates[:, 3 * u:])
        dc_carry = dc * a[:, u:2 * u]
        d_gates[:, :2 * u] *= a[:, :2 * u]
        d_gates[:, 3 * u:] *= a[:, 3 * u:]
        dz = a  # the activations' last read is above
        np.multiply(a[:, g], a[:, g], out=dz[:, g])
        np.subtract(1.0, dz, out=dz)
        dz *= d_gates
        d_wx += x[:, t].T @ dz
        d_wh += h_prev.T @ dz
        d_b += dz.sum(axis=0)
        dh_carry = dz @ wh.T
    return np.matmul(gates, wx.T).transpose(1, 0, 2)


# the bw direction is the fw kernel on x[:, ::-1], its outputs flipped back
_DIRECTIONS = (("fw", slice(None)), ("bw", slice(None, None, -1)))


def _bilstm_forward(params, layer: int, x, workspace: dict):
    """Both directions of one layer: h (B, T, 2u) as [fw, bw], and the caches.

    Each direction writes over the (gates, c, h) of the first call that it
    left in ``workspace``; a batch of another size, such as a short last
    batch, gets new arrays and leaves the first ones there."""
    h, caches = [], []
    for direction, order in _DIRECTIONS:
        p = f"lstm{layer}_{direction}_"
        h_dir, cache = _lstm_forward(x[:, order], params[p + "wx"], params[p + "wh"],
                                     params[p + "b"], workspace.get(p))
        workspace.setdefault(p, cache[1:])
        h.append(h_dir[:, order])
        caches.append(cache)
    return np.concatenate(h, axis=2), caches


def _bilstm_backward(params, layer: int, caches, d_h, grads):
    """Both directions' weight gradients into the views of ``grads``;
    returns the layer's d_x. The caches are used up (``_lstm_backward``)."""
    d_x = []
    for (direction, order), cache, d_h_dir in zip(_DIRECTIONS, caches,
                                                  np.split(d_h, 2, axis=2)):
        p = f"lstm{layer}_{direction}_"
        d_x_dir = _lstm_backward(cache, params[p + "wx"], params[p + "wh"],
                                 d_h_dir[:, order], grads[p + "wx"], grads[p + "wh"],
                                 grads[p + "b"])
        d_x.append(d_x_dir[:, order])
    return d_x[0] + d_x[1]


def _forward_batch(params, config: LmConfig, ids, rng: Optional[np.random.Generator] = None,
                   workspace: Optional[dict] = None):
    """Probabilities (B, V) and the activations ``backward`` reads.

    The rng decides the mode: training draws dropout masks from it, and
    ``forward`` passes none. ``workspace`` (see ``backward``) holds the LSTM
    arrays of the previous call, which this one writes over."""
    B = ids.shape[0]
    u = config.recurrent_units
    if workspace is None:
        workspace = {}
    h1, lstm1 = _bilstm_forward(params, 1, params["embedding"][ids], workspace)
    h2, lstm2 = _bilstm_forward(params, 2, h1, workspace)
    flat = h2.reshape(B, config.seq_len * 2 * u)
    z1 = flat @ params["dense1_w"] + params["dense1_b"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params["dense2_w"] + params["dense2_b"]
    a2 = np.maximum(z2, 0.0)
    rate = config.dropout_rate
    if rng is not None and rate > 0.0:
        mask = (rng.random((B, config.dense_units)) >= rate).astype(a2.dtype)
        a2d = a2 * mask / (1.0 - rate)
    else:
        mask = None
        a2d = a2
    zo = a2d @ params["out_w"] + params["out_b"]
    probs = _sigmoid(zo)
    cache = {"lstm1": lstm1, "lstm2": lstm2, "flat": flat, "z1": z1, "a1": a1,
             "z2": z2, "mask": mask, "a2d": a2d}
    return probs, cache


def _check_ids(ids: np.ndarray, n_live: int) -> None:
    """Refuse an id outside ``[0, n_live)``, the embedding's rows."""
    outside = ids[(ids < 0) | (ids >= n_live)]
    if outside.size:
        raise IncmineError(f"input id {int(outside[0])} is outside the "
                           f"vocabulary's ids [0, {n_live})")


def forward(model: LmModel, input_ids) -> np.ndarray:
    """Eval-mode probabilities of the ``len(model.vocab)`` vocabulary tokens
    for one id sequence; an id outside ``[0, len(model.vocab))`` is refused,
    and so is a probability that is not finite.

    The head still multiplies every ``vocab_size`` column, so each live
    float is the one training's ``_forward_batch`` computes; the columns
    past the vocabulary are dropped from the result.
    """
    ids = np.asarray(input_ids, dtype=np.int64)[None, :]
    _check_ids(ids, len(model.vocab))
    probs, _ = _forward_batch(model.params, model.config, ids)
    if not np.isfinite(probs).all():
        raise IncmineError("non-finite activation in forward pass")
    return probs[0, :len(model.vocab)]


def bce_loss(probs, target) -> float:
    """Mean binary cross entropy over every vocabulary slot (and batch)."""
    probs = np.asarray(probs)
    target = np.asarray(target)
    if probs.shape != target.shape:
        raise IncmineError(
            f"shape mismatch: probs {probs.shape} vs target {target.shape}")
    p = np.clip(probs, _PROB_EPS, 1.0 - _PROB_EPS)
    losses = -(target * np.log(p) + (1.0 - target) * np.log1p(-p))
    return float(losses.mean())


def _head_backward(params, config: LmConfig, probs, targets, cache, grads):
    """The sigmoid head's and dense layers' gradients into ``grads``;
    returns d_h2 (B, seq_len, 2u), the gradient at layer 2's output. Its
    (B, V) temporaries go when it returns."""
    B = probs.shape[0]
    in_range = (probs > _PROB_EPS) & (probs < 1.0 - _PROB_EPS)
    dzo = np.where(in_range, probs - targets, 0.0).astype(config.np_dtype)
    dzo /= config.vocab_size * B
    np.matmul(cache["a2d"].T, dzo, out=grads["out_w"])
    np.sum(dzo, axis=0, out=grads["out_b"])
    da2d = dzo @ params["out_w"].T
    if cache["mask"] is not None:
        da2 = da2d * cache["mask"] / (1.0 - config.dropout_rate)
    else:
        da2 = da2d
    dz2 = da2 * (cache["z2"] > 0)
    np.matmul(cache["a1"].T, dz2, out=grads["dense2_w"])
    np.sum(dz2, axis=0, out=grads["dense2_b"])
    da1 = dz2 @ params["dense2_w"].T
    dz1 = da1 * (cache["z1"] > 0)
    np.matmul(cache["flat"].T, dz1, out=grads["dense1_w"])
    np.sum(dz1, axis=0, out=grads["dense1_b"])
    dflat = dz1 @ params["dense1_w"].T
    return dflat.reshape(B, config.seq_len, 2 * config.recurrent_units)


def backward(model: LmModel, ids: np.ndarray, targets: np.ndarray,
             rng: Optional[np.random.Generator], grads: FlatParams, workspace: dict):
    """Exact gradients of the mean BCE for the batch; returns (grads, loss).

    The batch is ``ids`` (B, seq_len) int64 and ``targets`` (B, V) in the
    config dtype, as ``TargetIds.multi_hot`` makes them; dropout masks are
    drawn from ``rng``, and None applies none. The gradients overwrite every
    view of ``grads``, so ``train`` reuses one buffer for all steps.
    Activations are dropped once used: the dense layers' and the head's
    (B, V) temporaries before the LSTM backward, layer 2's caches before
    layer 1's backward unless ``workspace`` keeps them.

    ``workspace``, a dict that ``train`` keeps from step to step, holds
    each LSTM direction's (gates, c, h) of the first step, which each later
    step of that batch size writes over instead of allocating them afresh.
    Those arrays are not dropped, and glibc does not give their pages back
    to the system after each step only to fault them in again on the next.
    Nothing is checked for finiteness here; ``train`` checks each step.
    """
    if len(ids) == 0:
        raise IncmineError("batch must be non-empty")
    config = model.config
    params = model.params
    probs, cache = _forward_batch(params, config, ids, rng, workspace)
    loss = bce_loss(probs, targets)

    lstm1, lstm2 = cache.pop("lstm1"), cache.pop("lstm2")
    dh2 = _head_backward(params, config, probs, targets, cache, grads)
    del probs, cache
    dh1 = _bilstm_backward(params, 2, lstm2, dh2, grads)
    del lstm2, dh2
    demb = _bilstm_backward(params, 1, lstm1, dh1, grads)
    d_embedding = grads["embedding"]
    d_embedding.fill(0.0)  # accumulated into, as the LSTM weight views are
    np.add.at(d_embedding, ids, demb)
    return grads, loss


# --------------------------------------------------------------------------
# optimization
# --------------------------------------------------------------------------

def adam_step(params, grads, state: AdamState, config: LmConfig):
    """One ADAM update in place: m, v moments, bias correction, step.

    ``params`` and ``grads`` are flat buffers of one layout, updated in
    blocks of ``_ADAM_BLOCK`` elements. Each line is one ufunc over a block,
    in the order of ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``; the update
    is elementwise, so every float is that of the per-tensor update. ``grads``
    is used as scratch once m and v have read it, and is left overwritten.
    """
    state.t += 1
    t = state.t
    b1, b2 = config.beta1, config.beta2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    for start in range(0, params.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        p, g, m, v = params[block], grads[block], state.m[block], state.v[block]
        s = state.scratch[:p.size]
        m *= b1
        np.multiply(g, 1.0 - b1, out=s)
        m += s
        np.multiply(g, g, out=s)
        s *= 1.0 - b2
        v *= b2
        v += s
        step = np.divide(m, corr1, out=g)
        step *= config.learning_rate
        np.divide(v, corr2, out=s)
        np.sqrt(s, out=s)
        s += config.epsilon
        step /= s
        p -= step
    return params, state


def clip_gradients(grads: FlatParams, config: LmConfig) -> float:
    """Scale all gradients so the global L2 norm is at most ``clip_norm``.

    Returns the norm before clipping. Each tensor's squares are taken in
    float64, one tensor at a time, and summed, in registry order. They fill
    the start of a zero-filled array as long as the tensor is in the
    ``vocab_size`` layout, whose embedding rows past the vocabulary would
    have a zero gradient: numpy's pairwise sum groups its terms by the
    length of the array, so the embedding's sum is that layout's float.
    """
    total = 0.0
    for g, (_, shape) in zip(grads.values(), _param_specs(config, config.vocab_size)):
        squares = np.zeros(math.prod(shape))
        live = squares[:g.size]
        live[...] = g.reshape(-1)
        np.square(live, out=live)
        total += float(squares.sum())
    norm = math.sqrt(total)
    if config.clip_norm > 0 and norm > config.clip_norm:
        grads.flat *= config.clip_norm / norm
    return norm


def train(ids: np.ndarray, targets: TargetIds, config: LmConfig, vocab: LmVocabulary,
          pre: PreprocessConfig) -> tuple[LmModel, list[float]]:
    """Shuffled mini-batch training on ``make_train_pairs``'s training set,
    tokenized with ``pre`` and ``vocab``; returns model + mean per-epoch
    losses.

    Each step makes only its batch's dense (B, V) targets, so memory does
    not grow with N x V. An id outside ``[0, len(vocab))`` is refused. A
    step whose loss or updated parameters are not finite is refused as
    ``training diverged at epoch E, batch B``."""
    n = len(ids)
    if n == 0:
        raise IncmineError("need at least one training pair")
    _check_ids(ids, len(vocab))
    rng = np.random.default_rng(config.seed)
    model = LmModel.initialized(config, vocab, pre, rng)
    grads = FlatParams(config, len(vocab))
    adam = AdamState.for_params(model.params.flat)
    workspace: dict = {}
    history: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for bi, start in enumerate(range(0, n, config.batch_size)):
            b = order[start:start + config.batch_size]
            _, loss = backward(model, ids[b], targets.multi_hot(b, config),
                               rng, grads, workspace)
            clip_gradients(grads, config)
            adam_step(model.params.flat, grads.flat, adam, config)
            if not (math.isfinite(loss) and np.isfinite(model.params.flat).all()):
                raise IncmineError(f"training diverged at epoch {epoch}, batch {bi}")
            total += loss * len(b)
        history.append(total / n)
    return model, history


def predict_consequence(model: LmModel, text: str,
                        top_k: int = 10) -> list[tuple[str, float]]:
    """Top-k vocabulary tokens by probability for the given dynamics text,
    tokenized with the model's own ``pre``, as in training.

    PAD and UNK never appear in the output; equal probabilities rank by index.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    tokens = preprocess(text, model.pre)
    ids = encode(tokens, model.vocab, model.config.seq_len)
    probs = forward(model, ids)
    order = np.argsort(-probs, kind="stable")
    out = []
    for idx in order:
        idx = int(idx)
        if idx in (PAD_ID, UNK_ID):
            continue
        out.append((model.vocab.tokens[idx], float(probs[idx])))
        if len(out) == top_k:
            break
    return out


# --------------------------------------------------------------------------
# model artifact (manifest + one float32 parameter file)
# --------------------------------------------------------------------------

PARAMS_FILE = "params.bin"


def _bytes_of(arr: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, without a copy."""
    return memoryview(arr).cast("B")


def _live_segments(params: FlatParams, n_live: int) -> list[np.ndarray]:
    """The views of ``params`` that params.bin stores, in file order: every
    tensor from ``embedding`` to ``dense2_b`` as one block of the flat
    buffer, the first ``n_live`` columns of ``out_w`` (strided unless
    ``n_live`` is ``vocab_size``) and the first ``n_live`` entries of
    ``out_b``."""
    out_w, out_b = params["out_w"], params["out_b"]
    prefix = params.flat[:params.flat.size - out_w.size - out_b.size]
    return [prefix, out_w[:, :n_live], out_b[:n_live]]


def save_model(model: LmModel, path) -> None:
    """Make the directory ``path`` and write manifest.json and params.bin
    into it, the live parameters (``_live_segments``) as little-endian
    float32 in ``_param_specs`` order.

    A float32 segment is written and hashed straight from memory; only the
    live columns of ``out_w`` and a float64 model's segments are copied,
    one segment at a time. The manifest holds the version, config,
    vocabulary, the tokenizer settings (``preprocess``: the sorted stopword
    list and ``min_token_len``) and the SHA-256 of params.bin. ``path``
    must not exist yet: the CLI saves into its stage and commits ``model/``
    with its other outputs.
    """
    os.makedirs(path)
    digest = hashlib.sha256()
    with open(os.path.join(path, PARAMS_FILE), "wb") as fh:
        for segment in _live_segments(model.params, len(model.vocab)):
            blob = _bytes_of(np.ascontiguousarray(segment, dtype="<f4"))
            fh.write(blob)
            digest.update(blob)
    manifest = {
        "version": ARTIFACT_VERSION,
        "config": asdict(model.config),
        "vocab": list(model.vocab.tokens),
        "preprocess": {"stopwords": sorted(model.pre.stopwords),
                       "min_token_len": model.pre.min_token_len},
        "sha256": digest.hexdigest(),
    }
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


_MANIFEST_KEYS = frozenset({"version", "config", "vocab", "preprocess", "sha256"})


def _check_keys(obj, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise IncmineError(f"{what} is not a JSON object")
    missing = sorted(keys - obj.keys())
    unknown = sorted(obj.keys() - keys)
    if missing or unknown:
        raise IncmineError(f"{what}: missing keys {missing}, unknown keys {unknown}")


def _manifest_preprocess(obj) -> PreprocessConfig:
    """The manifest's ``preprocess`` object as the config training used."""
    _check_keys(obj, {"stopwords", "min_token_len"}, "manifest preprocess")
    stopwords, min_len = obj["stopwords"], obj["min_token_len"]
    if not isinstance(stopwords, list) or not all(isinstance(w, str) for w in stopwords):
        raise IncmineError("manifest preprocess stopwords is not a JSON list of strings")
    if isinstance(min_len, bool) or not isinstance(min_len, int):
        raise IncmineError(f"manifest preprocess: min_token_len must be int, got {min_len!r}")
    try:
        return PreprocessConfig(stopwords=frozenset(stopwords), min_token_len=min_len)
    except ValueError as exc:
        raise IncmineError(f"manifest preprocess: {exc}") from exc


def load_model(path) -> LmModel:
    """Rebuild a model from an artifact directory, verifying its checksum.

    Every refused artifact raises ``IncmineError``: another version, lm-v1
    and lm-v2 included; a malformed manifest, that is JSON that does not
    parse (named by the manifest's path), a value that is not a JSON object
    where one belongs, a missing or unknown key, a config or preprocess
    value that ``LmConfig`` or ``PreprocessConfig`` rejects, or a
    vocabulary longer than the config's ``vocab_size``; a params.bin whose
    size is not the live parameter count times 4 bytes (checked before any
    byte is read); and a checksum mismatch.

    The parameters are a zero-filled little-endian float32 buffer with one
    embedding row per vocabulary token. Each contiguous live segment is
    read straight into it, and ``out_w``'s live columns through a small
    temporary; the checksum is over exactly the bytes read, in file order.
    A float64 config casts the buffer once, after the checksum has passed.
    """
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as exc:  # or nested too deep
            raise IncmineError(f"{manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise IncmineError("manifest is not a JSON object")
    version = manifest.get("version")
    if version != ARTIFACT_VERSION:
        raise IncmineError(
            f"artifact version {version!r}, this build reads {ARTIFACT_VERSION!r}")
    _check_keys(manifest, _MANIFEST_KEYS, "manifest")
    _check_keys(manifest["config"], {f.name for f in fields(LmConfig)}, "manifest config")
    try:
        config = LmConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:
        raise IncmineError(f"manifest config: {exc}") from exc
    tokens = manifest["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
        raise IncmineError("manifest vocab is not a JSON list of strings")
    if len(tokens) > config.vocab_size:  # ids past the embedding rows
        raise IncmineError(f"manifest vocab has {len(tokens)} tokens, above the "
                           f"configured vocab_size {config.vocab_size}")
    try:
        vocab = LmVocabulary(tokens)
    except IncmineError as exc:
        raise IncmineError(f"manifest vocab: {exc}") from exc
    pre = _manifest_preprocess(manifest["preprocess"])
    params_path = os.path.join(path, PARAMS_FILE)
    stored = FlatParams(config, len(vocab), np.zeros(_param_count(config, len(vocab)), "<f4"))
    segments = _live_segments(stored, len(vocab))
    need = 4 * sum(segment.size for segment in segments)
    digest = hashlib.sha256()
    with open(params_path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != need:
            raise IncmineError(f"{params_path} is {size} bytes, the config "
                               f"needs {need}")
        for segment in segments:
            into = segment if segment.flags.c_contiguous else np.empty(segment.shape, "<f4")
            blob = _bytes_of(into)
            if fh.readinto(blob) != blob.nbytes:
                raise IncmineError(f"{params_path} shrank while being read")
            digest.update(blob)
            if into is not segment:
                segment[...] = into
    if digest.hexdigest() != manifest["sha256"]:
        raise IncmineError(f"checksum mismatch for {params_path}")
    params = FlatParams(config, len(vocab), stored.flat.astype(config.np_dtype, copy=False))
    return LmModel(config=config, vocab=vocab, pre=pre, params=params)
