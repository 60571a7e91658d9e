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

Parameters default to float32 so the on-disk artifact (little-endian float32
blobs) round-trips bit-exactly; gradient checking uses float64 configs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, fields
from typing import Iterable, Optional, Sequence

import numpy as np

from .corpus import Corpus, PreprocessConfig, preprocess
from .errors import IncmineError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

ARTIFACT_VERSION = "lm-v1"
_PROB_EPS = 1e-7


class LangModelError(IncmineError):
    pass


class NonFiniteError(LangModelError):
    """A forward activation or gradient left the finite range."""


class TrainingDivergedError(NonFiniteError):
    def __init__(self, epoch: int, batch: int):
        super().__init__(f"training diverged at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class ArtifactError(LangModelError):
    pass


class ArtifactVersionError(ArtifactError):
    pass


class ArtifactChecksumError(ArtifactError):
    pass


# --------------------------------------------------------------------------
# vocabulary and encoding
# --------------------------------------------------------------------------

class LmVocabulary:
    """Frequency-ranked token list with PAD at 0 and UNK at 1."""

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if len(tokens) < 2 or tokens[0] != PAD_TOKEN or tokens[1] != UNK_TOKEN:
            raise LangModelError("vocabulary must start with PAD, UNK")
        self.tokens = tokens
        self._index = {tok: i for i, tok in enumerate(tokens)}
        if len(self._index) != len(tokens):
            raise LangModelError("vocabulary contains duplicate tokens")

    def __len__(self):
        return len(self.tokens)

    def __eq__(self, other):
        return isinstance(other, LmVocabulary) and self.tokens == other.tokens

    def id_of(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def __contains__(self, token: str) -> bool:
        return token in self._index


def fit_vocab(texts: Iterable[Sequence[str]], cap: int = 5000) -> LmVocabulary:
    """Rank tokens by descending count (ties lexicographic), keep cap-2 of them."""
    if cap < 2:
        raise ValueError("cap must be >= 2 to hold PAD and UNK")
    counts: Counter[str] = Counter()
    for tokens in texts:
        counts.update(tokens)
    if not counts:
        raise LangModelError("no tokens to build a vocabulary from")
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
        for name in ("vocab_size", "embed_dim", "recurrent_units",
                     "dense_units", "seq_len", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be float32 or float64")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def _param_specs(config: LmConfig) -> list[tuple[str, tuple[int, ...]]]:
    u = config.recurrent_units
    specs = [("embedding", (config.vocab_size, config.embed_dim))]
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


def _xavier_bound(shape: tuple[int, ...]) -> float:
    if len(shape) == 2:
        fan_in, fan_out = shape
    else:
        fan_in = fan_out = shape[0]
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_params(config: LmConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform Xavier draw per tensor, in registry order, cast to config dtype."""
    params = {}
    for name, shape in _param_specs(config):
        bound = _xavier_bound(shape)
        params[name] = rng.uniform(-bound, bound, size=shape).astype(config.np_dtype)
    return params


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


@dataclass
class LmModel:
    config: LmConfig
    vocab: LmVocabulary
    params: dict[str, np.ndarray]

    @classmethod
    def initialized(cls, config: LmConfig, vocab: LmVocabulary,
                    rng: Optional[np.random.Generator] = None) -> "LmModel":
        if len(vocab) > config.vocab_size:
            raise LangModelError("vocabulary larger than configured vocab_size")
        if rng is None:
            rng = np.random.default_rng(config.seed)
        return cls(config=config, vocab=vocab, params=init_params(config, rng))


@dataclass(frozen=True)
class TrainPair:
    input_ids: np.ndarray  # (seq_len,) int64
    target: np.ndarray     # (vocab_size,) multi-hot

    def __post_init__(self):
        if self.target[PAD_ID] != 0:
            raise LangModelError("PAD must never be set in a target")


def make_train_pairs(corpus: Corpus, vocab: LmVocabulary, config: LmConfig,
                     pre: PreprocessConfig) -> list[TrainPair]:
    """Dynamics -> ids, consequence tokens -> multi-hot target.

    Consequence tokens missing from the vocabulary are dropped rather than
    collapsed onto UNK, so the model never learns to predict UNK.
    """
    pairs = []
    for rec in corpus:
        ids = encode(preprocess(rec.dynamics, pre), vocab, config.seq_len)
        target = np.zeros(config.vocab_size, dtype=config.np_dtype)
        for tok in preprocess(rec.consequence, pre):
            idx = vocab.id_of(tok)
            if idx != UNK_ID:
                target[idx] = 1.0
        pairs.append(TrainPair(input_ids=ids, target=target))
    return pairs


# --------------------------------------------------------------------------
# forward / backward
# --------------------------------------------------------------------------

def _sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, with no
    mask: e = exp(-|z|) cannot overflow, and max(e, z >= 0) is the numerator
    (1 above zero, since e <= 1; e below)."""
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def _lstm_forward(x, wx, wh, b):
    """One LSTM direction, forward in time: h (B, T, u) and the cache
    (x, gates, c, tanh(c), h), gates holding the activated i, f, g, o (B, T, 4u).

    The input projection of all steps is one stacked matmul, (T, B, d) @ wx,
    before the loop; it makes the same BLAS call per step as ``x[:, t] @ wx``.
    """
    B, T, _ = x.shape
    u = wh.shape[0]
    g = slice(2 * u, 3 * u)
    xw = np.matmul(x.transpose(1, 0, 2), wx)
    gates = np.empty((B, T, 4 * u), dtype=x.dtype)
    c_s = np.empty((B, T, u), dtype=x.dtype)
    tc_s = np.empty((B, T, u), dtype=x.dtype)
    h_seq = np.empty((B, T, u), dtype=x.dtype)
    h = np.zeros((B, u), dtype=x.dtype)
    c = np.zeros((B, u), dtype=x.dtype)
    for t in range(T):
        z = xw[t] + h @ wh
        z += b
        a = _sigmoid(z)
        np.tanh(z[:, g], out=a[:, g])
        gates[:, t] = a
        c = a[:, u:2 * u] * c + a[:, :u] * a[:, g]
        tc = np.tanh(c)
        h = a[:, 3 * u:] * tc
        c_s[:, t], tc_s[:, t], h_seq[:, t] = c, tc, h
    return h_seq, (x, gates, c_s, tc_s, h_seq)


def _lstm_backward(cache, wx, wh, d_h_seq):
    """Gradients (d_x, d_wx, d_wh, d_b) of one ``_lstm_forward`` direction.

    ``dzs`` (T, B, 4u) starts as the activation derivatives, which do not
    depend on the carry: 1 - a for i, f and o, 1 - g*g for g. Each step
    multiplies in its (d_gate * a) for i, f, o and d_gate for g, giving dz;
    d_x is then one stacked matmul over ``dzs``, as in the forward.
    """
    x, gates, c_s, tc_s, h_seq = cache
    B, T, _ = x.shape
    u = wh.shape[0]
    g = slice(2 * u, 3 * u)
    # C order, so each dz is a contiguous (B, 4u) block: a strided one can
    # change the rounding of a gemv (dz @ wx.T at d=1)
    dzs = np.empty((T, B, 4 * u), dtype=x.dtype)
    np.subtract(1.0, gates.transpose(1, 0, 2), out=dzs)
    g_all = gates[:, :, g].transpose(1, 0, 2)
    d_g = dzs[:, :, g]
    np.multiply(g_all, g_all, out=d_g)
    np.subtract(1.0, d_g, out=d_g)
    dtc = 1.0 - tc_s * tc_s
    d_gates = np.empty((B, 4 * u), dtype=x.dtype)
    d_wx = np.zeros_like(wx)
    d_wh = np.zeros_like(wh)
    d_b = np.zeros(4 * u, dtype=x.dtype)
    dh_carry = np.zeros((B, u), dtype=x.dtype)
    dc_carry = np.zeros((B, u), dtype=x.dtype)
    zeros = np.zeros((B, u), dtype=x.dtype)
    for t in range(T - 1, -1, -1):
        a = gates[:, t]
        c_prev = c_s[:, t - 1] if t > 0 else zeros
        h_prev = h_seq[:, t - 1] if t > 0 else zeros
        dh = d_h_seq[:, t] + dh_carry
        dc = dh * a[:, 3 * u:]
        dc *= dtc[:, t]
        dc += dc_carry
        np.multiply(dc, a[:, g], out=d_gates[:, :u])
        np.multiply(dc, c_prev, out=d_gates[:, u:2 * u])
        np.multiply(dc, a[:, :u], out=d_gates[:, g])
        np.multiply(dh, tc_s[:, t], out=d_gates[:, 3 * u:])
        dc_carry = dc * a[:, u:2 * u]
        d_gates[:, :2 * u] *= a[:, :2 * u]
        d_gates[:, 3 * u:] *= a[:, 3 * u:]
        dz = dzs[t]
        dz *= d_gates
        d_wx += x[:, t].T @ dz
        d_wh += h_prev.T @ dz
        d_b += dz.sum(axis=0)
        dh_carry = dz @ wh.T
    d_x = np.matmul(dzs, wx.T).transpose(1, 0, 2)
    return d_x, d_wx, d_wh, d_b


# the bw direction is the fw kernel on x[:, ::-1], its outputs flipped back
_DIRECTIONS = (("fw", slice(None)), ("bw", slice(None, None, -1)))


def _bilstm_forward(params, layer: int, x):
    """Both directions of one layer: h (B, T, 2u) as [fw, bw], and the caches."""
    h, caches = [], []
    for direction, order in _DIRECTIONS:
        p = f"lstm{layer}_{direction}_"
        h_dir, cache = _lstm_forward(x[:, order], params[p + "wx"], params[p + "wh"],
                                     params[p + "b"])
        h.append(h_dir[:, order])
        caches.append(cache)
    return np.concatenate(h, axis=2), caches


def _bilstm_backward(params, layer: int, caches, d_h, grads):
    """Both directions' weight gradients into grads; returns the layer's d_x."""
    d_x = []
    for (direction, order), cache, d_h_dir in zip(_DIRECTIONS, caches,
                                                  np.split(d_h, 2, axis=2)):
        p = f"lstm{layer}_{direction}_"
        d_x_dir, grads[p + "wx"], grads[p + "wh"], grads[p + "b"] = _lstm_backward(
            cache, params[p + "wx"], params[p + "wh"], d_h_dir[:, order])
        d_x.append(d_x_dir[:, order])
    return d_x[0] + d_x[1]


def _forward_batch(params, config: LmConfig, ids, train_mode: bool,
                   rng: Optional[np.random.Generator]):
    """Probabilities (B, V) and the activations ``backward`` reads."""
    B = ids.shape[0]
    u = config.recurrent_units
    h1, lstm1 = _bilstm_forward(params, 1, params["embedding"][ids])
    h2, lstm2 = _bilstm_forward(params, 2, h1)
    flat = h2.reshape(B, config.seq_len * 2 * u)
    z1 = flat @ params["dense1_w"] + params["dense1_b"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params["dense2_w"] + params["dense2_b"]
    a2 = np.maximum(z2, 0.0)
    rate = config.dropout_rate
    if train_mode and rate > 0.0:
        if rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        mask = (rng.random((B, config.dense_units)) >= rate).astype(a2.dtype)
        a2d = a2 * mask / (1.0 - rate)
    else:
        mask = None
        a2d = a2
    zo = a2d @ params["out_w"] + params["out_b"]
    probs = _sigmoid(zo)
    if not np.isfinite(probs).all():
        raise NonFiniteError("non-finite activation in forward pass")
    cache = {"lstm1": lstm1, "lstm2": lstm2, "flat": flat, "z1": z1, "a1": a1,
             "z2": z2, "mask": mask, "a2d": a2d}
    return probs, cache


def forward(model: LmModel, input_ids, train_mode: bool = False,
            rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Probability vector over the vocabulary for one id sequence."""
    ids = np.asarray(input_ids, dtype=np.int64)[None, :]
    probs, _ = _forward_batch(model.params, model.config, ids, train_mode, rng)
    return probs[0]


def bce_loss(probs, target) -> float:
    """Mean binary cross entropy over every vocabulary slot (and batch)."""
    probs = np.asarray(probs)
    target = np.asarray(target)
    if probs.shape != target.shape:
        raise LangModelError(
            f"shape mismatch: probs {probs.shape} vs target {target.shape}")
    p = np.clip(probs, _PROB_EPS, 1.0 - _PROB_EPS)
    losses = -(target * np.log(p) + (1.0 - target) * np.log1p(-p))
    return float(losses.mean())


def _batch_arrays(batch: Sequence[TrainPair], config: LmConfig):
    ids = np.stack([p.input_ids for p in batch]).astype(np.int64)
    targets = np.stack([p.target for p in batch]).astype(config.np_dtype)
    return ids, targets


def backward(model: LmModel, batch: Sequence[TrainPair],
             rng: Optional[np.random.Generator] = None):
    """Exact gradients of the mean BCE for the batch; returns (grads, loss)."""
    if len(batch) == 0:
        raise LangModelError("batch must be non-empty")
    config = model.config
    params = model.params
    ids, targets = _batch_arrays(batch, config)
    B = ids.shape[0]
    V = config.vocab_size
    u = config.recurrent_units
    probs, cache = _forward_batch(params, config, ids, True, rng)
    loss = bce_loss(probs, targets)

    grads = {name: np.zeros_like(p) for name, p in params.items()}
    in_range = (probs > _PROB_EPS) & (probs < 1.0 - _PROB_EPS)
    dzo = np.where(in_range, probs - targets, 0.0).astype(config.np_dtype)
    dzo /= V * B
    grads["out_w"] = cache["a2d"].T @ dzo
    grads["out_b"] = dzo.sum(axis=0)
    da2d = dzo @ params["out_w"].T
    if cache["mask"] is not None:
        da2 = da2d * cache["mask"] / (1.0 - config.dropout_rate)
    else:
        da2 = da2d
    dz2 = da2 * (cache["z2"] > 0)
    grads["dense2_w"] = cache["a1"].T @ dz2
    grads["dense2_b"] = dz2.sum(axis=0)
    da1 = dz2 @ params["dense2_w"].T
    dz1 = da1 * (cache["z1"] > 0)
    grads["dense1_w"] = cache["flat"].T @ dz1
    grads["dense1_b"] = dz1.sum(axis=0)
    dflat = dz1 @ params["dense1_w"].T
    dh2 = dflat.reshape(B, config.seq_len, 2 * u)

    dh1 = _bilstm_backward(params, 2, cache["lstm2"], dh2, grads)
    demb = _bilstm_backward(params, 1, cache["lstm1"], dh1, grads)
    np.add.at(grads["embedding"], ids, demb)
    for g in grads.values():
        if not np.isfinite(g).all():
            raise NonFiniteError("non-finite gradient")
    return grads, loss


# --------------------------------------------------------------------------
# optimization
# --------------------------------------------------------------------------

def adam_step(params, grads, state: AdamState, config: LmConfig):
    """One ADAM update in place: m, v moments, bias correction, step."""
    state.t += 1
    t = state.t
    b1, b2 = config.beta1, config.beta2
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / corr1
        v_hat = v / corr2
        p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return params, state


def clip_gradients(grads, clip_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most clip_norm."""
    total = 0.0
    for g in grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if clip_norm > 0 and norm > clip_norm:
        scale = clip_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def train(pairs: Sequence[TrainPair], config: LmConfig,
          vocab: LmVocabulary) -> tuple[LmModel, list[float]]:
    """Shuffled mini-batch training; returns model + mean per-epoch losses."""
    if len(pairs) == 0:
        raise LangModelError("need at least one training pair")
    rng = np.random.default_rng(config.seed)
    model = LmModel.initialized(config, vocab, rng)
    adam = AdamState.for_params(model.params)
    history: list[float] = []
    n = len(pairs)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for bi, start in enumerate(range(0, n, config.batch_size)):
            batch = [pairs[i] for i in order[start:start + config.batch_size]]
            try:
                grads, loss = backward(model, batch, rng)
            except NonFiniteError as exc:
                raise TrainingDivergedError(epoch, bi) from exc
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, bi)
            clip_gradients(grads, config.clip_norm)
            adam_step(model.params, grads, adam, config)
            total += loss * len(batch)
        history.append(total / n)
    return model, history


def predict_consequence(model: LmModel, text: str, top_k: int = 10,
                        pre: Optional[PreprocessConfig] = None
                        ) -> list[tuple[str, float]]:
    """Top-k vocabulary tokens by probability for the given dynamics text.

    PAD and UNK never appear in the output; equal probabilities rank by index.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if pre is None:
        pre = PreprocessConfig()
    tokens = preprocess(text, pre)
    ids = encode(tokens, model.vocab, model.config.seq_len)
    probs = forward(model, ids, train_mode=False)
    order = np.argsort(-probs, kind="stable")
    out = []
    for idx in order:
        idx = int(idx)
        if idx in (PAD_ID, UNK_ID) or idx >= len(model.vocab):
            continue
        out.append((model.vocab.tokens[idx], float(probs[idx])))
        if len(out) == top_k:
            break
    return out


# --------------------------------------------------------------------------
# model artifact (manifest + float32 tensor blobs)
# --------------------------------------------------------------------------

def save_model(model: LmModel, path) -> None:
    """Write manifest.json plus one little-endian float32 blob per tensor."""
    os.makedirs(os.path.join(path, "tensors"), exist_ok=True)
    tensors = {}
    for name in sorted(model.params):
        blob = model.params[name].astype("<f4").tobytes(order="C")
        rel = f"tensors/{name}.bin"
        with open(os.path.join(path, rel), "wb") as fh:
            fh.write(blob)
        tensors[name] = {
            "shape": list(model.params[name].shape),
            "dtype": "float32",
            "file": rel,
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
    manifest = {
        "version": ARTIFACT_VERSION,
        "config": asdict(model.config),
        "vocab": list(model.vocab.tokens),
        "tensors": tensors,
    }
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


_MANIFEST_KEYS = frozenset({"version", "config", "vocab", "tensors"})
_TENSOR_KEYS = frozenset({"shape", "dtype", "file", "sha256"})


def _check_keys(obj, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise ArtifactError(f"{what} is not a JSON object")
    missing = sorted(keys - obj.keys())
    unknown = sorted(obj.keys() - keys)
    if missing or unknown:
        raise ArtifactError(f"{what}: missing keys {missing}, unknown keys {unknown}")


def load_model(path) -> LmModel:
    """Rebuild a model from an artifact directory, verifying checksums.

    Every malformed manifest raises ``ArtifactError``: JSON nested too deep
    to parse, a value that is not a JSON object where one belongs, a missing
    or unknown key, a config value ``LmConfig`` rejects, or a tensor file
    outside the artifact directory.
    """
    with open(os.path.join(path, "manifest.json"), encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except RecursionError as exc:
            raise ArtifactError(f"manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ArtifactError("manifest is not a JSON object")
    version = manifest.get("version")
    if version != ARTIFACT_VERSION:
        raise ArtifactVersionError(
            f"artifact version {version!r}, this build reads {ARTIFACT_VERSION!r}")
    _check_keys(manifest, _MANIFEST_KEYS, "manifest")
    _check_keys(manifest["config"], {f.name for f in fields(LmConfig)}, "manifest config")
    try:
        config = LmConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"manifest config: {exc}") from exc
    tokens = manifest["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
        raise ArtifactError("manifest vocab is not a JSON list of strings")
    vocab = LmVocabulary(tokens)
    if not isinstance(manifest["tensors"], dict):
        raise ArtifactError("manifest tensors is not a JSON object")
    root = os.path.realpath(path)
    params = {}
    for name, spec in manifest["tensors"].items():
        _check_keys(spec, _TENSOR_KEYS, f"tensor {name!r}")
        file = os.path.realpath(os.path.join(root, str(spec["file"])))
        if os.path.commonpath([root, file]) != root:
            raise ArtifactError(
                f"tensor {name!r} file {spec['file']!r} lies outside the artifact directory")
        with open(file, "rb") as fh:
            blob = fh.read()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != spec["sha256"]:
            raise ArtifactChecksumError(f"checksum mismatch for tensor {name!r}")
        try:
            arr = np.frombuffer(blob, dtype="<f4").reshape(spec["shape"])
        except (TypeError, ValueError) as exc:
            raise ArtifactError(f"tensor {name!r}: {exc}") from exc
        params[name] = arr.astype(config.np_dtype)
    expected = {name for name, _ in _param_specs(config)}
    if set(params) != expected:
        raise ArtifactError("artifact tensor set does not match configuration")
    return LmModel(config=config, vocab=vocab, params=params)
