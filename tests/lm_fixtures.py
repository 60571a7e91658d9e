"""Shared language-model fixtures: the 8-pair overfit set and the tiny
gradient-check configuration."""

import numpy as np

from incmine import langmodel as lm
from incmine.corpus import PreprocessConfig, tokenize

from helpers import make_corpus

OVERFIT_ROWS = [
    ("p0", "scivola su scala bagnata", "frattura"),
    ("p1", "taglio con lama affilata", "lacerazione"),
    ("p2", "caduta da ponteggio alto", "contusione"),
    ("p3", "urto contro carrello fermo", "trauma"),
    ("p4", "schiacciamento sotto pressa", "amputazione"),
    ("p5", "ustione da metallo fuso", "ustione"),
    ("p6", "inalazione di fumi densi", "intossicazione"),
    ("p7", "contatto con cavo scoperto", "folgorazione"),
]


NO_STOPWORDS = PreprocessConfig(stopwords=frozenset())


def overfit_fixture(epochs=200, seq_len=5):
    corpus = make_corpus(OVERFIT_ROWS)
    pre = NO_STOPWORDS
    dynamics = list(tokenize(corpus.dynamics, pre))
    consequences = list(tokenize(corpus.consequences, pre))
    vocab = lm.fit_vocab(dynamics + consequences, cap=64)
    config = lm.LmConfig(
        vocab_size=len(vocab), embed_dim=8, recurrent_units=8, dense_units=16,
        dropout_rate=0.0, seq_len=seq_len, learning_rate=0.02, batch_size=8,
        epochs=epochs, seed=11, dtype="float32",
    )
    ids, targets = lm.make_train_pairs(dynamics, consequences, vocab, config)
    return corpus, pre, vocab, config, ids, targets


def gradcheck_fixture(seed=7):
    """Tiny float64 model and 3 random pairs, ``(model, ids, targets)``, for
    finite differences."""
    config = lm.LmConfig(
        vocab_size=12, embed_dim=4, recurrent_units=3, dense_units=4,
        dropout_rate=0.0, seq_len=5, dtype="float64", seed=3,
    )
    vocab = lm.LmVocabulary([lm.PAD_TOKEN, lm.UNK_TOKEN]
                            + [f"t{i}" for i in range(10)])
    rng = np.random.default_rng(seed)
    model = lm.LmModel.initialized(config, vocab, NO_STOPWORDS, rng)
    ids = np.empty((3, config.seq_len), dtype=np.int64)
    targets = np.zeros((3, config.vocab_size))
    for i in range(3):
        ids[i] = rng.integers(0, config.vocab_size, size=config.seq_len)
        targets[i, rng.integers(2, config.vocab_size, size=2)] = 1.0
    return model, ids, targets


def zero_model(config):
    """Model with every parameter zero and the vocabulary PAD, UNK, t0, t1, ..."""
    vocab = lm.LmVocabulary([lm.PAD_TOKEN, lm.UNK_TOKEN]
                            + [f"t{i}" for i in range(config.vocab_size - 2)])
    params = lm.FlatParams(config, len(vocab))
    return lm.LmModel(config=config, vocab=vocab, pre=NO_STOPWORDS, params=params)


def new_grads(model):
    """A gradient buffer of ``model``'s layout, for ``backward`` to fill."""
    return lm.FlatParams(model.config, len(model.vocab))


def batch_loss(model, ids, targets):
    """Forward without dropout and mean BCE, without gradients."""
    probs, _ = lm._forward_batch(model.params, model.config, ids, None, {})
    return lm.bce_loss(probs, targets)


def max_relative_fd_error(model, ids, targets, coords_per_tensor, fd_rng, h=1e-5):
    """Max symmetric relative error between analytic and central-diff grads."""
    grads, _ = lm.backward(model, ids, targets, None, new_grads(model), {})
    worst = 0.0
    for name in sorted(model.params):
        flat = model.params[name].ravel()
        gflat = grads[name].ravel()
        n_coords = min(coords_per_tensor, flat.size)
        idxs = fd_rng.choice(flat.size, size=n_coords, replace=False)
        for idx in idxs:
            orig = flat[idx]
            flat[idx] = orig + h
            loss_plus = batch_loss(model, ids, targets)
            flat[idx] = orig - h
            loss_minus = batch_loss(model, ids, targets)
            flat[idx] = orig
            fd = (loss_plus - loss_minus) / (2.0 * h)
            analytic = gflat[idx]
            rel = abs(analytic - fd) / max(abs(analytic) + abs(fd), 1e-8)
            worst = max(worst, rel)
    return worst
