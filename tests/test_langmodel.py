import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lstm_oracle
from incmine import langmodel as lm
from incmine.cli import main
from incmine.errors import IncmineError
from lm_fixtures import (NO_STOPWORDS, batch_loss, gradcheck_fixture,
                         max_relative_fd_error, new_grads, overfit_fixture, zero_model)


CLIP = lm.clip_gradients
LSTM_FORWARD = lm._lstm_forward


def small_vocab():
    return lm.LmVocabulary([lm.PAD_TOKEN, lm.UNK_TOKEN, "a", "b"])


class TestVocab:
    def test_fit_counts_and_reserved(self):
        vocab = lm.fit_vocab([["a", "a", "b"]], cap=5)
        assert vocab.tokens == (lm.PAD_TOKEN, lm.UNK_TOKEN, "a", "b")

    def test_cap_truncates(self):
        texts = [[f"w{i}" for i in range(10)]]
        vocab = lm.fit_vocab(texts, cap=5)
        assert len(vocab) == 5  # PAD, UNK + 3 corpus tokens

    def test_frequency_tie_lexicographic(self):
        vocab = lm.fit_vocab([["b", "a"]], cap=4)
        assert vocab.tokens[2] == "a"

    def test_no_tokens(self):
        with pytest.raises(IncmineError, match="no tokens to build a vocabulary from"):
            lm.fit_vocab([[]], cap=10)


class TestEncode:
    def test_pads_right(self):
        ids = lm.encode(["a"], small_vocab(), 3)
        assert list(ids) == [2, 0, 0]

    def test_unknown_maps_to_unk(self):
        ids = lm.encode(["z"], small_vocab(), 3)
        assert list(ids) == [1, 0, 0]

    def test_truncates(self):
        ids = lm.encode(["a", "b", "a", "b", "a"], small_vocab(), 3)
        assert list(ids) == [2, 3, 2]


class TestForward:
    def test_shape_and_range(self):
        model, ids, _ = gradcheck_fixture()
        probs = lm.forward(model, ids[0])
        assert probs.shape == (len(model.vocab),)
        assert ((probs > 0.0) & (probs < 1.0)).all()

    def test_zero_params_give_half(self):
        model = zero_model(lm.LmConfig(vocab_size=8, embed_dim=3, recurrent_units=2,
                                       dense_units=3, dropout_rate=0.0, seq_len=4))
        probs = lm.forward(model, np.zeros(4, dtype=np.int64))
        assert np.allclose(probs, 0.5)

    def test_eval_mode_deterministic(self):
        model, ids, _ = gradcheck_fixture()
        one = lm.forward(model, ids[0])
        two = lm.forward(model, ids[0])
        assert np.array_equal(one, two)

    def test_returns_the_vocabulary_slots_only(self):
        model = _short_vocab_model()
        probs = lm.forward(model, np.arange(5))
        assert probs.shape == (len(model.vocab),) == (8,)
        full, _ = lm._forward_batch(model.params, model.config, np.arange(5)[None, :],
                                    None, {})
        assert np.array_equal(probs, full[0, :8])

    @pytest.mark.parametrize("bad", [
        pytest.param(8, id="below-vocab_size"),  # read an untrained row, silently
        pytest.param(12, id="at-vocab_size"),    # raised a raw IndexError
        pytest.param(-1, id="negative"),         # read the last embedding row
    ])
    def test_id_outside_the_vocabulary_is_refused(self, bad):
        model = _short_vocab_model()
        ids = np.array([2, 3, bad, 0, 0])
        with pytest.raises(IncmineError, match=rf"input id {bad} is outside the "
                                               rf"vocabulary's ids \[0, 8\)"):
            lm.forward(model, ids)

    def test_non_finite_probability_is_refused(self):
        model, ids, _ = gradcheck_fixture()
        model.params["out_b"][3] = np.nan
        with pytest.raises(IncmineError, match=r"^non-finite activation in forward pass$"):
            lm.forward(model, ids[0])


def _short_vocab_model():
    """A float64 model of 8 tokens under a vocab_size of 12."""
    config = lm.LmConfig(vocab_size=12, embed_dim=4, recurrent_units=3, dense_units=4,
                         dropout_rate=0.0, seq_len=5, dtype="float64")
    vocab = lm.LmVocabulary([lm.PAD_TOKEN, lm.UNK_TOKEN] + [f"t{i}" for i in range(6)])
    return lm.LmModel.initialized(config, vocab, NO_STOPWORDS, np.random.default_rng(1))


class TestBceLoss:
    def test_half_prob_one_target(self):
        assert abs(lm.bce_loss([0.5], [1.0]) - math.log(2)) < 1e-12

    def test_perfect_prediction_near_zero(self):
        assert lm.bce_loss([1.0, 0.0], [1.0, 0.0]) <= -math.log1p(-1e-7) + 1e-12

    def test_confident_mistake(self):
        assert abs(lm.bce_loss([0.9], [0.0]) - 2.302585) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(IncmineError, match=r"shape mismatch: probs \(2,\) vs target \(1,\)"):
            lm.bce_loss([0.5, 0.5], [1.0])


class TestBackward:
    def test_finite_difference_agreement(self):
        model, ids, targets = gradcheck_fixture()
        worst = max_relative_fd_error(model, ids, targets, coords_per_tensor=11,
                                      fd_rng=np.random.default_rng(0))
        assert worst < 1e-4

    def test_zero_model_zero_target_bias_gradient(self):
        model = zero_model(lm.LmConfig(vocab_size=12, embed_dim=4, recurrent_units=3,
                                       dense_units=4, dropout_rate=0.0, seq_len=5))
        grads, _ = lm.backward(model, np.zeros((1, 5), dtype=np.int64),
                               np.zeros((1, 12), dtype=np.float32), None,
                               new_grads(model), {})
        assert np.allclose(grads["out_b"], 0.5 / 12)

    def test_duplicated_example_same_gradient(self):
        model, ids, targets = gradcheck_fixture()
        single, _ = lm.backward(model, ids[[0]], targets[[0]], None, new_grads(model), {})
        doubled, _ = lm.backward(model, ids[[0, 0]], targets[[0, 0]], None,
                                 new_grads(model), {})
        for name in single:
            assert np.allclose(single[name], doubled[name], atol=1e-12)

    def test_empty_batch_rejected(self):
        model, _, _ = gradcheck_fixture()
        with pytest.raises(IncmineError, match="batch must be non-empty"):
            lm.backward(model, np.zeros((0, 5), dtype=np.int64), np.zeros((0, 12)), None,
                        new_grads(model), {})

    def test_reused_buffer_matches_fresh(self):
        # every view is overwritten; the embedding, accumulated into, is zeroed
        model, ids, targets = gradcheck_fixture()
        grads = lm.FlatParams(model.config, len(model.vocab))
        grads.flat.fill(np.nan)
        for b in ([0], [1, 2], [0, 1, 2]):
            fresh, fresh_loss = lm.backward(model, ids[b], targets[b], None,
                                            new_grads(model), {})
            got, loss = lm.backward(model, ids[b], targets[b], None, grads, {})
            assert got is grads and loss == fresh_loss
            assert np.array_equal(grads.flat, fresh.flat)


def _whole_buffer_clip(grads, config):
    """Clipping as one float64 copy of the whole buffer, summed per tensor
    in registry order, scaling every element: the reference for the
    per-tensor squares, on a buffer of the ``vocab_size`` layout."""
    clip_norm = config.clip_norm
    squares = grads.flat.astype(np.float64)
    np.square(squares, out=squares)
    total, start = 0.0, 0
    for g in grads.values():
        total += float(squares[start:start + g.size].sum())
        start += g.size
    norm = math.sqrt(total)
    if clip_norm > 0 and norm > clip_norm:
        grads.flat *= clip_norm / norm
    return norm


class TestClip:
    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_norm_is_the_per_tensor_float64_sum(self, dtype):
        config = lm.LmConfig(vocab_size=40, embed_dim=6, recurrent_units=5,
                             dense_units=7, seq_len=4, dtype=dtype)
        grads = lm.FlatParams(config, config.vocab_size)
        grads.flat[...] = np.random.default_rng(3).normal(0.0, 2.0, grads.flat.size)
        want = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum())
                             for g in grads.values()))
        before = grads.flat.copy()
        assert lm.clip_gradients(grads, replace(config, clip_norm=0.0)) == want
        assert np.array_equal(grads.flat, before)
        assert lm.clip_gradients(grads, replace(config, clip_norm=1.0)) == want
        assert np.array_equal(grads.flat, before * (1.0 / want))

    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_matches_the_whole_buffer_copy(self, dtype):
        # tensors past 16 elements, so numpy's pairwise sum splits them; an
        # embedding of 41 rows against the reference's 300, whose rows past
        # them have zero gradients. The embedding dominates the norm, and at
        # this seed its squares summed without the zero padding change the
        # norm in both dtypes
        config = lm.LmConfig(vocab_size=300, embed_dim=24, recurrent_units=9,
                             dense_units=11, seq_len=6, clip_norm=0.5, dtype=dtype)
        grads = lm.FlatParams(config, 41)
        grads.flat[...] = np.random.default_rng(15).normal(0.0, 3.0, grads.flat.size)
        grads.flat[grads["embedding"].size:] *= 0.01
        want = lm.FlatParams(config, config.vocab_size)
        for name, g in grads.items():
            want[name][:len(g)] = g
        norm = lm.clip_gradients(grads, config)
        assert norm == _whole_buffer_clip(want, config)
        for name, g in grads.items():
            assert np.array_equal(g, want[name][:len(g)])


def _lstm_case(seed, dtype, B, T, n_in, u):
    rng = np.random.default_rng(seed)
    def draw(*shape):
        return rng.normal(0.0, 0.8, size=shape).astype(dtype)
    return (draw(B, T, n_in), draw(n_in, 4 * u), draw(u, 4 * u), draw(4 * u),
            draw(B, T, u))


_LSTM_CASE = dict(seed=st.integers(0, 2**32 - 1),
                  dtype=st.sampled_from((np.float32, np.float64)),
                  B=st.integers(1, 7), T=st.integers(1, 6),
                  n_in=st.integers(1, 5), u=st.integers(1, 4))


def _nan_buffers(wx, wh, b):
    """d_wx, d_wh and d_b buffers for ``_lstm_backward``, filled with NaN so
    that a view it does not zero shows in the comparison."""
    return [np.full_like(w, np.nan) for w in (wx, wh, b)]


class TestLstmKernelOracle:
    """The fw-only kernels, with bw run on reversed time, equal the old
    reverse-indexed kernels bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(**_LSTM_CASE)
    # d_x is a gemv per step at n_in=1; a strided dz rounds differently there
    @example(seed=0, dtype=np.float32, B=2, T=2, n_in=1, u=2)
    @example(seed=1, dtype=np.float64, B=1, T=4, n_in=3, u=3)  # predict's batch of one
    def test_each_direction_matches_reverse_indexed_oracle(self, seed, dtype,
                                                           B, T, n_in, u):
        x, wx, wh, b, d_h = _lstm_case(seed, dtype, B, T, n_in, u)
        # new arrays, and a training step's: the NaN-filled (gates, c, h)
        # of an earlier call, written over
        reused = [np.full(shape, np.nan, dtype=dtype)
                  for shape in ((T, B, 4 * u), (T, B, u), (B, T, u))]
        for out in (None, reused):
            for reverse, order in ((False, slice(None)), (True, slice(None, None, -1))):
                want_h, want_cache = lstm_oracle._lstm_forward(x, wx, wh, b, reverse)
                want = lstm_oracle._lstm_backward(want_cache, wx, wh, d_h)
                h, cache = lm._lstm_forward(x[:, order], wx, wh, b, out)
                assert out is None or all(a is o for a, o in zip(cache[1:], out))
                d_w = _nan_buffers(wx, wh, b)
                d_x = lm._lstm_backward(cache, wx, wh, d_h[:, order], *d_w)
                assert h.dtype == dtype and np.array_equal(h[:, order], want_h)
                assert np.array_equal(d_x[:, order], want[0])
                for got, ref in zip(d_w, want[1:]):  # d_wx, d_wh, d_b
                    assert got.dtype == dtype and np.array_equal(got, ref)

    @settings(max_examples=30, deadline=None)
    @given(**_LSTM_CASE)
    def test_layer_helpers_match_oracle(self, seed, dtype, B, T, n_in, u):
        x = _lstm_case(seed, dtype, B, T, n_in, u)[0]
        rng = np.random.default_rng(seed + 1)
        params = {f"lstm1_{d}_{part}": rng.normal(0.0, 0.8, size=shape).astype(dtype)
                  for d in ("fw", "bw")
                  for part, shape in (("wx", (n_in, 4 * u)), ("wh", (u, 4 * u)),
                                      ("b", (4 * u,)))}
        d_h = rng.normal(0.0, 0.8, size=(B, T, 2 * u)).astype(dtype)
        h, caches = lm._bilstm_forward(params, 1, x, {})
        grads = {name: np.full_like(p, np.nan) for name, p in params.items()}
        d_x = lm._bilstm_backward(params, 1, caches, d_h, grads)
        want_h, want_d_x = [], []
        for d, d_h_dir in zip(("fw", "bw"), np.split(d_h, 2, axis=2)):
            wx, wh, b = (params[f"lstm1_{d}_{part}"] for part in ("wx", "wh", "b"))
            h_dir, cache = lstm_oracle._lstm_forward(x, wx, wh, b, d == "bw")
            d_x_dir, *d_w = lstm_oracle._lstm_backward(cache, wx, wh, d_h_dir)
            want_h.append(h_dir)
            want_d_x.append(d_x_dir)
            for part, ref in zip(("wx", "wh", "b"), d_w):
                assert np.array_equal(grads[f"lstm1_{d}_{part}"], ref)
        assert np.array_equal(h, np.concatenate(want_h, axis=2))
        assert np.array_equal(d_x, want_d_x[0] + want_d_x[1])
        assert sorted(grads) == sorted(params)


    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("n_in", (128, 200))  # layer 1 (embed_dim), layer 2 (2u)
    @pytest.mark.parametrize("B", (1, 32))        # one predict, one training batch
    def test_stock_sizes_match_oracle(self, B, n_in, dtype):
        """At B=1 numpy runs each step's input projection as a gemv, and a
        (B*T, d) GEMM rounds differently there; the tiny hypothesis sizes
        above do not show it, the stock layer sizes do."""
        config = lm.LmConfig()
        T, u = config.seq_len, config.recurrent_units
        rng = np.random.default_rng(B * 1000 + n_in)
        def draw(*shape):
            bound = lm._xavier_bound(shape[-2:]) if len(shape) > 1 else 0.5
            return rng.uniform(-bound, bound, size=shape).astype(dtype)
        x = rng.normal(0.0, 1.0, size=(B, T, n_in)).astype(dtype)
        wx, wh, b = draw(n_in, 4 * u), draw(u, 4 * u), draw(4 * u)
        d_h = rng.normal(0.0, 0.01, size=(B, T, u)).astype(dtype)
        for reverse, order in ((False, slice(None)), (True, slice(None, None, -1))):
            want_h, want_cache = lstm_oracle._lstm_forward(x, wx, wh, b, reverse)
            want = lstm_oracle._lstm_backward(want_cache, wx, wh, d_h)
            h, cache = lm._lstm_forward(x[:, order], wx, wh, b)
            d_w = _nan_buffers(wx, wh, b)
            d_x = lm._lstm_backward(cache, wx, wh, d_h[:, order], *d_w)
            assert np.array_equal(h[:, order], want_h)
            assert np.array_equal(d_x[:, order], want[0])
            for g, ref in zip(d_w, want[1:]):  # d_wx, d_wh, d_b
                assert g.dtype == dtype and np.array_equal(g, ref)


class TestSigmoid:
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_matches_masked_sigmoid(self, dtype):
        rng = np.random.default_rng(7)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e4, -1e4, 88.7, -88.7,
                   103.9, -103.9, 709.8, -709.8, 1e-30, -1e-30]
        z = np.concatenate([
            np.array(special),
            rng.normal(0.0, 1.0, 5000),
            rng.uniform(-1e4, 1e4, 5000),
            np.logspace(-8, 4, 2000) * rng.choice((-1.0, 1.0), 2000),
        ]).astype(dtype)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = lm._sigmoid(z)
        want = lstm_oracle._sigmoid(z)
        assert got.dtype == dtype
        assert np.array_equal(got, want, equal_nan=True)
        real = ~np.isnan(z)  # a NaN comes out NaN; its sign bit is not compared
        assert np.array_equal(np.signbit(got[real]), np.signbit(want[real]))
        assert np.array_equal(lm._sigmoid(z.reshape(-1, 15)), want.reshape(-1, 15),
                              equal_nan=True)


class TestAdam:
    def test_hand_computed_first_step(self):
        params = np.zeros(1)
        grads = np.full(1, 0.5)
        state = lm.AdamState.for_params(params)
        lm.adam_step(params, grads, state, lm.LmConfig(seq_len=1))
        expected = -1e-3 * 0.5 / (0.5 + 1e-8)
        assert abs(params[0] - expected) < 1e-15
        assert state.t == 1

    def test_zero_gradient_fixed_point(self):
        params = np.full(3, 1.5)
        grads = np.zeros(3)
        state = lm.AdamState.for_params(params)
        lm.adam_step(params, grads, state, lm.LmConfig(seq_len=1))
        assert np.array_equal(params, np.full(3, 1.5))

    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_blocked_update_matches_per_tensor_update(self, dtype):
        config = lm.LmConfig(vocab_size=2000, embed_dim=16, recurrent_units=8,
                             dense_units=20, seq_len=5, dtype=dtype)
        n_live = config.vocab_size
        assert lm._param_count(config, n_live) > lm._ADAM_BLOCK  # blocks end inside tensors
        rng = np.random.default_rng(8)
        params = lm.init_params(config, n_live, rng)
        want = {name: p.copy() for name, p in params.items()}
        m = {name: np.zeros_like(p) for name, p in want.items()}
        v = {name: np.zeros_like(p) for name, p in want.items()}
        state = lm.AdamState.for_params(params.flat)
        b1, b2 = config.beta1, config.beta2
        for t in range(1, 4):
            grads = lm.FlatParams(config, n_live)
            grads.flat[...] = rng.normal(0.0, 0.1, grads.flat.size)
            for name, p in want.items():  # reference: the same update per tensor
                g = grads[name]
                m[name] *= b1
                m[name] += (1.0 - b1) * g
                v[name] *= b2
                v[name] += (1.0 - b2) * (g * g)
                m_hat = m[name] / (1.0 - b1 ** t)
                v_hat = v[name] / (1.0 - b2 ** t)
                p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
            lm.adam_step(params.flat, grads.flat, state, config)
            for name, p in want.items():
                assert np.array_equal(params[name], p)
                assert np.array_equal(lm.FlatParams(config, n_live, state.m)[name], m[name])
                assert np.array_equal(lm.FlatParams(config, n_live, state.v)[name], v[name])

    def test_constant_gradient_step_size_near_lr(self):
        config = lm.LmConfig(seq_len=1)
        params = np.zeros(1)
        state = lm.AdamState.for_params(params)
        prev = 0.0
        for _ in range(5):
            lm.adam_step(params, np.full(1, 0.3), state, config)
            step = abs(params[0] - prev)
            prev = params[0]
            assert abs(step - config.learning_rate) < 0.1 * config.learning_rate


class TestTrain:
    def test_vocabulary_longer_than_vocab_size_is_refused(self):
        # the CLI caps the vocabulary at vocab_size; a library call need not
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=1)
        with pytest.raises(IncmineError, match="^vocabulary larger than configured vocab_size$"):
            lm.train(ids, targets, replace(config, vocab_size=len(vocab) - 1), vocab, pre)

    def test_zero_epochs_keeps_init(self):
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=0)
        model, history = lm.train(ids, targets, config, vocab, pre)
        rng = np.random.default_rng(config.seed)
        init = lm.init_params(config, len(vocab), rng)
        assert history == []
        for name in init:
            assert np.array_equal(model.params[name], init[name])

    @pytest.mark.parametrize("dtype, seed", [pytest.param("float32", 35, id="float32"),
                                             pytest.param("float64", 2, id="float64")])
    def test_every_step_clipped_matches_whole_buffer_formula(self, dtype, seed):
        # the padded-vocabulary oracle: a cap 500 above the vocabulary, a
        # clip_norm so small that every step clips, and a reference run
        # whose vocabulary is padded with unused tokens up to the cap, the
        # vocab_size layout, clipping one copy of the whole buffer. Adam
        # all but hides a norm's last bit, so the norms are compared too: at
        # these seeds, the embedding's squares summed without the zero
        # padding change the norm of step 3 (float32) or step 2 (float64)
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=4, seq_len=30)
        config = replace(config, vocab_size=len(vocab) + 500, clip_norm=1e-3,
                         seed=seed, dtype=dtype)

        def recorded(clip, norms):
            def spy(grads, config):
                norms.append(clip(grads, config))
                return norms[-1]
            return spy

        norms, want_norms = [], []
        with mock.patch.object(lm, "clip_gradients", recorded(CLIP, norms)):
            model, history = lm.train(ids, targets, config, vocab, pre)
        assert len(norms) == config.epochs and min(norms) > config.clip_norm

        unused = [f"<unused{i}>" for i in range(config.vocab_size - len(vocab))]
        padded = lm.LmVocabulary(vocab.tokens + tuple(unused))
        with mock.patch.object(lm, "clip_gradients",
                               recorded(_whole_buffer_clip, want_norms)):
            want, want_history = lm.train(ids, targets, config, padded, pre)
        assert want.params["embedding"].shape[0] == config.vocab_size
        assert norms == want_norms
        assert history == want_history
        assert model.params.flat.dtype == config.np_dtype
        for name, view in model.params.items():
            assert np.array_equal(view, want.params[name][:len(view)]), name

    @pytest.mark.parametrize("bad", [
        pytest.param(lambda n: n, id="past-the-vocabulary"),  # raised an IndexError
        pytest.param(lambda n: -1, id="negative"),  # read the last embedding row
    ])
    def test_id_outside_the_vocabulary_is_refused(self, bad):
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=1)
        bad = bad(len(vocab))
        config = replace(config, vocab_size=len(vocab) + 5)
        ids = ids.copy()
        ids[3, 1] = bad
        with pytest.raises(IncmineError, match=rf"input id {bad} is outside the "
                                               rf"vocabulary's ids \[0, {len(vocab)}\)"):
            lm.train(ids, targets, config, vocab, pre)

    def test_short_last_batch_keeps_the_first_workspace(self):
        # 8 pairs in batches of 3: every epoch ends on a batch of 2, whose
        # LSTM arrays are new; each full batch writes over the first step's
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=4)
        config = replace(config, batch_size=3)
        calls, fresh = [], []

        def spy(x, wx, wh, b, out=None):
            h, cache = LSTM_FORWARD(x, wx, wh, b, out)
            calls.append(len(x))
            fresh.append(out is None or cache[1] is not out[0])
            return h, cache

        with mock.patch.object(lm, "_lstm_forward", spy):
            lm.train(ids, targets, config, vocab, pre)
        assert len(calls) == 4 * 3 * config.epochs  # directions x steps x epochs
        assert [n for n, new in zip(calls, fresh) if new] == [3] * 4 + [2] * 4 * config.epochs

    def test_seed_reproducibility(self):
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=5)
        m1, h1 = lm.train(ids, targets, config, vocab, pre)
        m2, h2 = lm.train(ids, targets, config, vocab, pre)
        assert h1 == h2
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_divergence_reports_position(self):
        # a gradient goes non-finite; Adam carries it into the parameters
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=3)
        hot = replace(config, learning_rate=1e18, clip_norm=0.0, epochs=8)
        with np.errstate(all="ignore"):
            with pytest.raises(IncmineError, match=r"^training diverged at epoch 2, batch 0$"):
                lm.train(ids, targets, hot, vocab, pre)

    def test_update_that_overflows_is_refused_at_its_step(self):
        # one batch, one step: its loss is finite, its update is not, and
        # nothing would come after it to notice
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=1)
        assert len(ids) <= config.batch_size
        hot = replace(config, learning_rate=1e300)
        with np.errstate(all="ignore"):
            with pytest.raises(IncmineError, match=r"^training diverged at epoch 0, batch 0$"):
                lm.train(ids, targets, hot, vocab, pre)

    def test_non_finite_forward_is_named_at_its_step(self):
        # one batch per epoch: the first update leaves float32 parameters
        # near 1e38, still finite, and the second step's forward pass
        # overflows to a NaN loss
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=6)
        hot = replace(config, learning_rate=1e38)
        with np.errstate(all="ignore"):
            model, _ = lm.train(ids, targets, replace(hot, epochs=1), vocab, pre)
            assert np.isfinite(model.params.flat).all()
            dense = targets.multi_hot(np.arange(len(ids)), hot)
            assert math.isnan(batch_loss(model, ids, dense))
            with pytest.raises(IncmineError, match=r"^training diverged at epoch 1, batch 0$"):
                lm.train(ids, targets, hot, vocab, pre)

    def test_overfits_eight_pairs(self):
        corpus, pre, vocab, config, ids, targets = overfit_fixture(epochs=200)
        model, history = lm.train(ids, targets, config, vocab, pre)
        assert history[-1] < 0.1 * history[0]
        for dynamics, consequence in zip(corpus.dynamics, corpus.consequences):
            top = lm.predict_consequence(model, dynamics, top_k=1)
            assert top[0][0] == consequence

    def test_memory_does_not_grow_with_pairs_times_vocab(self):
        """Pairs and one epoch of training on 8N pairs peak less than one
        N x V float32 matrix above N pairs: only a batch's targets are
        ever dense."""
        config = lm.LmConfig(vocab_size=5000, embed_dim=4, recurrent_units=3,
                             dense_units=4, seq_len=5, epochs=1, batch_size=32)
        vocab = lm.LmVocabulary([lm.PAD_TOKEN, lm.UNK_TOKEN]
                                + [f"t{i}" for i in range(100)])

        def peak(n):
            dynamics = [[f"t{i % 100}", f"t{7 * i % 100}"] for i in range(n)]
            consequences = [[f"t{3 * i % 100}", f"t{5 * i % 100}"] for i in range(n)]
            tracemalloc.start()  # numpy reports its array buffers to tracemalloc
            try:
                ids, targets = lm.make_train_pairs(dynamics, consequences, vocab, config)
                lm.train(ids, targets, config, vocab, NO_STOPWORDS)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 64
        assert peak(8 * n) - peak(n) < n * config.vocab_size * 4

    def test_loss_window_non_increasing_after_20(self):
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=120)
        _, history = lm.train(ids, targets, config, vocab, pre)
        windows = [float(np.mean(history[i:i + 10]))
                   for i in range(len(history) - 9)]
        for i in range(20, len(windows) - 1):
            assert windows[i + 1] <= windows[i] + 1e-12


class TestStepMemory:
    """One training step at the stock layer sizes holds, above the
    parameter buffers, its activations each stored once, and clipping holds
    one tensor's float64 squares. numpy reports its array buffers to
    tracemalloc."""

    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_peak_above_the_parameter_buffers(self, dtype):
        # a small V, so that the head's (B, V) temporaries do not hide the
        # LSTM activations
        config = lm.LmConfig(vocab_size=300, dtype=dtype)
        B, T, u = config.batch_size, config.seq_len, config.recurrent_units
        item = np.dtype(dtype).itemsize
        vocab = lm.LmVocabulary([lm.PAD_TOKEN, lm.UNK_TOKEN]
                                + [f"t{i}" for i in range(config.vocab_size - 2)])
        rng = np.random.default_rng(6)
        model = lm.LmModel.initialized(config, vocab, NO_STOPWORDS, rng)
        grads = lm.FlatParams(config, len(vocab))
        ids = rng.integers(0, config.vocab_size, size=(B, T))
        offsets = np.arange(B + 1, dtype=np.int64) * 2
        targets = lm.TargetIds(offsets, rng.integers(2, config.vocab_size, size=2 * B))
        dense = targets.multi_hot(np.arange(B), config)
        # (B, T, k) arrays in units of B * T * item: the cache holds the
        # embedded input (embed_dim) and, per layer, each direction's gates,
        # c and h (6u) and the layer's output (2u); the backward adds the
        # gradient at layer 2's output, each direction's d_x and their sum
        # (2u each); the head's temporaries are a few (B, V) arrays
        activations = config.embed_dim + 2 * (2 * 6 * u + 2 * u) + 4 * 2 * u
        bound = B * T * item * activations + 8 * B * config.vocab_size * item
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lm.backward(model, ids, dense, rng, grads, {})
            step_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            lm.clip_gradients(grads, config)
            clip_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert step_peak < bound
        largest = max(g.size for g in grads.values())
        assert clip_peak < 8 * largest + (64 << 10)


class TestDropout:
    def test_inverted_scaling_matches_eval_expectation(self):
        # mean over many masks of the dropped pre-output activation ~ eval value
        config = lm.LmConfig(vocab_size=10, embed_dim=4, recurrent_units=3,
                             dense_units=6, dropout_rate=0.5, seq_len=4,
                             dtype="float64")
        vocab = lm.LmVocabulary([lm.PAD_TOKEN, lm.UNK_TOKEN] +
                                [f"t{i}" for i in range(8)])
        model = lm.LmModel.initialized(config, vocab, NO_STOPWORDS,
                                       np.random.default_rng(5))
        from incmine.langmodel import _forward_batch
        ids = np.array([[2, 3, 4, 5]], dtype=np.int64)
        _, cache = _forward_batch(model.params, config, ids, None, {})
        eval_act = cache["a2d"][0]
        rng = np.random.default_rng(99)
        n_samples = 10_000
        acc = np.zeros_like(eval_act)
        for _ in range(n_samples):
            _, c = _forward_batch(model.params, config, ids, rng, {})
            acc += c["a2d"][0]
        mc_mean = acc / n_samples
        rate = config.dropout_rate
        # per-unit MC std of mean: act * sqrt(rate/(1-rate)) / sqrt(N)
        sigma = np.abs(eval_act) * math.sqrt(rate / (1 - rate) / n_samples)
        assert (np.abs(mc_mean - eval_act) <= 3.0 * sigma + 1e-12).all()

    def test_backward_without_rng_applies_no_dropout(self):
        # a None rng is the eval-mode pass: the gradients of the same model
        # with dropout off
        model, ids, targets = gradcheck_fixture()
        dropped = lm.LmModel(config=replace(model.config, dropout_rate=0.5),
                             vocab=model.vocab, pre=model.pre, params=model.params)
        assert model.config.dropout_rate == 0.0
        got, got_loss = lm.backward(dropped, ids, targets, None, new_grads(dropped), {})
        want, want_loss = lm.backward(model, ids, targets, None, new_grads(model), {})
        assert got_loss == want_loss
        assert np.array_equal(got.flat, want.flat)


class TestPredict:
    def test_untrained_zero_model_index_order(self):
        model = zero_model(lm.LmConfig(vocab_size=8, embed_dim=3, recurrent_units=2,
                                       dense_units=3, dropout_rate=0.0, seq_len=4))
        top = lm.predict_consequence(model, "qualsiasi testo", top_k=6)
        assert [t for t, _ in top] == [f"t{i}" for i in range(6)]
        assert all(p == 0.5 for _, p in top)

    def test_reserved_tokens_excluded(self):
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=0)
        model, _ = lm.train(ids, targets, config, vocab, pre)
        everything = lm.predict_consequence(model, "scala", top_k=len(vocab))
        names = [t for t, _ in everything]
        assert lm.PAD_TOKEN not in names and lm.UNK_TOKEN not in names
        assert len(everything) == len(vocab) - 2


class TestArtifact:
    def test_roundtrip_exact_forward(self, tmp_path):
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=3)
        model, _ = lm.train(ids, targets, config, vocab, pre)
        lm.save_model(model, tmp_path / "model")
        loaded = lm.load_model(tmp_path / "model")
        before = lm.forward(model, ids[0])
        after = lm.forward(loaded, ids[0])
        assert np.array_equal(before, after)

    def test_checksum_error(self, tmp_path):
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=0)
        model, _ = lm.train(ids, targets, config, vocab, pre)
        lm.save_model(model, tmp_path / "model")
        blob = tmp_path / "model" / "params.bin"
        raw = bytearray(blob.read_bytes())
        raw[-1] ^= 0xFF  # the last byte of out_b
        blob.write_bytes(bytes(raw))
        with pytest.raises(IncmineError, match="params.bin"):
            lm.load_model(tmp_path / "model")

    def test_version_error_names_both(self, tmp_path):
        import json
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=0)
        model, _ = lm.train(ids, targets, config, vocab, pre)
        lm.save_model(model, tmp_path / "model")
        manifest_path = tmp_path / "model" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = "lm-v0"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IncmineError, match="lm-v0.*lm-v3"):
            lm.load_model(tmp_path / "model")


def _model(dtype="float32"):
    if dtype == "float32":
        _, pre, vocab, config, ids, targets = overfit_fixture(epochs=2)
        return lm.train(ids, targets, config, vocab, pre)[0]
    return gradcheck_fixture()[0]


def _saved(tmp_path, dtype="float32"):
    lm.save_model(_model(dtype), tmp_path / "model")
    return tmp_path / "model"


def _artifact_files(path):
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*"))
            if p.is_file()}


def _assert_tiles_one_buffer(params, config, n_live):
    """Each tensor is a C-contiguous view of ``params.flat``, in registry order."""
    flat = params.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous
    offset = 0
    for (name, shape), (got, view) in zip(lm._param_specs(config, n_live), params.items()):
        assert got == name and view.shape == shape and view.flags.c_contiguous
        assert np.shares_memory(view, flat)
        assert view.ctypes.data == flat.ctypes.data + offset * flat.itemsize
        offset += view.size
    assert offset == flat.size
    assert list(params) == [name for name, _ in lm._param_specs(config, n_live)]


class TestFlatLayout:
    def test_initialised_tensors_tile_one_buffer(self):
        config = lm.LmConfig(vocab_size=50, embed_dim=6, recurrent_units=5,
                             dense_units=7, seq_len=4)
        params = lm.init_params(config, 31, np.random.default_rng(0))
        _assert_tiles_one_buffer(params, config, 31)
        assert params.flat.dtype == np.float32

    def test_init_draw_is_the_per_tensor_draw(self):
        config = lm.LmConfig(vocab_size=50, embed_dim=6, recurrent_units=5,
                             dense_units=7, seq_len=4)
        params = lm.init_params(config, config.vocab_size, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        for name, shape in lm._param_specs(config, config.vocab_size):
            bound = lm._xavier_bound(shape)
            want = rng.uniform(-bound, bound, size=shape).astype(np.float32)
            assert np.array_equal(params[name], want)

    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_rows_past_the_vocabulary_are_drawn_and_dropped(self, dtype):
        # the rows past the 37 kept span more than one throw-away chunk, and
        # their end does not fall on a chunk edge
        config = lm.LmConfig(vocab_size=2000, embed_dim=40, recurrent_units=5,
                             dense_units=7, seq_len=4, dtype=dtype)
        n_live = 37
        dropped = (config.vocab_size - n_live) * config.embed_dim
        assert dropped > lm._ADAM_BLOCK and dropped % lm._ADAM_BLOCK
        params = lm.init_params(config, n_live, np.random.default_rng(4))
        _assert_tiles_one_buffer(params, config, n_live)
        rng = np.random.default_rng(4)
        for name, shape in lm._param_specs(config, config.vocab_size):
            bound = lm._xavier_bound(shape)
            want = rng.uniform(-bound, bound, size=shape).astype(config.np_dtype)
            assert np.array_equal(params[name], want[:len(params[name])]), name

    def test_loaded_tensors_tile_one_buffer(self, tmp_path):
        loaded = lm.load_model(_saved(tmp_path))
        _assert_tiles_one_buffer(loaded.params, loaded.config, len(loaded.vocab))

    def test_wrong_buffer_size_rejected(self):
        config = lm.LmConfig(vocab_size=8, embed_dim=2, recurrent_units=2,
                             dense_units=2, seq_len=2)
        with pytest.raises(ValueError, match="layout needs"):
            lm.FlatParams(config, 8, np.zeros(lm._param_count(config, 8) + 1, np.float32))


class TestArtifactRoundTrip:
    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_save_of_load_is_byte_identical(self, tmp_path, dtype):
        path = _saved(tmp_path, dtype)
        lm.save_model(lm.load_model(path), tmp_path / "again")
        assert _artifact_files(tmp_path / "again") == _artifact_files(path)

    def test_float64_load_casts_the_stored_float32(self, tmp_path):
        path = _saved(tmp_path, "float64")
        loaded = lm.load_model(path)
        assert loaded.config.dtype == "float64"
        _assert_tiles_one_buffer(loaded.params, loaded.config, len(loaded.vocab))
        stored = np.fromfile(path / "params.bin", dtype="<f4")
        start = 0
        for name, shape in lm._param_specs(loaded.config, len(loaded.vocab)):
            stop = start + math.prod(shape)
            assert loaded.params[name].dtype == np.float64
            assert np.array_equal(loaded.params[name], stored[start:stop].reshape(shape))
            start = stop
        assert start == stored.size

    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_params_file_is_the_views_in_registry_order(self, tmp_path, dtype):
        model = _model(dtype)
        path = tmp_path / "model"
        lm.save_model(model, path)
        assert {p.name for p in path.iterdir()} == {"manifest.json", "params.bin"}
        want = b"".join(np.ascontiguousarray(model.params[name], dtype="<f4").tobytes()
                        for name, _ in lm._param_specs(model.config, len(model.vocab)))
        assert (path / "params.bin").read_bytes() == want


class TestTensorFileSize:
    """A params.bin of the wrong size is refused before it is read."""

    @pytest.mark.parametrize("size", [
        pytest.param(lambda n: n - 1, id="truncated"),
        pytest.param(lambda n: n + 1, id="one-extra-byte"),
        pytest.param(lambda n: 3 << 30, id="sparse-3GiB"),
    ])
    def test_wrong_size_is_artifact_error(self, tmp_path, capsys, size):
        path = _saved(tmp_path)
        blob = path / "params.bin"
        n = blob.stat().st_size
        with open(blob, "r+b") as fh:  # truncate() extends sparsely: no disk used
            fh.truncate(size(n))
        with pytest.raises(IncmineError, match=f"params.bin is {size(n)} bytes, "
                                                   f"the config needs {n}"):
            lm.load_model(path)
        capsys.readouterr()
        assert main(["predict", "--model", str(path), "--text", "scala",
                     "--output-dir", str(tmp_path / "pred")]) == 2
        err = capsys.readouterr().err
        assert "params.bin is" in err and "Traceback" not in err

    def test_file_that_shrinks_while_read_is_artifact_error(self, tmp_path, monkeypatch):
        path = _saved(tmp_path)
        blob = path / "params.bin"
        n = blob.stat().st_size
        with open(blob, "r+b") as fh:
            fh.truncate(n - 1)

        class BeforeTheCut:  # the size fstat saw before the file lost its last byte
            st_size = n

        with monkeypatch.context() as patch:
            patch.setattr(lm.os, "fstat", lambda fd: BeforeTheCut)
            with pytest.raises(IncmineError, match="params.bin shrank while being read"):
                lm.load_model(path)


class TestMakeTrainPairs:
    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_rows_are_encoded_dynamics(self, dtype):
        config = lm.LmConfig(vocab_size=6, seq_len=3, dtype=dtype)
        dynamics = [["a", "z", "b", "a"], [], ["b"]]
        ids, targets = lm.make_train_pairs(dynamics, [[], [], []], small_vocab(), config)
        assert ids.dtype == np.int64 and ids.shape == (3, 3)
        for row, tokens in zip(ids, dynamics):
            assert np.array_equal(row, lm.encode(tokens, small_vocab(), 3))
        dense = targets.multi_hot(np.arange(3), config)
        assert dense.dtype == config.np_dtype and dense.shape == (3, 6)
        assert not dense.any()

    def test_only_vocabulary_ids_above_unk_are_set(self):
        config = lm.LmConfig(vocab_size=6, seq_len=2)
        consequences = [[lm.PAD_TOKEN, "z", lm.UNK_TOKEN, "b", "b"], ["a"]]
        _, targets = lm.make_train_pairs([["a"], ["b"]], consequences,
                                         small_vocab(), config)
        assert targets.multi_hot(np.arange(2), config).tolist() == [
            [0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0]]
        assert targets.multi_hot(np.array([1, 1, 0]), config).tolist() == [
            [0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]


class TestConfig:
    def test_paper_defaults(self):
        config = lm.LmConfig()
        assert config.vocab_size == 5000
        assert config.embed_dim == 128
        assert config.recurrent_units == 100
        assert config.dense_units == 50
        assert config.dropout_rate == 0.5

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            lm.LmConfig(dropout_rate=1.0)
