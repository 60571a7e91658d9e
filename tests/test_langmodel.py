import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lstm_oracle
from incmine import langmodel as lm
from incmine.corpus import PreprocessConfig
from lm_fixtures import (gradcheck_fixture, max_relative_fd_error,
                         overfit_fixture, zero_model)


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
        with pytest.raises(lm.LangModelError):
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
        model, pairs = gradcheck_fixture()
        probs = lm.forward(model, pairs[0].input_ids)
        assert probs.shape == (model.config.vocab_size,)
        assert ((probs > 0.0) & (probs < 1.0)).all()

    def test_zero_params_give_half(self):
        model = zero_model(lm.LmConfig(vocab_size=8, embed_dim=3, recurrent_units=2,
                                       dense_units=3, dropout_rate=0.0, seq_len=4))
        probs = lm.forward(model, np.zeros(4, dtype=np.int64))
        assert np.allclose(probs, 0.5)

    def test_eval_mode_deterministic(self):
        model, pairs = gradcheck_fixture()
        one = lm.forward(model, pairs[0].input_ids, train_mode=False)
        two = lm.forward(model, pairs[0].input_ids, train_mode=False)
        assert np.array_equal(one, two)


class TestBceLoss:
    def test_half_prob_one_target(self):
        assert abs(lm.bce_loss([0.5], [1.0]) - math.log(2)) < 1e-12

    def test_perfect_prediction_near_zero(self):
        assert lm.bce_loss([1.0, 0.0], [1.0, 0.0]) <= -math.log1p(-1e-7) + 1e-12

    def test_confident_mistake(self):
        assert abs(lm.bce_loss([0.9], [0.0]) - 2.302585) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(lm.LangModelError):
            lm.bce_loss([0.5, 0.5], [1.0])


class TestBackward:
    def test_finite_difference_agreement(self):
        model, pairs = gradcheck_fixture()
        worst = max_relative_fd_error(model, pairs, coords_per_tensor=11,
                                      fd_rng=np.random.default_rng(0))
        assert worst < 1e-4

    def test_zero_model_zero_target_bias_gradient(self):
        model = zero_model(lm.LmConfig(vocab_size=12, embed_dim=4, recurrent_units=3,
                                       dense_units=4, dropout_rate=0.0, seq_len=5))
        pair = lm.TrainPair(input_ids=np.zeros(5, dtype=np.int64),
                            target=np.zeros(12, dtype=np.float32))
        grads, _ = lm.backward(model, [pair])
        assert np.allclose(grads["out_b"], 0.5 / 12)

    def test_duplicated_example_same_gradient(self):
        model, pairs = gradcheck_fixture()
        single, _ = lm.backward(model, [pairs[0]])
        doubled, _ = lm.backward(model, [pairs[0], pairs[0]])
        for name in single:
            assert np.allclose(single[name], doubled[name], atol=1e-12)

    def test_empty_batch_rejected(self):
        model, _ = gradcheck_fixture()
        with pytest.raises(lm.LangModelError):
            lm.backward(model, [])


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


class TestLstmKernelOracle:
    """The fw-only kernels, with bw run on reversed time, equal the old
    reverse-indexed kernels bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(**_LSTM_CASE)
    # d_x is a gemv per step at n_in=1; a strided dz rounds differently there
    @example(seed=0, dtype=np.float32, B=2, T=2, n_in=1, u=2)
    def test_each_direction_matches_reverse_indexed_oracle(self, seed, dtype,
                                                           B, T, n_in, u):
        x, wx, wh, b, d_h = _lstm_case(seed, dtype, B, T, n_in, u)
        for reverse, order in ((False, slice(None)), (True, slice(None, None, -1))):
            want_h, want_cache = lstm_oracle._lstm_forward(x, wx, wh, b, reverse)
            want = lstm_oracle._lstm_backward(want_cache, wx, wh, d_h)
            h, cache = lm._lstm_forward(x[:, order], wx, wh, b)
            d_x, *d_w = lm._lstm_backward(cache, wx, wh, d_h[:, order])
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
        h, caches = lm._bilstm_forward(params, 1, x)
        grads = {}
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
            got = lm._lstm_backward(cache, wx, wh, d_h[:, order])
            assert np.array_equal(h[:, order], want_h)
            assert np.array_equal(got[0][:, order], want[0])
            for g, ref in zip(got[1:], want[1:]):  # d_wx, d_wh, d_b
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
        params = {"w": np.zeros(1)}
        grads = {"w": np.full(1, 0.5)}
        state = lm.AdamState.for_params(params)
        lm.adam_step(params, grads, state, lm.LmConfig(seq_len=1))
        expected = -1e-3 * 0.5 / (0.5 + 1e-8)
        assert abs(params["w"][0] - expected) < 1e-15
        assert state.t == 1

    def test_zero_gradient_fixed_point(self):
        params = {"w": np.full(3, 1.5)}
        grads = {"w": np.zeros(3)}
        state = lm.AdamState.for_params(params)
        lm.adam_step(params, grads, state, lm.LmConfig(seq_len=1))
        assert np.array_equal(params["w"], np.full(3, 1.5))

    def test_constant_gradient_step_size_near_lr(self):
        config = lm.LmConfig(seq_len=1)
        params = {"w": np.zeros(1)}
        state = lm.AdamState.for_params(params)
        prev = 0.0
        for _ in range(5):
            lm.adam_step(params, {"w": np.full(1, 0.3)}, state, config)
            step = abs(params["w"][0] - prev)
            prev = params["w"][0]
            assert abs(step - config.learning_rate) < 0.1 * config.learning_rate


class TestTrain:
    def test_zero_epochs_keeps_init(self):
        _, _, vocab, config, pairs = overfit_fixture(epochs=0)
        model, history = lm.train(pairs, config, vocab)
        rng = np.random.default_rng(config.seed)
        init = lm.init_params(config, rng)
        assert history == []
        for name in init:
            assert np.array_equal(model.params[name], init[name])

    def test_seed_reproducibility(self):
        _, _, vocab, config, pairs = overfit_fixture(epochs=5)
        m1, h1 = lm.train(pairs, config, vocab)
        m2, h2 = lm.train(pairs, config, vocab)
        assert h1 == h2
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_divergence_reports_position(self):
        _, _, vocab, config, pairs = overfit_fixture(epochs=3)
        from dataclasses import replace
        hot = replace(config, learning_rate=1e18, clip_norm=0.0, epochs=8)
        with np.errstate(all="ignore"):
            with pytest.raises(lm.TrainingDivergedError, match="epoch"):
                lm.train(pairs, hot, vocab)

    def test_overfits_eight_pairs(self):
        corpus, pre, vocab, config, pairs = overfit_fixture(epochs=200)
        model, history = lm.train(pairs, config, vocab)
        assert history[-1] < 0.1 * history[0]
        for rec in corpus:
            top = lm.predict_consequence(model, rec.dynamics, top_k=1, pre=pre)
            assert top[0][0] == rec.consequence

    def test_loss_window_non_increasing_after_20(self):
        _, _, vocab, config, pairs = overfit_fixture(epochs=120)
        _, history = lm.train(pairs, config, vocab)
        windows = [float(np.mean(history[i:i + 10]))
                   for i in range(len(history) - 9)]
        for i in range(20, len(windows) - 1):
            assert windows[i + 1] <= windows[i] + 1e-12


class TestDropout:
    def test_inverted_scaling_matches_eval_expectation(self):
        # mean over many masks of the dropped pre-output activation ~ eval value
        config = lm.LmConfig(vocab_size=10, embed_dim=4, recurrent_units=3,
                             dense_units=6, dropout_rate=0.5, seq_len=4,
                             dtype="float64")
        vocab = lm.LmVocabulary([lm.PAD_TOKEN, lm.UNK_TOKEN] +
                                [f"t{i}" for i in range(8)])
        model = lm.LmModel.initialized(config, vocab,
                                       np.random.default_rng(5))
        from incmine.langmodel import _forward_batch
        ids = np.array([[2, 3, 4, 5]], dtype=np.int64)
        _, cache = _forward_batch(model.params, config, ids, False, None)
        eval_act = cache["a2d"][0]
        rng = np.random.default_rng(99)
        n_samples = 10_000
        acc = np.zeros_like(eval_act)
        for _ in range(n_samples):
            _, c = _forward_batch(model.params, config, ids, True, rng)
            acc += c["a2d"][0]
        mc_mean = acc / n_samples
        rate = config.dropout_rate
        # per-unit MC std of mean: act * sqrt(rate/(1-rate)) / sqrt(N)
        sigma = np.abs(eval_act) * math.sqrt(rate / (1 - rate) / n_samples)
        assert (np.abs(mc_mean - eval_act) <= 3.0 * sigma + 1e-12).all()

    def test_train_mode_needs_rng(self):
        model = zero_model(lm.LmConfig(vocab_size=8, embed_dim=3, recurrent_units=2,
                                       dense_units=3, dropout_rate=0.5, seq_len=3))
        with pytest.raises(ValueError):
            lm.forward(model, np.zeros(3, dtype=np.int64), train_mode=True)


class TestPredict:
    def test_untrained_zero_model_index_order(self):
        model = zero_model(lm.LmConfig(vocab_size=8, embed_dim=3, recurrent_units=2,
                                       dense_units=3, dropout_rate=0.0, seq_len=4))
        top = lm.predict_consequence(model, "qualsiasi testo", top_k=6)
        assert [t for t, _ in top] == [f"t{i}" for i in range(6)]
        assert all(p == 0.5 for _, p in top)

    def test_reserved_tokens_excluded(self):
        _, _, vocab, config, pairs = overfit_fixture(epochs=0)
        model, _ = lm.train(pairs, config, vocab)
        everything = lm.predict_consequence(model, "scala", top_k=len(vocab))
        names = [t for t, _ in everything]
        assert lm.PAD_TOKEN not in names and lm.UNK_TOKEN not in names
        assert len(everything) == len(vocab) - 2


class TestArtifact:
    def test_roundtrip_exact_forward(self, tmp_path):
        _, _, vocab, config, pairs = overfit_fixture(epochs=3)
        model, _ = lm.train(pairs, config, vocab)
        lm.save_model(model, tmp_path / "model")
        loaded = lm.load_model(tmp_path / "model")
        before = lm.forward(model, pairs[0].input_ids)
        after = lm.forward(loaded, pairs[0].input_ids)
        assert np.array_equal(before, after)

    def test_checksum_error(self, tmp_path):
        _, _, vocab, config, pairs = overfit_fixture(epochs=0)
        model, _ = lm.train(pairs, config, vocab)
        lm.save_model(model, tmp_path / "model")
        blob = tmp_path / "model" / "tensors" / "out_b.bin"
        raw = bytearray(blob.read_bytes())
        raw[0] ^= 0xFF
        blob.write_bytes(bytes(raw))
        with pytest.raises(lm.ArtifactChecksumError, match="out_b"):
            lm.load_model(tmp_path / "model")

    def test_version_error_names_both(self, tmp_path):
        import json
        _, _, vocab, config, pairs = overfit_fixture(epochs=0)
        model, _ = lm.train(pairs, config, vocab)
        lm.save_model(model, tmp_path / "model")
        manifest_path = tmp_path / "model" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = "lm-v0"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(lm.ArtifactVersionError, match="lm-v0.*lm-v1"):
            lm.load_model(tmp_path / "model")


class TestTrainPair:
    def test_pad_target_rejected(self):
        target = np.zeros(8)
        target[lm.PAD_ID] = 1.0
        with pytest.raises(lm.LangModelError):
            lm.TrainPair(input_ids=np.zeros(3, dtype=np.int64), target=target)


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
