"""The lm-v3 artifact stores only the parameters a vocabulary token can reach.

With a vocabulary shorter than ``vocab_size``, the embedding has one row
per vocabulary token, and params.bin holds it, every LSTM and dense tensor
whole, and the first ``len(vocab)`` columns of ``out_w`` and entries of
``out_b``; a reload fills the rest of the head with zeros. These tests
build models whose vocabulary is smaller than the cap, which the other
artifact fixtures do not, and pin the float fact the design rests on: the
values in the dead head slots never change a live output.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from incmine import langmodel as lm
from incmine.cli import main
from incmine.errors import IncmineError
from lm_fixtures import overfit_fixture

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
BENCH = os.path.join(REPO, "perfbench")
DEAD = 23  # vocab_size - len(vocab) of the trained fixture


def _trained(dtype="float32"):
    """The 8-pair overfit model after 2 epochs, its cap ``DEAD`` above its
    vocabulary, and the ids it trained on."""
    _, pre, vocab, config, ids, targets = overfit_fixture(epochs=2)
    config = replace(config, vocab_size=len(vocab) + DEAD, dtype=dtype)
    return lm.train(ids, targets, config, vocab, pre)[0], ids


def _saved(tmp_path, dtype="float32"):
    model, ids = _trained(dtype)
    path = tmp_path / "model"
    lm.save_model(model, path)
    return model, ids, path


def _stored_tensors(model):
    """(name, the part of the tensor params.bin holds), in registry order."""
    n = len(model.vocab)
    parts = {"out_w": model.params["out_w"][:, :n], "out_b": model.params["out_b"][:n]}
    return [(name, parts.get(name, model.params[name]))
            for name, _ in lm._param_specs(model.config, n)]


def _offsets(model):
    """Byte offset of each stored tensor in params.bin."""
    offsets, at = {}, 0
    for name, part in _stored_tensors(model):
        offsets[name] = at
        at += 4 * part.size
    return offsets


@pytest.mark.parametrize("dtype", ("float32", "float64"))
def test_params_file_is_four_bytes_per_live_parameter(tmp_path, dtype):
    model, _, path = _saved(tmp_path, dtype)
    config, n = model.config, len(model.vocab)
    live = sum(math.prod(shape) for name, shape in lm._param_specs(config, config.vocab_size)
               if name not in ("embedding", "out_w", "out_b"))
    live += n * config.embed_dim + config.dense_units * n + n
    assert live < lm._param_count(config, config.vocab_size)
    assert (path / "params.bin").stat().st_size == 4 * live
    want = b"".join(np.ascontiguousarray(part, dtype="<f4").tobytes()
                    for _, part in _stored_tensors(model))
    assert (path / "params.bin").read_bytes() == want


@pytest.mark.parametrize("dtype", ("float32", "float64"))
def test_save_of_load_is_byte_identical(tmp_path, dtype):
    _, _, path = _saved(tmp_path, dtype)
    lm.save_model(lm.load_model(path), tmp_path / "again")
    for name in ("manifest.json", "params.bin"):
        assert (tmp_path / "again" / name).read_bytes() == (path / name).read_bytes()


def test_reload_zero_fills_the_dead_slots_and_keeps_the_live_ones(tmp_path):
    model, ids, path = _saved(tmp_path)
    loaded = lm.load_model(path)
    n = len(model.vocab)
    assert model.params["out_w"][:, n:].any()  # trained, but no token reports them
    assert loaded.params["embedding"].shape == (n, model.config.embed_dim)
    assert not loaded.params["out_w"][:, n:].any()
    assert not loaded.params["out_b"][n:].any()
    for name, part in _stored_tensors(model):
        index = tuple(slice(0, size) for size in part.shape)
        assert np.array_equal(loaded.params[name][index], part), name
    for row in ids:
        assert np.array_equal(lm.forward(loaded, row), lm.forward(model, row))


@pytest.mark.parametrize("segment, tensor, at", [
    ("embedding prefix", "embedding", 0.5),
    ("LSTM tensor", "lstm1_bw_wh", 0.5),
    ("out_w live columns", "out_w", 0.5),
    ("out_b prefix", "out_b", 1.0),
])
def test_flipped_byte_in_each_stored_segment_is_refused(tmp_path, capsys, segment,
                                                        tensor, at):
    model, _, path = _saved(tmp_path)
    stored = dict(_stored_tensors(model))
    offset = _offsets(model)[tensor] + int(at * (4 * stored[tensor].size - 1))
    blob = path / "params.bin"
    raw = bytearray(blob.read_bytes())
    raw[offset] ^= 0x40
    blob.write_bytes(bytes(raw))
    with pytest.raises(IncmineError, match="checksum mismatch"):
        lm.load_model(path)
    capsys.readouterr()
    assert main(["predict", "--model", str(path), "--text", "scala",
                 "--output-dir", str(tmp_path / "pred")]) == 2
    err = capsys.readouterr().err
    assert f"checksum mismatch for {blob}" in err and "Traceback" not in err


def test_wrong_size_names_the_live_byte_count(tmp_path):
    model, _, path = _saved(tmp_path)
    blob = path / "params.bin"
    live = blob.stat().st_size
    full = 4 * lm._param_count(model.config, model.config.vocab_size)  # the lm-v2 size
    assert live < full
    with open(blob, "r+b") as fh:
        fh.truncate(full)
    with pytest.raises(IncmineError, match=f"params.bin is {full} "
                                           f"bytes, the config needs {live}$"):
        lm.load_model(path)


def test_lm_v2_directory_must_be_retrained(tmp_path, capsys):
    """An lm-v2 artifact: every parameter whole in params.bin, and no
    tokenizer in the manifest."""
    model, _, path = _saved(tmp_path)
    full = np.ascontiguousarray(model.params.flat, dtype="<f4").tobytes()
    (path / "params.bin").write_bytes(full)
    manifest = json.loads((path / "manifest.json").read_text(encoding="utf-8"))
    del manifest["preprocess"]
    manifest["version"] = "lm-v2"
    (path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--model", str(path), "--text", "scala",
                 "--output-dir", str(tmp_path / "pred")]) == 2
    err = capsys.readouterr().err
    assert "'lm-v2'" in err and "'lm-v3'" in err and "Traceback" not in err


_DEAD_SLOTS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from incmine import langmodel as lm
from incmine.corpus import PreprocessConfig

n = 273  # the fitted vocabulary of the benchmark's lm corpus, under a 5000 cap
vocab = lm.LmVocabulary([lm.PAD_TOKEN, lm.UNK_TOKEN] + [f"t{i}" for i in range(n - 2)])
checked = 0
for dtype in ("float32", "float64"):
    config = lm.LmConfig(embed_dim=16, recurrent_units=8, seq_len=6, dtype=dtype)
    rng = np.random.default_rng(5)
    noisy = lm.LmModel.initialized(config, vocab, PreprocessConfig(stopwords=frozenset()), rng)
    for view in (noisy.params["out_w"][:, n:], noisy.params["out_b"][n:]):
        view[...] = rng.normal(scale=10.0, size=view.shape)
    zeroed = lm.LmModel(config=config, vocab=vocab, pre=noisy.pre,
                        params=lm.FlatParams(config, n, noisy.params.flat.copy()))
    for view in (zeroed.params["out_w"][:, n:], zeroed.params["out_b"][n:]):
        view[...] = 0.0
    ids = rng.integers(0, n, size=(32, config.seq_len))
    for row in ids:
        assert np.array_equal(lm.forward(noisy, row), lm.forward(zeroed, row)), dtype
        checked += 1
    batch = [lm._forward_batch(m.params, config, ids, None, {})[0][:, :n]
             for m in (noisy, zeroed)]
    assert np.array_equal(*batch), dtype
    checked += 1
print(json.dumps({"checked": checked}))
"""


@pytest.mark.parametrize("threads", ("1", "2"))
def test_dead_slot_values_never_change_a_live_output(threads):
    """Random dead head columns and bias entries give the same live floats
    as zeros, in forward (B=1) and the eval-mode batch forward (B=32), in
    float32 and float64, at 1 and 2 BLAS threads."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    proc = subprocess.run([sys.executable, "-c", _DEAD_SLOTS, SRC], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"checked": 2 * (32 + 1)}


_RELOAD_GATE = """
import json, os, sys
bench, src, out = sys.argv[1:]
sys.path[:0] = [src, bench]
import numpy as np
from incmine import corpus, langmodel as lm
from workloads import WORKLOADS

inputs = WORKLOADS["lm"].prepare(0, out)
pre = corpus.PreprocessConfig(stopwords=corpus.default_stopwords())
loaded = corpus.load_corpus(inputs.paths["corpus"])
dynamics = list(corpus.tokenize(loaded.dynamics, pre))
consequences = list(corpus.tokenize(loaded.consequences, pre))
config = lm.LmConfig(epochs=1)  # the benchmark's train-lm --epochs 1
vocab = lm.fit_vocab(dynamics + consequences, cap=config.vocab_size)
ids, targets = lm.make_train_pairs(dynamics, consequences, vocab, config)
model, _ = lm.train(ids, targets, config, vocab, pre)
lm.save_model(model, os.path.join(out, "model"))
reloaded = lm.load_model(os.path.join(out, "model"))
texts = inputs.texts[:25]
print(json.dumps({
    "vocab": len(vocab), "vocab_size": config.vocab_size, "rows": len(ids),
    "texts": len(texts),
    "forward_differs": sum(not np.array_equal(lm.forward(model, row),
                                              lm.forward(reloaded, row)) for row in ids),
    "predict_differs": sum(lm.predict_consequence(model, text)
                           != lm.predict_consequence(reloaded, text) for text in texts),
}))
"""


def test_reload_reproduces_every_output_on_the_benchmark_corpus(tmp_path):
    """Train the benchmark's seed-0 lm corpus once at stock size, save and
    reload: every training row's forward and 25 texts' predictions are the
    same from memory and from the artifact, whose vocabulary fills a
    small part of the 5000 cap."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", _RELOAD_GATE, BENCH, SRC, str(tmp_path)],
                          cwd=str(tmp_path), env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"vocab": 273, "vocab_size": 5000, "rows": 512,
                                       "texts": 25, "forward_differs": 0,
                                       "predict_differs": 0}
