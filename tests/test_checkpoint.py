import json
import math
import re
import struct

import numpy as np
import pytest

from paramdex import checkpoint
from paramdex.checkpoint import load_model, save_model, write_meta
from paramdex.nn import Encoder, EncoderConfig, param_shapes

from test_nn import full_width_cls


CFG = EncoderConfig(vocab_size=50, d_model=16, n_layers=2, n_heads=2, d_ff=48, max_len=20)


def test_model_roundtrip_with_docid_matrix(tmp_path):
    enc = Encoder.init(CFG, seed=1)
    w_doc = np.random.default_rng(2).normal(size=(16, 7)).astype(np.float32)
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, enc.params, w_doc)
    cfg2, params2, w2 = load_model(path)
    assert cfg2 == CFG
    assert set(params2) == set(enc.params)
    for k in enc.params:
        assert np.array_equal(params2[k], enc.params[k]), k
    assert np.array_equal(w2, w_doc)


def test_encoder_only_roundtrip(tmp_path):
    enc = Encoder.init(CFG, seed=3)
    path = tmp_path / "tower.ckpt"
    save_model(path, CFG, enc.params)
    cfg2, params2, w2 = load_model(path)
    assert w2 is None and cfg2 == CFG
    assert np.array_equal(params2["tok_emb"], enc.params["tok_emb"])


def test_zero_slot_follows_each_key_weight(tmp_path):
    # version 1 keeps d_model floats after each attn.wk, where older builds
    # stored a key bias; they are written as zeros
    enc = Encoder.init(CFG, seed=8)
    w_doc = np.random.default_rng(8).normal(size=(16, 5)).astype(np.float32)
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, enc.params, w_doc)
    raw = path.read_bytes()
    data = np.frombuffer(raw[checkpoint._HEADER.size : -8], dtype="<f4")
    off, slots = 0, 0
    for name, shape in param_shapes(CFG).items():
        size = math.prod(shape)
        assert np.array_equal(data[off : off + size].reshape(shape), enc.params[name]), name
        off += size
        if name.endswith(".attn.wk"):
            assert np.array_equal(data[off : off + CFG.d_model], np.zeros(CFG.d_model)), name
            off += CFG.d_model
            slots += 1
    assert slots == CFG.n_layers
    assert np.array_equal(data[off:].reshape(w_doc.shape), w_doc)
    assert len(raw) == checkpoint._HEADER.size + 4 * (off + w_doc.size) + 8


def test_nonzero_key_bias_slot_is_skipped(tmp_path):
    # a file whose slots hold a trained key bias, as older builds wrote: the
    # bias cancels in the softmax, so dropping it moves outputs by rounding
    rng = np.random.default_rng(9)
    params = {k: (v + rng.normal(0.0, 0.3, size=v.shape)).astype(np.float32)
              for k, v in Encoder.init(CFG, seed=9).params.items()}
    key_bias = [rng.normal(0.0, 2.0, size=CFG.d_model).astype(np.float32)
                for _ in range(CFG.n_layers)]
    w_doc = rng.normal(size=(16, 5)).astype(np.float32)
    biases = iter(key_bias)
    arrays = []
    for name in param_shapes(CFG):
        arrays.append(params[name])
        if name.endswith(".attn.wk"):
            arrays.append(next(biases))
    path = tmp_path / "model.ckpt"
    fields = (CFG.d_model, CFG.n_layers, CFG.n_heads, CFG.vocab_size, CFG.max_len, 5)
    checkpoint._write(path, fields, arrays + [w_doc])
    cfg, loaded, w2 = load_model(path)
    assert cfg == CFG and list(loaded) == list(params) and np.array_equal(w2, w_doc)
    for k in params:
        assert np.array_equal(loaded[k], params[k]), k
    seqs = [list(rng.integers(3, CFG.vocab_size, size=n)) for n in (0, 1, 4, 7, 19)]
    got, _ = Encoder(cfg, loaded).forward_batch(seqs, need_cache=False)
    want = full_width_cls(Encoder(CFG, params), seqs, key_bias)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)


def test_zero_layer_header_rejected(tmp_path):
    # the header an earlier version gave a dense index (n_docs x d_model rows)
    mat = np.random.default_rng(0).normal(size=(9, 16)).astype(np.float32)
    path = tmp_path / "dense_index.bin"
    checkpoint._write(path, (16, 0, 0, 0, 0, 9), [mat])
    with pytest.raises(ValueError, match=re.escape(f"{path}: header has 0 encoder layers")):
        load_model(path)


def test_bad_header_rejected_naming_the_file(tmp_path):
    # one layer but 0 heads: a ValueError naming the file, not a ZeroDivisionError
    path = tmp_path / "model.ckpt"
    checkpoint._write(path, (16, 1, 0, 10, 8, 0), [np.zeros(100, dtype=np.float32)])
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad header: n_heads must be >= 1")):
        load_model(path)


@pytest.mark.parametrize("field, value", [
    ("d_model", 32), ("n_layers", 10), ("vocab_size", 5000), ("max_len", 2000), ("n_docs", 1000),
])
def test_header_that_disagrees_with_the_payload_rejected(tmp_path, field, value):
    # the checksum covers the payload only, so it passes a wrong header value
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, Encoder.init(CFG, seed=10).params, np.ones((16, 7), dtype=np.float32))
    raw = path.read_bytes()
    magic, version, *fields = checkpoint._HEADER.unpack_from(raw)
    fields[("d_model", "n_layers", "n_heads", "vocab_size", "max_len", "n_docs").index(field)] = value
    path.write_bytes(checkpoint._HEADER.pack(magic, version, *fields) + raw[checkpoint._HEADER.size :])
    with pytest.raises(ValueError, match=re.escape(f"{path}: payload size does not match header")):
        load_model(path)


def test_huge_layer_count_rejected_before_walking_the_layout(tmp_path, monkeypatch):
    # a real 2-layer checkpoint whose header claims 2**32 - 1 layers: the size
    # check must come before the layout walk, which here refuses such a header
    # (param_shapes builds every layer's entries before the first is yielded)
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, Encoder.init(CFG, seed=12).params, np.ones((16, 7), dtype=np.float32))
    raw = path.read_bytes()
    magic, version, d_model, _, *rest = checkpoint._HEADER.unpack_from(raw)
    path.write_bytes(checkpoint._HEADER.pack(magic, version, d_model, 2**32 - 1, *rest)
                     + raw[checkpoint._HEADER.size :])
    layout = checkpoint._payload_layout

    def bounded_layout(cfg):
        if cfg.n_layers > CFG.n_layers:
            raise AssertionError(f"walked the layout of {cfg.n_layers} layers")
        return layout(cfg)

    monkeypatch.setattr(checkpoint, "_payload_layout", bounded_layout)
    with pytest.raises(ValueError, match=re.escape(f"{path}: payload size does not match header")):
        load_model(path)


def test_payload_of_partial_floats_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, Encoder.init(CFG, seed=11).params)
    raw = path.read_bytes()
    payload = raw[checkpoint._HEADER.size : -8] + b"\x00\x00"  # 4k + 2 bytes
    checksum = struct.pack("<Q", checkpoint.payload_checksum(payload))
    path.write_bytes(raw[: checkpoint._HEADER.size] + payload + checksum)
    with pytest.raises(ValueError, match=re.escape(f"{path}: payload size does not match header")):
        load_model(path)


def test_corruption_detected(tmp_path):
    enc = Encoder.init(CFG, seed=4)
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, enc.params)
    raw = bytearray(path.read_bytes())
    raw[100] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_model(path)


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    first = Encoder.init(CFG, seed=6)
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, first.params)

    def fail(payload):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "payload_checksum", fail)
    with pytest.raises(OSError, match="disk full"):
        save_model(path, CFG, Encoder.init(CFG, seed=7).params)
    monkeypatch.undo()
    _, params, _ = load_model(path)
    for k in first.params:
        assert np.array_equal(params[k], first.params[k]), k
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_model(path)


def test_save_is_deterministic(tmp_path):
    enc = Encoder.init(CFG, seed=5)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(a, CFG, enc.params)
    save_model(b, CFG, enc.params)
    assert a.read_bytes() == b.read_bytes()


def test_meta_sidecar(tmp_path):
    artifact = tmp_path / "run.txt"
    artifact.write_text("x")
    write_meta(artifact, config_hash="abc123", seed=7, command="retrieve")
    meta = json.loads((tmp_path / "run.txt.meta.json").read_text())
    assert meta == {"config_hash": "abc123", "seed": 7, "command": "retrieve"}
    first = (tmp_path / "run.txt.meta.json").read_bytes()
    write_meta(artifact, config_hash="abc123", seed=7, command="retrieve")
    assert (tmp_path / "run.txt.meta.json").read_bytes() == first
