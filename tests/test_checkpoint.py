import json
import math
import re
import struct

import numpy as np
import pytest

from paramdex import checkpoint
from paramdex.checkpoint import load_model, save_model, write_meta
from paramdex.nn import Encoder, EncoderConfig, adamw_init, adamw_step, param_shapes
from paramdex.training import TrainConfig

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


def rewrite_header(path, **values) -> None:
    """Set header fields of a saved checkpoint; the checksum covers only the payload."""
    raw = path.read_bytes()
    magic, version, *fields = checkpoint._HEADER.unpack_from(raw)
    for field, value in values.items():
        fields[("d_model", "n_layers", "n_heads", "vocab_size", "max_len", "n_docs").index(field)] = value
    path.write_bytes(checkpoint._HEADER.pack(magic, version, *fields) + raw[checkpoint._HEADER.size :])


def test_header_without_docid_matrix_rejected_naming_the_file(tmp_path):
    # a retriever whose header claims n_docs = 0, as an encoder-only file would
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, Encoder.init(CFG, seed=15).params, np.ones((16, 7), dtype=np.float32))
    rewrite_header(path, n_docs=0)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: header has no docid matrix; not a retriever checkpoint")):
        load_model(path)


@pytest.mark.parametrize("shape", [(16, 0), (15, 7), (17, 7), (16,)],
                         ids=["no_columns", "short", "tall", "one_dimensional"])
def test_save_rejects_docid_matrix_of_wrong_shape_before_creating_the_file(tmp_path, shape):
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=re.escape(
            f"docid matrix has shape {shape}; a checkpoint needs 16 x n_docs with n_docs >= 1")):
        save_model(path, CFG, Encoder.init(CFG, seed=16).params, np.ones(shape, dtype=np.float32))
    assert list(tmp_path.iterdir()) == []


def test_bad_header_rejected_naming_the_file(tmp_path):
    # one layer but 0 heads: a ValueError naming the file, not a ZeroDivisionError
    path = tmp_path / "model.ckpt"
    checkpoint._write(path, (16, 1, 0, 10, 8, 1), [np.zeros(100, dtype=np.float32)])
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad header: n_heads must be >= 1")):
        load_model(path)


@pytest.mark.parametrize("field, value", [
    ("d_model", 32), ("n_layers", 10), ("vocab_size", 5000), ("max_len", 2000), ("n_docs", 1000),
])
def test_header_that_disagrees_with_the_payload_rejected(tmp_path, field, value):
    # the checksum covers the payload only, so it passes a wrong header value
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, Encoder.init(CFG, seed=10).params, np.ones((16, 7), dtype=np.float32))
    rewrite_header(path, **{field: value})
    with pytest.raises(ValueError, match=re.escape(f"{path}: payload size does not match header")):
        load_model(path)


def test_huge_layer_count_rejected_before_walking_the_layout(tmp_path, monkeypatch):
    # a real 2-layer checkpoint whose header claims 2**32 - 1 layers: the size
    # check must come before the layout walk, which here refuses such a header
    # (param_shapes builds every layer's entries before the first is yielded)
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, Encoder.init(CFG, seed=12).params, np.ones((16, 7), dtype=np.float32))
    rewrite_header(path, n_layers=2**32 - 1)
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
    save_model(path, CFG, Encoder.init(CFG, seed=11).params, np.ones((16, 3), dtype=np.float32))
    raw = path.read_bytes()
    payload = raw[checkpoint._HEADER.size : -8] + b"\x00\x00"  # 4k + 2 bytes
    checksum = struct.pack("<Q", checkpoint.payload_checksum(payload))
    path.write_bytes(raw[: checkpoint._HEADER.size] + payload + checksum)
    with pytest.raises(ValueError, match=re.escape(f"{path}: payload size does not match header")):
        load_model(path)


def test_corruption_detected(tmp_path):
    enc = Encoder.init(CFG, seed=4)
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, enc.params, np.ones((16, 3), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[100] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_model(path)


@pytest.mark.parametrize("where", ["first", "last"])
def test_flipped_payload_byte_fails_the_checksum(tmp_path, where):
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, Encoder.init(CFG, seed=4).params, np.ones((16, 3), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[checkpoint._HEADER.size if where == "first" else -9] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=re.escape(f"{path}: payload checksum mismatch")):
        load_model(path)


def test_loaded_arrays_are_writable_views_of_the_read_buffer(tmp_path):
    enc = Encoder.init(CFG, seed=13)
    w_doc = np.random.default_rng(13).normal(size=(16, 7)).astype(np.float32)
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, enc.params, w_doc)
    _, params, w2 = load_model(path)
    for name, a in [*params.items(), ("w_doc", w2)]:
        assert a.flags.writeable and not a.flags.owndata and a.dtype == np.float32, name
        assert np.array_equal(a, enc.params.get(name, w_doc)), name
    # saving what was loaded writes the same bytes
    again = tmp_path / "again.ckpt"
    save_model(again, CFG, params, w2)
    assert again.read_bytes() == path.read_bytes()


def test_adamw_step_updates_a_loaded_model(tmp_path):
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, Encoder.init(CFG, seed=14).params, np.ones((16, 3), dtype=np.float32))
    _, params, w_doc = load_model(path)
    params["w_doc"] = w_doc
    before = {k: v.copy() for k, v in params.items()}
    grads = {k: np.full_like(v, 0.5) for k, v in params.items()}
    adamw_step(params, grads, adamw_init(params), TrainConfig(lr=1e-2))
    for k, v in params.items():
        assert not np.array_equal(v, before[k]), k
    # the update changed the loaded arrays, not the file
    _, reloaded, w_again = load_model(path)
    assert np.array_equal(w_again, before["w_doc"])
    for k in reloaded:
        assert np.array_equal(reloaded[k], before[k]), k


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    first = Encoder.init(CFG, seed=6)
    w_doc = np.ones((16, 3), dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, first.params, w_doc)

    def fail(payload):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "payload_checksum", fail)
    with pytest.raises(OSError, match="disk full"):
        save_model(path, CFG, Encoder.init(CFG, seed=7).params, w_doc)
    monkeypatch.undo()
    _, params, _ = load_model(path)
    for k in first.params:
        assert np.array_equal(params[k], first.params[k]), k
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_file_shorter_than_header_and_checksum_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(checkpoint.MAGIC + b"\x00" * (checkpoint._HEADER.size + 8 - 5))
    with pytest.raises(ValueError, match=re.escape(f"{path}: file too short to be a checkpoint")):
        load_model(path)


def test_other_format_version_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_model(path, CFG, Encoder.init(CFG, seed=17).params, np.ones((16, 3), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, len(checkpoint.MAGIC), 2)
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported format version 2")):
        load_model(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_model(path)


def test_save_is_deterministic(tmp_path):
    enc = Encoder.init(CFG, seed=5)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    w_doc = np.random.default_rng(5).normal(size=(16, 4)).astype(np.float32)
    save_model(a, CFG, enc.params, w_doc)
    save_model(b, CFG, enc.params, w_doc)
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
