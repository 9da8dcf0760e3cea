"""Binary model checkpoints, plus sidecar metadata.

Layout (all little-endian):

    magic "DYNR" | uint32 version | uint32 d_model, n_layers, n_heads,
    vocab_size, max_len, n_docs | payload | uint64 checksum

Every checkpoint is a retriever: an encoder plus its docid matrix. The
payload is float32 arrays in param_shapes() order plus the slot (see
_payload_layout), then the docid matrix (d_model x n_docs, n_docs >= 1).
save_model rejects any other matrix, and load_model a header with 0 layers
or with n_docs = 0. The header has no d_ff: the payload size is affine in
d_ff, so load_model solves for it from the layout's sizes at d_ff = 1 and
2, and rejects a payload whose size no d_ff >= 1 gives. The checksum is an
8-byte blake2b of the payload. The dense baseline is stored as such a
model: its query tower plus the transposed dense index as the docid matrix.

write_meta gives an artifact a deterministic sidecar ``<path>.meta.json``
recording the config hash and seed that produced it (no timestamps, so
reruns are byte-identical).

Checkpoints are written to a temporary file in the same directory and
then renamed over the target, so a run that dies while saving leaves the
previous file intact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from .nn import EncoderConfig, param_shapes

MAGIC = b"DYNR"
VERSION = 1
_HEADER = struct.Struct("<4s7I")


def payload_checksum(payload: bytes | memoryview) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def _write(path: Path, header_fields: tuple[int, ...], arrays: list[np.ndarray]) -> None:
    payload = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(_HEADER.pack(MAGIC, VERSION, *header_fields))
            f.write(payload)
            f.write(struct.pack("<Q", payload_checksum(payload)))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read(path: Path) -> tuple[tuple[int, ...], memoryview]:
    """The header fields and a writable view of the checksummed payload: the
    file is read once into a bytearray, which the view and, through it, every
    array load_model returns share."""
    with open(path, "rb") as f:
        raw = bytearray(os.fstat(f.fileno()).st_size)
        del raw[f.readinto(raw) :]  # a file that shrank since fstat
    if len(raw) < _HEADER.size + 8:
        raise ValueError(f"{path}: file too short to be a checkpoint")
    magic, version, *fields = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    payload = memoryview(raw)[_HEADER.size : -8]
    (stored,) = struct.unpack_from("<Q", raw, len(raw) - 8)
    if payload_checksum(payload) != stored:
        raise ValueError(f"{path}: payload checksum mismatch")
    return tuple(fields), payload


def _payload_layout(cfg: EncoderConfig):
    """(name, shape) of each encoder array in payload order, with name None
    for the slot of d_model floats after each attn.wk. Older builds kept a key
    bias there; softmax cancels a key bias, so the encoder has none. Saving
    writes the slot as zeros and loading skips it: version 1's bytes stay,
    so older files load and older builds read new files."""
    for name, shape in param_shapes(cfg).items():
        yield name, shape
        if name.endswith(".attn.wk"):
            yield None, (cfg.d_model,)


def save_model(path: str | Path, cfg: EncoderConfig, params: dict[str, np.ndarray],
               w_doc: np.ndarray) -> None:
    """Write the encoder parameters and the d_model x n_docs docid matrix
    (n_docs >= 1) as float32; any other matrix is rejected before the file
    is created."""
    if w_doc.ndim != 2 or w_doc.shape[0] != cfg.d_model or w_doc.shape[1] < 1:
        raise ValueError(f"docid matrix has shape {w_doc.shape}; a checkpoint needs "
                         f"{cfg.d_model} x n_docs with n_docs >= 1")
    arrays = [params[name] if name else np.zeros(shape) for name, shape in _payload_layout(cfg)]
    fields = (cfg.d_model, cfg.n_layers, cfg.n_heads, cfg.vocab_size, cfg.max_len, w_doc.shape[1])
    _write(Path(path), fields, [*arrays, w_doc])


def load_model(path: str | Path) -> tuple[EncoderConfig, dict[str, np.ndarray], np.ndarray]:
    fields, payload = _read(Path(path))
    d_model, n_layers, n_heads, vocab_size, max_len, n_docs = fields
    if n_layers == 0:
        raise ValueError(f"{path}: header has 0 encoder layers; not a model checkpoint")
    if n_docs == 0:
        raise ValueError(f"{path}: header has no docid matrix; not a retriever checkpoint")
    try:
        cfg = EncoderConfig(
            vocab_size=vocab_size, d_model=d_model, n_layers=n_layers,
            n_heads=n_heads, d_ff=1, max_len=max_len,
        )
    except ValueError as e:
        raise ValueError(f"{path}: bad header: {e}") from None
    # the checksum does not cover the header: bound n_layers before walking its layout
    if 16 * n_layers * d_model * d_model > len(payload):  # 4 float32 d_model x d_model per layer
        raise ValueError(f"{path}: payload size does not match header")
    at_1, at_2 = (sum(math.prod(shape) for _, shape in _payload_layout(replace(cfg, d_ff=f)))
                  for f in (1, 2))
    extra, rest = divmod(len(payload) - 4 * (at_1 + d_model * n_docs), 4 * (at_2 - at_1))
    if rest or extra < 0:
        raise ValueError(f"{path}: payload size does not match header")
    cfg = replace(cfg, d_ff=1 + extra)
    data = np.frombuffer(payload, dtype="<f4")  # writable: every array is a view of it
    params: dict[str, np.ndarray] = {}
    off = 0
    for name, shape in _payload_layout(cfg):
        size = math.prod(shape)
        if name:
            params[name] = data[off : off + size].reshape(shape)
        off += size
    return cfg, params, data[off:].reshape(d_model, n_docs)


def write_meta(artifact_path: str | Path, **fields) -> Path:
    """Deterministic JSON sidecar next to an artifact."""
    meta_path = Path(str(artifact_path) + ".meta.json")
    meta_path.write_text(json.dumps(fields, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return meta_path
