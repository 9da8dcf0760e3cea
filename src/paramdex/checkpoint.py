"""Binary model checkpoints, plus sidecar metadata.

Layout (all little-endian):

    magic "DYNR" | uint32 version | uint32 d_model, n_layers, n_heads,
    vocab_size, max_len, n_docs | payload | uint64 checksum

The payload is float32 arrays in param_shapes() order plus the slot (see
_payload_layout), then the docid matrix (d_model x n_docs) when n_docs > 0.
The header has no d_ff: the payload size is affine in d_ff, so load_model
solves for it from the layout's sizes at d_ff = 1 and 2, and rejects a
payload whose size no d_ff >= 1 gives. The checksum is an 8-byte blake2b
of the payload. The dense baseline is stored as such a model: its query
tower plus the transposed dense index as the docid matrix.

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


def payload_checksum(payload: bytes) -> int:
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


def _read(path: Path) -> tuple[tuple[int, ...], bytes]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + 8:
        raise ValueError(f"{path}: file too short to be a checkpoint")
    magic, version, *fields = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    payload = raw[_HEADER.size : -8]
    (stored,) = struct.unpack("<Q", raw[-8:])
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


def save_model(
    path: str | Path,
    cfg: EncoderConfig,
    params: dict[str, np.ndarray],
    w_doc: np.ndarray | None = None,
) -> None:
    """Write encoder parameters (and the docid matrix, if any) as float32."""
    arrays = [params[name] if name else np.zeros(shape) for name, shape in _payload_layout(cfg)]
    n_docs = 0
    if w_doc is not None:
        if w_doc.shape[0] != cfg.d_model:
            raise ValueError("docid matrix rows must equal d_model")
        arrays.append(w_doc)
        n_docs = w_doc.shape[1]
    fields = (cfg.d_model, cfg.n_layers, cfg.n_heads, cfg.vocab_size, cfg.max_len, n_docs)
    _write(Path(path), fields, arrays)


def load_model(path: str | Path) -> tuple[EncoderConfig, dict[str, np.ndarray], np.ndarray | None]:
    fields, payload = _read(Path(path))
    d_model, n_layers, n_heads, vocab_size, max_len, n_docs = fields
    if n_layers == 0:
        raise ValueError(f"{path}: header has 0 encoder layers; not a model checkpoint")
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
    data = np.frombuffer(payload, dtype="<f4")
    params: dict[str, np.ndarray] = {}
    off = 0
    for name, shape in _payload_layout(cfg):
        size = math.prod(shape)
        if name:
            params[name] = data[off : off + size].reshape(shape).copy()
        off += size
    w_doc = data[off:].reshape(d_model, n_docs).copy() if n_docs > 0 else None
    return cfg, params, w_doc


def write_meta(artifact_path: str | Path, **fields) -> Path:
    """Deterministic JSON sidecar next to an artifact."""
    meta_path = Path(str(artifact_path) + ".meta.json")
    meta_path.write_text(json.dumps(fields, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return meta_path
