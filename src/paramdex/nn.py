"""Minimal numerical engine: transformer encoder, exact gradients, AdamW.

Everything here is plain numpy. The encoder is a pre-layer-norm transformer
with learned positional embeddings and CLS pooling; its backward pass is
written by hand and checked coordinate-wise against central finite
differences (see finite_diff_check). Parameters live in a flat
name -> array dict whose names, shapes and canonical order are given by
param_shapes(). Attention has no key bias: it would add one constant to
all of a query's scores, which the softmax cancels.

Batches run in length groups, stacked in one array. Padding is masked out
of attention, so in exact arithmetic each sequence's encoding is
independent of its batch neighbors, and Encoder.forward_batch can cut a
batch into groups of similar length (power-of-two buckets of the clipped
length) without changing the math. In float arithmetic it is not
independent: the rounding of a product depends on its shapes, which the
batch sets (a group's padded width, and one row goes to BLAS as a
matrix-vector product). A query encoded alone differed from its row in a
64-query block on 256 of 256 queries of the benchmark's retrieve model, by
at most 1.8e-6. Each group is padded only to its own longest member, so
a batch that mixes 128-token passages with 3-token n-grams pays no matmul
or attention work for the padding. The groups' rows lie back to back in
one (R, d_model) array: the layer norms, the Q/K/V/O projections, the FFN
and their backward passes run once over all R rows, and each weight
gradient is one product over them. Only the attention softmax and its two
batched products run per group, on a (b, n_heads, n, d_head) view of the
group's rows. Results differ from one padded batch only by float rounding.

Only the CLS row is pooled, so the last layer runs for those rows alone:
its layer norm, keys and values cover every position, while its queries,
attention output, FFN and the final layer norm run on the B CLS rows,
gathered from the stack. Earlier layers run every position, since the last
layer's keys and values need them. The backward pass mirrors this, so no
gradient is pushed back through rows that feed no output.

Each layer's cache holds the GELU derivative, computed with the
activation from the same tanh, in place of the GELU input. The elementwise
kernels (GELU, layer norm and its backward, the attention softmax and its
backward, AdamW) run in place on few buffers but keep the floating-point
operations and their order of the plain expressions in their docstrings,
so their results are bit-identical to those expressions. adamw_step
updates the model's own arrays, once every gradient has passed its checks.

No dropout: training is deterministic by construction. Training runs in
float32; gradient checks construct float64 models.

On glibc, importing this module fixes malloc's mmap and trim thresholds
(steady_heap), so the activation arrays of one step reuse the heap pages of
the last instead of being unmapped or trimmed and faulted back in.
"""

from __future__ import annotations

import ctypes
import math
import platform
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import CLS_ID, PAD_ID
from .training import TrainConfig

LN_EPS = 1e-5
FD_STEP = 1e-4  # finite_diff_check's central-difference step
BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # adamw_step's: Adam's published defaults
_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715

# mallopt(3) parameters (glibc's malloc.h) and the values steady_heap sets
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def steady_heap() -> None:
    """Fix glibc malloc's thresholds at the values its dynamic rule ends at
    on 64-bit (mallopt(3)): blocks below 32 MiB come from the heap, and up to
    64 MiB of free memory at its top stays mapped. Left dynamic, they are
    reached or not depending on what a process happened to allocate and
    free first. Setting them turns the dynamic rule off and overrides
    MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ from the environment.
    Does nothing on any other C library.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


steady_heap()


@dataclass
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_len: int = 128

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")


def param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in canonical order (the checkpoint's order)."""
    d, f = cfg.d_model, cfg.d_ff
    layer = {
        "ln1.scale": (d,), "ln1.shift": (d,),
        "attn.wq": (d, d), "attn.bq": (d,),
        "attn.wk": (d, d),  # no key bias: softmax cancels it
        "attn.wv": (d, d), "attn.bv": (d,),
        "attn.wo": (d, d), "attn.bo": (d,),
        "ln2.scale": (d,), "ln2.shift": (d,),
        "ffn.w1": (d, f), "ffn.b1": (f,),
        "ffn.w2": (f, d), "ffn.b2": (d,),
    }
    shapes = {"tok_emb": (cfg.vocab_size, d), "pos_emb": (cfg.max_len, d)}
    for i in range(cfg.n_layers):
        shapes.update({f"layer{i}.{leaf}": shape for leaf, shape in layer.items()})
    shapes["ln_f.scale"] = shapes["ln_f.shift"] = (d,)
    return shapes


def _gelu(x: np.ndarray, need_grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """tanh-approximated GELU of x, and with need_grad its derivative (else None).

    x is overwritten: it serves as scratch space, so pass an array that
    nothing else reads. One tanh serves both results. In the operation order of
        h  = 0.5 * x * (1 + tanh(K * (x + C * x * x * x)))
        h' = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * K * (1 + 3 * C * x * x)
    with t that tanh, so results are bit-identical to those expressions.
    """
    t = _GELU_C * x
    t *= x
    t *= x
    t += x
    t *= _GELU_K
    np.tanh(t, out=t)
    if need_grad:
        poly = np.multiply(x, 3.0 * _GELU_C)
        poly *= x
        poly += 1.0
    x *= 0.5  # from here on x holds 0.5 * x
    if not need_grad:
        t += 1.0
        t *= x
        return t, None
    h = t + 1.0
    t *= t
    np.subtract(1.0, t, out=t)
    t *= x
    t *= _GELU_K
    t *= poly
    grad = np.multiply(h, 0.5, out=poly)
    grad += t
    h *= x
    return h, grad


def _mean_last(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True), bit for bit: the sum, then one divide by the count.

    The ufuncs are called directly, without ndarray.mean's Python-level wrapper."""
    total = np.add.reduce(x, axis=-1, keepdims=True)
    total /= x.shape[-1]
    return total


def _layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray):
    """Returns (y, xhat, inv): x centred once, variance as x.var computes it."""
    xhat = x - _mean_last(x)
    y = np.multiply(xhat, xhat)  # the squares first, then the output
    inv = 1.0 / np.sqrt(_mean_last(y) + LN_EPS)
    xhat *= inv
    np.multiply(xhat, scale, out=y)
    y += shift
    return y, xhat, inv


def _layer_norm_backward(dy, xhat, inv, scale):
    """Returns (dx, dscale, dshift); reductions over all leading axes.

    dx = inv * (dxh - mean(dxh) - xhat * mean(dxh * xhat)) with dxh = dy * scale,
    in that operation order.
    """
    axes = tuple(range(dy.ndim - 1))
    buf = dy * xhat
    dscale = np.add.reduce(buf, axis=axes)
    dshift = np.add.reduce(dy, axis=axes)
    dx = dy * scale
    np.multiply(dx, xhat, out=buf)
    np.multiply(xhat, _mean_last(buf), out=buf)
    dx -= _mean_last(dx)
    dx -= buf
    dx *= inv
    return dx, dscale, dshift


def _attention_softmax(s: np.ndarray, scale: float, mask: np.ndarray) -> np.ndarray:
    """softmax(s * scale + mask) over the last axis, computed in s and returned:
    z = s * scale + mask; e = exp(z - max(z)); att = e / sum(e)."""
    s *= scale
    s += mask
    s -= np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=-1, keepdims=True)
    return s


def _attention_softmax_backward(att: np.ndarray, datt: np.ndarray, scale: float) -> np.ndarray:
    """Gradient at s of att = _attention_softmax(s, scale, mask) given datt,
    att * (datt - sum(datt * att)) * scale, computed in datt and returned."""
    datt -= np.add.reduce(datt * att, axis=-1, keepdims=True)
    datt *= att
    datt *= scale
    return datt


def _split_heads(x: np.ndarray, b: int, n_heads: int) -> np.ndarray:
    """The rows of b equal-length sequences, (b * n, d), as a (b, n_heads, n, d / n_heads) view."""
    return x.reshape(b, -1, n_heads, x.shape[-1] // n_heads).transpose(0, 2, 1, 3)


def _linear_backward(x, dy, w):
    """y = x @ w + b over the rows of x: returns (dx, dw, db)."""
    return dy @ w.T, x.T @ dy, np.add.reduce(dy, axis=0)


def _attention(q, k, v, groups, last: bool, n_heads: int):
    """Masked multi-head attention over the stacked rows of length groups.

    k and v have a row for every position; q has one too, or with last only
    each sequence's CLS row. Each group attends over its own rows, viewed
    as (b, n_heads, n, d_head). Returns the context rows, shaped like q, and
    each group's (qh, kh, vh, att) for _attention_backward.
    """
    scale = 1.0 / math.sqrt(q.shape[1] // n_heads)
    c = np.empty_like(q)
    per_group = []
    for b, _, rows, cls_rows, mask in groups:
        qrows = cls_rows if last else rows
        qh = _split_heads(q[qrows], b, n_heads)
        kh = _split_heads(k[rows], b, n_heads)
        vh = _split_heads(v[rows], b, n_heads)
        att = _attention_softmax(qh @ kh.transpose(0, 1, 3, 2), scale, mask)
        np.matmul(att, vh, out=_split_heads(c[qrows], b, n_heads))
        per_group.append((qh, kh, vh, att))
    return c, per_group


def _attention_backward(dc, per_group, groups, last: bool, n_rows: int, n_heads: int):
    """(dq, dk, dv) of _attention given dc, the gradient at its context rows."""
    scale = 1.0 / math.sqrt(dc.shape[1] // n_heads)
    dq = np.empty_like(dc)
    dk = np.empty((n_rows, dc.shape[1]), dtype=dc.dtype)
    dv = np.empty_like(dk)
    for (b, _, rows, cls_rows, _), (qh, kh, vh, att) in zip(groups, per_group):
        qrows = cls_rows if last else rows
        dch = _split_heads(dc[qrows], b, n_heads)
        np.matmul(att.transpose(0, 1, 3, 2), dch, out=_split_heads(dv[rows], b, n_heads))
        ds = _attention_softmax_backward(att, dch @ vh.transpose(0, 1, 3, 2), scale)
        np.matmul(ds, kh, out=_split_heads(dq[qrows], b, n_heads))
        np.matmul(ds.transpose(0, 1, 3, 2), qh, out=_split_heads(dk[rows], b, n_heads))
    return dq, dk, dv


def _add_rows_at(target: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """np.add.at(target, ids, rows) for a C-contiguous (V, d) target, bit for bit,
    as one 1-D scatter: element (t, j) still gets its rows' additions in row order."""
    d = target.shape[1]
    np.add.at(target.reshape(-1), (ids[:, None] * d + np.arange(d)).reshape(-1), rows.reshape(-1))


class Encoder:
    """Transformer encoder returning the CLS-position hidden state."""

    def __init__(self, cfg: EncoderConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def init(cls, cfg: EncoderConfig, seed, dtype=np.float32) -> "Encoder":
        """Weights ~ N(0, 0.02) drawn from np.random.default_rng(seed), which takes an
        int, a SeedSequence or a Generator; biases/shifts zero, layer-norm scales one."""
        rng = np.random.default_rng(seed)
        params: dict[str, np.ndarray] = {}
        for name, shape in param_shapes(cfg).items():
            if name.endswith(".scale"):
                params[name] = np.ones(shape, dtype=dtype)
            elif len(shape) == 1:
                params[name] = np.zeros(shape, dtype=dtype)
            else:
                params[name] = rng.normal(0.0, 0.02, size=shape).astype(dtype)
        return cls(cfg, params)

    @property
    def dtype(self):
        return self.params["tok_emb"].dtype

    def forward_batch(self, seqs: Sequence[Sequence[int]], need_cache: bool = True):
        """Encode a batch of token sequences. Returns (cls (B, d), cache).

        Sequences are truncated to max_len - 1 and a CLS token is
        prepended. Padding positions are masked out of attention, so in
        exact arithmetic a sequence's encoding does not depend on its batch
        neighbors; float rounding does (see the module docstring).

        Sequences whose clipped lengths share a power-of-two bucket
        (len.bit_length()) form a length group, padded only to its longest
        member. The groups' rows are stacked in one (R, d_model) array, in
        ascending bucket order, so each position-wise layer runs once over
        every group; attention runs on each group's rows viewed as
        (b, n, d_model). Row r0 + j * n of a group is its j-th sequence's
        CLS row. The CLS rows come back in input order. The cache is an
        opaque tuple for backward_batch; it is None when need_cache is false.
        """
        cfg, p = self.cfg, self.params
        cap = cfg.max_len - 1
        buckets: dict[int, list[int]] = {}
        for i, s in enumerate(seqs):
            buckets.setdefault(min(len(s), cap).bit_length(), []).append(i)
        # per group (b, n, its rows of the stack, its CLS rows among the B, mask);
        # order lists the inputs in stack order, heads their CLS rows in the stack
        groups, order, heads, r0 = [], [], [], 0
        for _, rows in sorted(buckets.items()):
            b, n = len(rows), 1 + max(min(len(seqs[i]), cap) for i in rows)
            mask = np.zeros((b, 1, 1, n), dtype=self.dtype)
            groups.append((b, n, slice(r0, r0 + b * n), slice(len(order), len(order) + b), mask))
            order += rows
            heads += range(r0, r0 + b * n, n)
            r0 += b * n
        ids = np.full(r0, PAD_ID, dtype=np.int64)
        ids[heads] = CLS_ID
        for _, n, rows, cls_rows, mask in groups:
            for j, i in enumerate(order[cls_rows]):
                s = seqs[i][:cap]
                start = rows.start + j * n + 1
                ids[start : start + len(s)] = s
                mask[j, ..., 1 + len(s) :] = -np.inf
        x = p["tok_emb"][ids]
        for b, n, rows, _, _ in groups:
            xg = x[rows].reshape(b, n, -1)
            xg += p["pos_emb"][:n]
        layers = []
        for i in range(cfg.n_layers):
            pre = f"layer{i}."
            # only the CLS rows leave the last layer: it needs keys and values
            # for every row, and queries and all the rest for the CLS rows alone
            last = i == cfg.n_layers - 1
            sel = heads if last else slice(None)
            a, xhat1, inv1 = _layer_norm(x, p[pre + "ln1.scale"], p[pre + "ln1.shift"])
            aq = a[sel]
            c, attn = _attention(aq @ p[pre + "attn.wq"] + p[pre + "attn.bq"], a @ p[pre + "attn.wk"],
                                 a @ p[pre + "attn.wv"] + p[pre + "attn.bv"], groups, last, cfg.n_heads)
            x_mid = c @ p[pre + "attn.wo"]
            x_mid += p[pre + "attn.bo"]
            x_mid += x[sel]
            if need_cache:
                layers.append((a, aq, xhat1, inv1, attn, c))
            del x, a, aq, xhat1, inv1, attn, c  # the feed-forward block needs none of them
            fin, xhat2, inv2 = _layer_norm(x_mid, p[pre + "ln2.scale"], p[pre + "ln2.shift"])
            h, gelu_d = _gelu(fin @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"], need_cache)
            x = x_mid + h @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"]
            if need_cache:
                layers[-1] += (xhat2, inv2, fin, gelu_d, h)
        y, xhat_f, inv_f = _layer_norm(x, p["ln_f.scale"], p["ln_f.shift"])
        out = np.empty_like(y)
        out[order] = y
        cache = (ids, groups, order, heads, layers, xhat_f, inv_f) if need_cache else None
        return out, cache

    def encode(self, tokens: Sequence[int]) -> np.ndarray:
        """CLS representation of one token sequence (empty input is valid)."""
        out, _ = self.forward_batch([list(tokens)], need_cache=False)
        return out[0]

    def backward_batch(self, cache, d_cls: np.ndarray) -> dict[str, np.ndarray]:
        """Exact reverse-mode gradients of the cached forward pass.

        d_cls is the loss gradient at the CLS output, shape (B, d_model),
        in the input order of forward_batch. Like the forward pass, each
        position-wise layer's backward runs once over the stacked rows of
        every length group, so each weight gradient is one product over all
        rows. Returns a dict congruent with the parameter dict.
        """
        cfg, p = self.cfg, self.params
        ids, groups, order, heads, layers, xhat_f, inv_f = cache
        g: dict[str, np.ndarray] = {}
        dx, g["ln_f.scale"], g["ln_f.shift"] = _layer_norm_backward(
            d_cls[order].astype(self.dtype, copy=False), xhat_f, inv_f, p["ln_f.scale"]
        )
        for i in reversed(range(cfg.n_layers)):
            pre = f"layer{i}."
            last = i == cfg.n_layers - 1
            sel = heads if last else slice(None)
            a, aq, xhat1, inv1, attn, c, xhat2, inv2, fin, gelu_d, h = layers[i]
            # feed-forward block
            dh, g[pre + "ffn.w2"], g[pre + "ffn.b2"] = _linear_backward(h, dx, p[pre + "ffn.w2"])
            dh *= gelu_d
            dfin, g[pre + "ffn.w1"], g[pre + "ffn.b1"] = _linear_backward(fin, dh, p[pre + "ffn.w1"])
            del dh
            dln2, g[pre + "ln2.scale"], g[pre + "ln2.shift"] = _layer_norm_backward(
                dfin, xhat2, inv2, p[pre + "ln2.scale"]
            )
            dln2 += dx
            dx = dln2
            # attention block
            dc, g[pre + "attn.wo"], g[pre + "attn.bo"] = _linear_backward(c, dx, p[pre + "attn.wo"])
            dq, dk, dv = _attention_backward(dc, attn, groups, last, len(a), cfg.n_heads)
            da_q, g[pre + "attn.wq"], g[pre + "attn.bq"] = _linear_backward(aq, dq, p[pre + "attn.wq"])
            da, g[pre + "attn.wk"], _ = _linear_backward(a, dk, p[pre + "attn.wk"])
            da[sel] += da_q  # da_q + da_k + da_v, with da_q on the query rows only
            da_v, g[pre + "attn.wv"], g[pre + "attn.bv"] = _linear_backward(a, dv, p[pre + "attn.wv"])
            da += da_v
            del dc, dq, dk, dv, da_q, da_v
            dln1, g[pre + "ln1.scale"], g[pre + "ln1.shift"] = _layer_norm_backward(
                da, xhat1, inv1, p[pre + "ln1.scale"]
            )
            dln1[sel] += dx  # the residual reaches the query rows only
            dx = dln1
        g["tok_emb"] = np.zeros_like(p["tok_emb"])
        _add_rows_at(g["tok_emb"], ids, dx)
        g["pos_emb"] = np.zeros_like(p["pos_emb"])
        for b, n, rows, _, _ in groups:
            g["pos_emb"][:n] += np.add.reduce(dx[rows].reshape(b, n, -1), axis=0)
        return {name: g[name] for name in p}


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_xent(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy of targets[i] under row i's softmax, and its gradient
    with respect to logits."""
    rows = np.arange(len(targets))
    zmax = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits - zmax).sum(axis=1, keepdims=True)) + zmax
    losses = lse[:, 0] - logits[rows, targets]
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise FloatingPointError(f"non-finite loss at batch index {int(bad[0])}")
    dlogits = np.exp(logits - lse)
    dlogits[rows, targets] -= 1.0
    dlogits /= len(targets)
    return float(losses.mean()), dlogits


def forward_backward(
    encoder: Encoder,
    w_doc: np.ndarray,
    batch: Sequence,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean negative log-likelihood of the targets under the docid softmax.

    batch items carry .tokens and .target (a TrainingPair works), and w_doc
    has the encoder's dtype. Gradients cover every encoder parameter, under
    its own name, then the docid matrix under key "w_doc".
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    n_docs = w_doc.shape[1]
    targets = np.array([p.target for p in batch], dtype=np.int64)
    if targets.min() < 0 or targets.max() >= n_docs:
        raise ValueError("batch targets a docid outside the corpus")
    cls_vec, cache = encoder.forward_batch([p.tokens for p in batch])
    loss, dlogits = softmax_xent(cls_vec @ w_doc, targets)
    gw = cls_vec.T @ dlogits
    grads = encoder.backward_batch(cache, dlogits @ w_doc.T)
    grads["w_doc"] = gw
    return loss, grads


@dataclass
class AdamWState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def adamw_init(params: dict[str, np.ndarray]) -> AdamWState:
    return AdamWState(
        step=0,
        m={k: np.zeros_like(a) for k, a in params.items()},
        v={k: np.zeros_like(a) for k, a in params.items()},
    )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    cfg: TrainConfig,
) -> None:
    """One decoupled-weight-decay Adam update with bias correction, using
    cfg's lr and weight_decay and the constants BETA1, BETA2 and ADAM_EPS.

    Runs in place: the arrays in params, state.m and state.v are updated and
    state.step advances. Each gradient must have its parameter's key, shape
    and dtype; all of them are checked before anything is updated, so a
    rejected call changes nothing. The operation order is that of
        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * g * g
        p = p - lr * ((m / c1) / (sqrt(v / c2) + ADAM_EPS) + weight_decay * p)
    """
    if set(grads) != set(params):
        raise ValueError("gradient keys do not match parameter keys")
    for k, p in params.items():
        g = grads[k]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for '{k}'")
        if g.dtype != p.dtype:
            raise ValueError(f"gradient dtype {g.dtype} for '{k}' differs from its parameter's {p.dtype}")
    state.step += 1
    c1 = 1.0 - BETA1 ** state.step
    c2 = 1.0 - BETA2 ** state.step
    for k, p in params.items():
        gk, m, v = grads[k], state.m[k], state.v[k]
        tmp = np.multiply(gk, 1.0 - BETA1)
        m *= BETA1
        m += tmp
        np.multiply(gk, 1.0 - BETA2, out=tmp)
        tmp *= gk
        v *= BETA2
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update = m / c1
        update /= tmp
        np.multiply(p, cfg.weight_decay, out=tmp)
        update += tmp
        update *= cfg.lr
        p -= update


def finite_diff_check(
    loss_and_grad: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    params: dict[str, np.ndarray],
    max_coords_per_param: int = 4,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, float]]:
    """Compare analytic gradients to central finite differences.

    Samples up to max_coords_per_param coordinates from every parameter
    array, perturbs each by +/-FD_STEP, and reports the worst relative error,
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-6), overall and per
    parameter. The loss callable must be pure.
    """
    rng = rng or np.random.default_rng(0)
    _, grads = loss_and_grad(params)
    worst = 0.0
    per_param: dict[str, float] = {}
    for name, arr in params.items():
        flat = arr.reshape(-1)
        k = min(max_coords_per_param, flat.size)
        coords = rng.choice(flat.size, size=k, replace=False)
        err = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + FD_STEP
            lp = loss_and_grad(params)[0]
            flat[c] = orig - FD_STEP
            lm = loss_and_grad(params)[0]
            flat[c] = orig
            numeric = (lp - lm) / (2.0 * FD_STEP)
            analytic = float(grads[name].reshape(-1)[c])
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
            err = max(err, rel)
        per_param[name] = err
        worst = max(worst, err)
    return worst, per_param
