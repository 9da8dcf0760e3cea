"""Minimal numerical engine: transformer encoder, exact gradients, AdamW.

Everything here is plain numpy. The encoder is a pre-layer-norm transformer
with learned positional embeddings and CLS pooling; its backward pass is
written by hand and checked coordinate-wise against central finite
differences (see finite_diff_check). Parameters live in a flat
name -> array dict whose names, shapes and canonical order are given by
param_shapes(). Attention has no key bias: it would add one constant to
all of a query's scores, which the softmax cancels.

Batches run in length groups. Padding is masked out of attention, so each
sequence's encoding is independent of its batch neighbors, and
Encoder.forward_batch can cut a batch into sub-batches of similar length
(power-of-two buckets of the clipped length) without changing the math.
Each group is padded only to its own longest member, so a batch that mixes
128-token passages with 3-token n-grams no longer pays matmul and
attention work for the padding. Results differ from one padded batch only
by float rounding.

Only the CLS row is pooled, so the last layer runs for that row alone: its
layer norm, keys and values cover every position, while its queries,
attention output, FFN and the final layer norm run for row 0 only. Earlier
layers run every position, since the last layer's keys and values need
them. The backward pass mirrors this, so no gradient is pushed back through
rows that feed no output.

Each layer's cache holds the GELU derivative, computed with the
activation from the same tanh, in place of the GELU input. The elementwise
kernels (GELU, layer norm and its backward, the attention softmax and its
backward, AdamW) run in place on few buffers but keep the floating-point
operations and their order of the plain expressions in their docstrings,
so their results are bit-identical to those expressions. adamw_step
updates the model's own arrays, once every gradient has passed its checks.

No dropout: training is deterministic by construction. Training runs in
float32; gradient checks construct float64 models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import CLS_ID, PAD_ID
from .training import TrainConfig

LN_EPS = 1e-5
_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


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


def init_params(cfg: EncoderConfig, rng: np.random.Generator, dtype=np.float32) -> dict[str, np.ndarray]:
    """Weights ~ N(0, 0.02), biases/shifts zero, layer-norm scales one."""
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".scale"):
            params[name] = np.ones(shape, dtype=dtype)
        elif len(shape) == 1:
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = rng.normal(0.0, 0.02, size=shape).astype(dtype)
    return params


def _gelu(x: np.ndarray, need_grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """tanh-approximated GELU of x, and with need_grad its derivative (else None).

    One tanh serves both. In the operation order of
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
    half_x = 0.5 * x
    h = t + 1.0
    grad = np.multiply(h, 0.5) if need_grad else None
    h *= half_x
    if need_grad:
        t *= t
        np.subtract(1.0, t, out=t)
        half_x *= t
        half_x *= _GELU_K
        np.multiply(x, 3.0 * _GELU_C, out=t)
        t *= x
        t += 1.0
        half_x *= t
        grad += half_x
    return h, grad


def _layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray):
    """Returns (y, xhat, inv): x centred once, variance as x.var computes it."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    y = np.multiply(xhat, xhat)  # the squares first, then the output
    inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + LN_EPS)
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
    dscale = buf.sum(axis=axes)
    dshift = dy.sum(axis=axes)
    dx = dy * scale
    np.multiply(dx, xhat, out=buf)
    np.multiply(xhat, buf.mean(axis=-1, keepdims=True), out=buf)
    dx -= dx.mean(axis=-1, keepdims=True)
    dx -= buf
    dx *= inv
    return dx, dscale, dshift


def _attention_softmax(s: np.ndarray, scale: float, mask: np.ndarray) -> np.ndarray:
    """softmax(s * scale + mask) over the last axis, computed in s and returned:
    z = s * scale + mask; e = exp(z - max(z)); att = e / sum(e)."""
    s *= scale
    s += mask
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _attention_softmax_backward(att: np.ndarray, datt: np.ndarray, scale: float) -> np.ndarray:
    """Gradient at s of att = _attention_softmax(s, scale, mask) given datt,
    att * (datt - sum(datt * att)) * scale, computed in datt and returned."""
    datt -= (datt * att).sum(axis=-1, keepdims=True)
    datt *= att
    datt *= scale
    return datt


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, n, d = x.shape
    return x.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, n, h * dh)


def _linear_backward(x, dy, w):
    """y = x @ w + b with x (..., in): returns (dx, dw, db)."""
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return dy @ w.T, x2.T @ dy2, dy2.sum(axis=0)


class Encoder:
    """Transformer encoder returning the CLS-position hidden state."""

    def __init__(self, cfg: EncoderConfig, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params

    @classmethod
    def init(cls, cfg: EncoderConfig, seed: int | np.random.Generator = 0, dtype=np.float32) -> "Encoder":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return cls(cfg, init_params(cfg, rng, dtype=dtype))

    @property
    def dtype(self):
        return self.params["tok_emb"].dtype

    def _prepare(self, seqs: Sequence[Sequence[int]]):
        cfg = self.cfg
        clipped = [list(s[: cfg.max_len - 1]) for s in seqs]
        n = 1 + max((len(s) for s in clipped), default=0)
        ids = np.full((len(clipped), n), PAD_ID, dtype=np.int64)
        ids[:, 0] = CLS_ID
        lens = np.empty(len(clipped), dtype=np.int64)
        for i, s in enumerate(clipped):
            ids[i, 1 : 1 + len(s)] = s
            lens[i] = 1 + len(s)
        valid = np.arange(n)[None, :] < lens[:, None]
        mask = np.where(valid, 0.0, -np.inf).astype(self.dtype)[:, None, None, :]
        return ids, mask

    def forward_batch(self, seqs: Sequence[Sequence[int]], need_cache: bool = True):
        """Encode a batch of token sequences. Returns (cls (B, d), cache).

        Sequences are truncated to max_len - 1 and a CLS token is
        prepended. Padding positions are masked out of attention so a
        sequence's encoding does not depend on its batch neighbors' lengths.

        That masking lets the batch run as length groups: sequences whose
        clipped lengths share a power-of-two bucket (len.bit_length()) run
        together, padded only to their group's longest member, and the CLS
        rows are scattered back in input order. The cache is an opaque
        list of (rows, group cache) pairs for backward_batch; it is None
        when need_cache is false.
        """
        cap = self.cfg.max_len - 1
        groups: dict[int, list[int]] = {}
        for i, s in enumerate(seqs):
            groups.setdefault(min(len(s), cap).bit_length(), []).append(i)
        out = np.empty((len(seqs), self.cfg.d_model), dtype=self.dtype)
        cache = []
        for _, rows in sorted(groups.items()):
            cls_vec, group = self._forward_group([seqs[i] for i in rows], need_cache)
            out[rows] = cls_vec
            cache.append((rows, group))
        return out, (cache if need_cache else None)

    def _forward_group(self, seqs: Sequence[Sequence[int]], need_cache: bool):
        """Forward pass of one length group, padded to its longest member."""
        cfg, p = self.cfg, self.params
        ids, mask = self._prepare(seqs)
        n = ids.shape[1]
        scale = 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)
        x = p["tok_emb"][ids] + p["pos_emb"][:n]
        layers = []
        for i in range(cfg.n_layers):
            pre = f"layer{i}."
            # only the CLS row leaves the last layer: it needs keys and values
            # for every position, and queries and all the rest for row 0 alone
            last = i == cfg.n_layers - 1
            rows = slice(0, 1) if last else slice(None)
            a, xhat1, inv1 = _layer_norm(x, p[pre + "ln1.scale"], p[pre + "ln1.shift"])
            q = a[:, rows] @ p[pre + "attn.wq"] + p[pre + "attn.bq"]
            k = a @ p[pre + "attn.wk"]
            v = a @ p[pre + "attn.wv"] + p[pre + "attn.bv"]
            qh, kh, vh = (_split_heads(u, cfg.n_heads) for u in (q, k, v))
            att = _attention_softmax(qh @ kh.transpose(0, 1, 3, 2), scale, mask)
            c = _merge_heads(att @ vh)
            o = c @ p[pre + "attn.wo"] + p[pre + "attn.bo"]
            x_mid = x[:, rows] + o
            fin, xhat2, inv2 = _layer_norm(x_mid, p[pre + "ln2.scale"], p[pre + "ln2.shift"])
            h, gelu_d = _gelu(fin @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"], need_cache)
            x = x_mid + h @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"]
            if need_cache:
                layers.append((rows, a, xhat1, inv1, qh, kh, vh, att, c, xhat2, inv2, fin, gelu_d, h))
        y, xhat_f, inv_f = _layer_norm(x, p["ln_f.scale"], p["ln_f.shift"])
        cache = (ids, scale, layers, xhat_f, inv_f) if need_cache else None
        return y[:, 0, :], cache

    def encode(self, tokens: Sequence[int]) -> np.ndarray:
        """CLS representation of one token sequence (empty input is valid)."""
        out, _ = self.forward_batch([list(tokens)], need_cache=False)
        return out[0]

    def backward_batch(self, cache, d_cls: np.ndarray) -> dict[str, np.ndarray]:
        """Exact reverse-mode gradients of the cached forward pass.

        d_cls is the loss gradient at the CLS output, shape (B, d_model),
        in the input order of forward_batch. Each length group runs its
        backward pass on its own rows of d_cls, and every group adds into
        one gradient dict. Returns a dict congruent with the parameter dict.
        """
        g = {name: np.zeros_like(arr) for name, arr in self.params.items()}
        for rows, group in cache:
            self._backward_group(group, d_cls[rows], g)
        return g

    def _backward_group(self, cache, d_cls: np.ndarray, g: dict[str, np.ndarray]) -> None:
        """Add one length group's gradients into g."""
        cfg, p = self.cfg, self.params
        ids, scale, layers, xhat_f, inv_f = cache
        n = ids.shape[1]
        gl: dict[str, np.ndarray] = {}  # this group's gradients, added into g at the end

        dy = d_cls.astype(self.dtype, copy=False)[:, None, :]
        dx, gl["ln_f.scale"], gl["ln_f.shift"] = _layer_norm_backward(
            dy, xhat_f, inv_f, p["ln_f.scale"]
        )
        for i in reversed(range(cfg.n_layers)):
            pre = f"layer{i}."
            rows, a, xhat1, inv1, qh, kh, vh, att, c, xhat2, inv2, fin, gelu_d, h = layers[i]
            # feed-forward block
            dh, gl[pre + "ffn.w2"], gl[pre + "ffn.b2"] = _linear_backward(h, dx, p[pre + "ffn.w2"])
            dact = dh * gelu_d
            dfin, gl[pre + "ffn.w1"], gl[pre + "ffn.b1"] = _linear_backward(fin, dact, p[pre + "ffn.w1"])
            dln2, gl[pre + "ln2.scale"], gl[pre + "ln2.shift"] = _layer_norm_backward(
                dfin, xhat2, inv2, p[pre + "ln2.scale"]
            )
            dx = dx + dln2
            # attention block
            dc, gl[pre + "attn.wo"], gl[pre + "attn.bo"] = _linear_backward(c, dx, p[pre + "attn.wo"])
            dch = _split_heads(dc, cfg.n_heads)
            dvh = att.transpose(0, 1, 3, 2) @ dch
            ds = _attention_softmax_backward(att, dch @ vh.transpose(0, 1, 3, 2), scale)
            dqh = ds @ kh
            dkh = ds.transpose(0, 1, 3, 2) @ qh
            dq, dk, dv = _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)
            da_q, gl[pre + "attn.wq"], gl[pre + "attn.bq"] = _linear_backward(a[:, rows], dq, p[pre + "attn.wq"])
            da_k, gl[pre + "attn.wk"], _ = _linear_backward(a, dk, p[pre + "attn.wk"])
            da_v, gl[pre + "attn.wv"], gl[pre + "attn.bv"] = _linear_backward(a, dv, p[pre + "attn.wv"])
            da = da_k  # da_q + da_k + da_v, with da_q on the query rows only
            da[:, rows] += da_q
            da += da_v
            dln1, gl[pre + "ln1.scale"], gl[pre + "ln1.shift"] = _layer_norm_backward(
                da, xhat1, inv1, p[pre + "ln1.scale"]
            )
            dln1[:, rows] += dx  # the residual reaches the query rows only
            dx = dln1
        for name, grad in gl.items():
            g[name] += grad
        np.add.at(g["tok_emb"], ids.reshape(-1), dx.reshape(-1, cfg.d_model))
        g["pos_emb"][:n] += dx.sum(axis=0)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


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
    freeze_encoder: bool = False,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean negative log-likelihood of the targets under the docid softmax.

    batch items carry .tokens and .target (a TrainingPair works). Gradients
    cover every encoder parameter plus the docid matrix under key "w_doc";
    with freeze_encoder only "w_doc" is produced.
    """
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    n_docs = w_doc.shape[1]
    targets = np.array([p.target for p in batch], dtype=np.int64)
    if targets.min() < 0 or targets.max() >= n_docs:
        raise ValueError("batch targets a docid outside the corpus")
    cls_vec, cache = encoder.forward_batch(
        [p.tokens for p in batch], need_cache=not freeze_encoder
    )
    loss, dlogits = softmax_xent(cls_vec @ w_doc, targets)
    dlogits = dlogits.astype(encoder.dtype)
    gw = cls_vec.T @ dlogits
    if freeze_encoder:
        grads: dict[str, np.ndarray] = {}
    else:
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
    cfg's lr, beta1, beta2, adam_eps and weight_decay.

    Runs in place: the arrays in params, state.m and state.v are updated and
    state.step advances. Each gradient must have its parameter's key, shape
    and dtype; all of them are checked before anything is updated, so a
    rejected call changes nothing. The operation order is that of
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p = p - lr * ((m / c1) / (sqrt(v / c2) + adam_eps) + weight_decay * p)
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
    c1 = 1.0 - cfg.beta1 ** state.step
    c2 = 1.0 - cfg.beta2 ** state.step
    for k, p in params.items():
        gk, m, v = grads[k], state.m[k], state.v[k]
        tmp = np.multiply(gk, 1.0 - cfg.beta1)
        m *= cfg.beta1
        m += tmp
        np.multiply(gk, 1.0 - cfg.beta2, out=tmp)
        tmp *= gk
        v *= cfg.beta2
        v += tmp
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.adam_eps
        update = m / c1
        update /= tmp
        np.multiply(p, cfg.weight_decay, out=tmp)
        update += tmp
        update *= cfg.lr
        p -= update


def finite_diff_check(
    loss_and_grad: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    params: dict[str, np.ndarray],
    eps: float = 1e-4,
    max_coords_per_param: int = 4,
    rng: np.random.Generator | None = None,
    floor: float = 1e-6,
) -> tuple[float, dict[str, float]]:
    """Compare analytic gradients to central finite differences.

    Samples up to max_coords_per_param coordinates from every parameter
    array, perturbs each by +/-eps, and reports the worst relative error
    overall and per parameter. The loss callable must be pure.
    """
    if eps <= 0:
        raise ValueError("epsilon must be positive")
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
            flat[c] = orig + eps
            lp = loss_and_grad(params)[0]
            flat[c] = orig - eps
            lm = loss_and_grad(params)[0]
            flat[c] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = float(grads[name].reshape(-1)[c])
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
            err = max(err, rel)
        per_param[name] = err
        worst = max(worst, err)
    return worst, per_param
