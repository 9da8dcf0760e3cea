import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from paramdex import nn
from paramdex.corpus import CLS_ID, PAD_ID
from paramdex.nn import (
    ADAM_EPS,
    BETA1,
    BETA2,
    LN_EPS,
    AdamWState,
    Encoder,
    EncoderConfig,
    _add_rows_at,
    _attention_softmax,
    _attention_softmax_backward,
    _gelu,
    _layer_norm,
    _layer_norm_backward,
    adamw_init,
    adamw_step,
    finite_diff_check,
    forward_backward,
    softmax,
)
from paramdex.pairs import TrainingPair
from paramdex.training import TrainConfig

TINY = EncoderConfig(vocab_size=30, d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=32)


def tiny_encoder(seed=0, dtype=np.float32):
    return Encoder.init(TINY, seed, dtype=dtype)


def random_batch(rng, n_docs=8, size=5):
    return [
        TrainingPair(
            list(rng.integers(3, TINY.vocab_size, size=int(rng.integers(2, 12)))),
            int(rng.integers(0, n_docs)),
            "terms",
        )
        for _ in range(size)
    ]


class TestEncode:
    def test_output_shape(self):
        enc = tiny_encoder()
        assert enc.encode([3, 4, 5]).shape == (TINY.d_model,)

    def test_deterministic(self):
        enc = tiny_encoder()
        a = enc.encode([3, 9, 7, 7])
        b = enc.encode([3, 9, 7, 7])
        assert np.array_equal(a, b)

    def test_permutation_changes_output(self):
        enc = tiny_encoder()
        a = enc.encode([3, 4, 5, 6])
        b = enc.encode([6, 5, 4, 3])
        assert np.max(np.abs(a - b)) > 1e-6

    def test_empty_sequence_is_valid(self):
        enc = tiny_encoder()
        out = enc.encode([])
        assert out.shape == (TINY.d_model,) and np.all(np.isfinite(out))

    def test_truncates_to_max_len(self):
        enc = tiny_encoder()
        long = list(np.random.default_rng(0).integers(3, 30, size=200))
        assert np.array_equal(enc.encode(long), enc.encode(long[: TINY.max_len - 1]))

    def test_padding_does_not_leak_between_sequences(self):
        enc = tiny_encoder()
        short = [3, 4, 5]
        long = list(range(3, 25))
        alone = enc.encode(short)
        batched, _ = enc.forward_batch([short, long], need_cache=False)
        np.testing.assert_allclose(batched[0], alone, atol=1e-5)


def mixed_length_batch():
    """Sequences in five length buckets, out of bucket order, with an empty one
    and one longer than max_len; several sequences share a bucket."""
    rng = np.random.default_rng(21)
    lengths = [40, 2, 0, 9, 3, 17, 1, 12, 2]
    return [list(rng.integers(3, TINY.vocab_size, size=n)) for n in lengths]


GELU_K = math.sqrt(2.0 / math.pi)
GELU_C = 0.044715


# Textbook kernels, written as plain expressions: the references for the
# encoder's in-place kernels, which must match them bit for bit.
def textbook_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_K * (x + GELU_C * x * x * x)))


def textbook_gelu_grad(x):
    t = np.tanh(GELU_K * (x + GELU_C * x * x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_K * (1.0 + 3.0 * GELU_C * x * x)


def textbook_layer_norm(x, scale, shift):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mean) * inv
    return xhat * scale + shift, xhat, inv


def textbook_layer_norm_backward(dy, xhat, inv, scale):
    axes = tuple(range(dy.ndim - 1))
    dxh = dy * scale
    dx = inv * (
        dxh
        - dxh.mean(axis=-1, keepdims=True)
        - xhat * (dxh * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes)


def textbook_attention_softmax(s, scale, mask):
    s = s * scale + mask
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def textbook_attention_softmax_backward(att, datt, scale):
    return att * (datt - (datt * att).sum(axis=-1, keepdims=True)) * scale


def textbook_adamw(p, g, m, v, step, cfg):
    c1 = 1.0 - BETA1 ** step
    c2 = 1.0 - BETA2 ** step
    m = BETA1 * m + (1.0 - BETA1) * g
    v = BETA2 * v + (1.0 - BETA2) * g * g
    update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS) + cfg.weight_decay * p
    return p - cfg.lr * update, m, v


def full_width_cls(enc, seqs, key_bias=None):
    """CLS rows of one padded batch that runs every position through every
    layer and the final layer norm, from the textbook kernels: the reference
    for the last layer's CLS-only computation. key_bias, one (d_model,)
    vector per layer, is added to the keys, as in a model with a key bias."""
    cfg, p = enc.cfg, enc.params
    key_bias = [0.0] * cfg.n_layers if key_bias is None else key_bias
    clipped = [list(s[: cfg.max_len - 1]) for s in seqs]
    n = 1 + max((len(s) for s in clipped), default=0)
    ids = np.array([[CLS_ID] + s + [PAD_ID] * (n - 1 - len(s)) for s in clipped], dtype=np.int64)
    lens = np.array([1 + len(s) for s in clipped])
    mask = np.where(np.arange(n) < lens[:, None], 0.0, -np.inf).astype(enc.dtype)[:, None, None, :]
    b, d, n_heads = len(seqs), cfg.d_model, cfg.n_heads

    def split_heads(u):
        return u.reshape(b, n, n_heads, d // n_heads).transpose(0, 2, 1, 3)

    scale = 1.0 / math.sqrt(d // n_heads)
    x = p["tok_emb"][ids] + p["pos_emb"][:n]
    for i in range(cfg.n_layers):
        w = {k.split(".", 1)[1]: v for k, v in p.items() if k.startswith(f"layer{i}.")}
        a, _, _ = textbook_layer_norm(x, w["ln1.scale"], w["ln1.shift"])
        qkv = (a @ w["attn.wq"] + w["attn.bq"], a @ w["attn.wk"] + key_bias[i],
               a @ w["attn.wv"] + w["attn.bv"])
        qh, kh, vh = (split_heads(u) for u in qkv)
        att = textbook_attention_softmax(qh @ kh.transpose(0, 1, 3, 2), scale, mask)
        x = x + (att @ vh).transpose(0, 2, 1, 3).reshape(b, n, d) @ w["attn.wo"] + w["attn.bo"]
        fin, _, _ = textbook_layer_norm(x, w["ln2.scale"], w["ln2.shift"])
        x = x + textbook_gelu(fin @ w["ffn.w1"] + w["ffn.b1"]) @ w["ffn.w2"] + w["ffn.b2"]
    y, _, _ = textbook_layer_norm(x, p["ln_f.scale"], p["ln_f.shift"])
    return y[:, 0, :]


class TestLengthGroups:
    def test_rows_match_single_sequence_encoding_in_input_order(self):
        enc = tiny_encoder(seed=2)
        seqs = mixed_length_batch()
        assert len({min(len(s), TINY.max_len - 1).bit_length() for s in seqs}) >= 3
        batched, _ = enc.forward_batch(seqs, need_cache=False)
        alone = np.stack([enc.encode(s) for s in seqs])
        np.testing.assert_allclose(batched, alone, atol=1e-5)

    def test_backward_is_sum_of_single_sequence_backwards(self):
        enc = tiny_encoder(seed=3, dtype=np.float64)
        seqs = mixed_length_batch()
        d_cls = np.random.default_rng(5).normal(size=(len(seqs), TINY.d_model))
        _, cache = enc.forward_batch(seqs)
        batched = enc.backward_batch(cache, d_cls)
        total = {k: np.zeros_like(v) for k, v in enc.params.items()}
        for i, s in enumerate(seqs):
            _, one = enc.forward_batch([s])
            for k, v in enc.backward_batch(one, d_cls[i : i + 1]).items():
                total[k] += v
        for k in total:
            np.testing.assert_allclose(batched[k], total[k], rtol=1e-9, atol=1e-12, err_msg=k)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_cls_rows_match_full_width_reference(self, n_layers):
        cfg = dataclasses.replace(TINY, n_layers=n_layers)
        enc = Encoder.init(cfg, 8, dtype=np.float64)
        seqs = mixed_length_batch()
        batched, _ = enc.forward_batch(seqs, need_cache=False)
        np.testing.assert_allclose(batched, full_width_cls(enc, seqs), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_key_bias_cancels_in_the_softmax(self, n_layers):
        # why the encoder has no key bias: adding one to K moves all of a
        # query's scores by the same constant, which the softmax cancels
        cfg = dataclasses.replace(TINY, n_layers=n_layers)
        enc = Encoder.init(cfg, 9, dtype=np.float64)
        rng = np.random.default_rng(n_layers)
        enc.params = {k: v + rng.normal(0.0, 0.3, size=v.shape) for k, v in enc.params.items()}
        key_bias = [rng.normal(0.0, 2.0, size=cfg.d_model) for _ in range(n_layers)]
        seqs = mixed_length_batch()
        batched, _ = enc.forward_batch(seqs, need_cache=False)
        np.testing.assert_allclose(batched, full_width_cls(enc, seqs, key_bias), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_mixed_batch_matches_finite_differences(self, n_layers):
        cfg = dataclasses.replace(TINY, n_layers=n_layers)
        rng = np.random.default_rng(13)
        enc = Encoder.init(cfg, rng, dtype=np.float64)
        w_doc = rng.normal(0, 0.02, size=(cfg.d_model, 8))
        batch = [TrainingPair(s, i % 8, "terms") for i, s in enumerate(mixed_length_batch())]
        params = dict(enc.params, w_doc=w_doc)

        def fn(p):
            return forward_backward(
                Encoder(cfg, {k: v for k, v in p.items() if k != "w_doc"}), p["w_doc"], batch
            )

        worst, per_param = finite_diff_check(fn, params, max_coords_per_param=3,
                                             rng=np.random.default_rng(1))
        assert worst < 1e-4, f"worst relative error {worst}: {per_param}"

    def test_position_wise_layers_run_once_for_all_groups(self, monkeypatch):
        cfg = dataclasses.replace(TINY, n_layers=2)
        enc = Encoder.init(cfg, 4)
        seqs = mixed_length_batch()
        n_groups = len({min(len(s), cfg.max_len - 1).bit_length() for s in seqs})
        assert n_groups >= 3
        calls = dict.fromkeys(("_layer_norm", "_attention_softmax", "_linear_backward"), 0)
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(nn, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(nn, name, counted)
        _, cache = enc.forward_batch(seqs)
        assert calls["_layer_norm"] == 2 * cfg.n_layers + 1
        assert calls["_attention_softmax"] == n_groups * cfg.n_layers
        enc.backward_batch(cache, np.ones((len(seqs), cfg.d_model), dtype=np.float32))
        assert calls["_linear_backward"] == 6 * cfg.n_layers  # q, k, v, o, ffn.w1, ffn.w2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_scatter_equals_two_dimensional_add_at_bit_for_bit(self, dtype):
        rng = np.random.default_rng(6)
        ids = rng.choice([CLS_ID, PAD_ID, 3, 4, 7], size=300)  # ids repeat many times
        rows = (rng.normal(size=(300, 16)) * rng.choice([1e-3, 1.0, 1e3], size=(300, 1))).astype(dtype)
        start = rng.normal(size=(10, 16)).astype(dtype)
        want, got = start.copy(), start.copy()
        np.add.at(want, ids, rows)
        _add_rows_at(got, ids, rows)
        assert np.array_equal(got, want)

    def test_empty_batch_encodes_to_zero_rows(self):
        out, _ = tiny_encoder().forward_batch([])
        assert out.shape == (0, TINY.d_model)


class TestSoftmax:
    def test_normalized_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = softmax(rng.normal(size=rng.integers(2, 40)) * 10)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=17)
        np.testing.assert_allclose(softmax(logits), softmax(logits + 123.456), atol=1e-6)


class TestKernelsMatchTextbookExactly:
    """The in-place kernels do the textbook expressions' floating-point
    operations in the same order, so results are equal bit for bit. A
    reordering that only moves rounding fails here, not in a checkpoint."""

    @pytest.fixture(params=[0, 1, 2])
    def rng(self, request):
        return np.random.default_rng(request.param)

    def test_gelu_and_its_derivative(self, rng):
        x = (rng.normal(size=(6, 33, 256)) * rng.choice([0.1, 1.0, 4.0, 30.0], size=(6, 1, 1)))
        x = x.astype(np.float32)
        x[0, 0, :3] = 0.0
        h, grad = _gelu(x.copy(), need_grad=True)  # _gelu overwrites its input
        assert h.dtype == grad.dtype == np.float32
        assert np.array_equal(h, textbook_gelu(x))
        assert np.array_equal(grad, textbook_gelu_grad(x))
        h_only, none = _gelu(x.copy(), need_grad=False)
        assert none is None and np.array_equal(h_only, h)

    @pytest.mark.parametrize("shape", [(5, 17, 64), (5, 1, 64), (3, 2, 16)])
    def test_layer_norm(self, rng, shape):
        x = (rng.normal(size=shape) * 3.0 + rng.normal(size=shape[:-1] + (1,))).astype(np.float32)
        scale = rng.normal(1.0, 0.3, size=shape[-1]).astype(np.float32)
        shift = rng.normal(0.0, 0.3, size=shape[-1]).astype(np.float32)
        before = x.copy()
        for got, want in zip(_layer_norm(x, scale, shift), textbook_layer_norm(x, scale, shift)):
            assert got.dtype == np.float32 and np.array_equal(got, want)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("shape", [(5, 17, 64), (5, 1, 64), (3, 2, 16)])
    def test_layer_norm_backward(self, rng, shape):
        x = rng.normal(size=shape).astype(np.float32)
        scale = rng.normal(1.0, 0.3, size=shape[-1]).astype(np.float32)
        _, xhat, inv = textbook_layer_norm(x, scale, np.zeros_like(scale))
        dy = rng.normal(size=shape).astype(np.float32)
        before = dy.copy()
        got = _layer_norm_backward(dy, xhat, inv, scale)
        want = textbook_layer_norm_backward(dy, xhat, inv, scale)
        for g, w in zip(got, want):
            assert g.dtype == np.float32 and np.array_equal(g, w)
        assert np.array_equal(dy, before)

    @pytest.mark.parametrize("n_queries", [9, 1])
    def test_attention_softmax_forward_and_backward(self, rng, n_queries):
        b, h, n = 4, 2, 9
        lens = np.array([9, 1, 5, 3])
        mask = np.where(np.arange(n)[None, :] < lens[:, None], 0.0, -np.inf)
        mask = mask.astype(np.float32)[:, None, None, :]
        s = (rng.normal(size=(b, h, n_queries, n)) * 6.0).astype(np.float32)
        scale = 1.0 / math.sqrt(8)
        want = textbook_attention_softmax(s, scale, mask)
        att = _attention_softmax(s.copy(), scale, mask)
        assert att.dtype == np.float32 and np.array_equal(att, want)
        assert np.all(att[1, :, :, 1:] == 0.0)  # the masked columns
        datt = rng.normal(size=att.shape).astype(np.float32)
        want = textbook_attention_softmax_backward(att, datt, scale)
        got = _attention_softmax_backward(att, datt.copy(), scale)
        assert got.dtype == np.float32 and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adamw_step(self, rng, dtype):
        shapes = {"w": (64, 96), "b": (96,), "s": (3, 4, 5)}
        params = {k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
        cfg = TrainConfig(lr=3e-3, weight_decay=0.05)
        state = adamw_init(params)
        want_p = {k: a.copy() for k, a in params.items()}
        want_m = {k: a.copy() for k, a in state.m.items()}
        want_v = {k: a.copy() for k, a in state.v.items()}
        for step in range(1, 5):
            grads = {k: (rng.normal(size=s) * 10.0 ** rng.uniform(-4, 1)).astype(dtype)
                     for k, s in shapes.items()}
            assert adamw_step(params, grads, state, cfg) is None
            assert state.step == step
            for k in shapes:
                want_p[k], want_m[k], want_v[k] = textbook_adamw(
                    want_p[k], grads[k], want_m[k], want_v[k], step, cfg)
                for got, want in ((params[k], want_p[k]), (state.m[k], want_m[k]),
                                  (state.v[k], want_v[k])):
                    assert got.dtype == dtype and np.array_equal(got, want), (step, k)


class TestForwardBackward:
    def test_uniform_softmax_loss(self):
        enc = tiny_encoder()
        w_doc = np.zeros((TINY.d_model, 4), dtype=np.float32)
        loss, _ = forward_backward(enc, w_doc, random_batch(np.random.default_rng(0), n_docs=4))
        assert loss == pytest.approx(math.log(4.0), abs=1e-6)

    def test_loss_matches_direct_softmax_evaluation(self):
        # independent oracle: recompute the NLL from the raw logits with math.*
        enc = tiny_encoder(seed=3)
        rng = np.random.default_rng(4)
        w_doc = rng.normal(0, 0.5, size=(TINY.d_model, 6)).astype(np.float32)
        batch = random_batch(rng, n_docs=6, size=4)
        loss, _ = forward_backward(enc, w_doc, batch)
        expected = 0.0
        for p in batch:
            logits = [float(enc.encode(p.tokens) @ w_doc[:, j]) for j in range(6)]
            denom = sum(math.exp(l) for l in logits)
            expected += -math.log(math.exp(logits[p.target]) / denom)
        assert loss == pytest.approx(expected / len(batch), rel=1e-5)

    def test_two_one_zero_logits_case(self):
        # engineer logits [2, 0, 0] for a single example, target 0
        enc = tiny_encoder(seed=5)
        v = enc.encode([4, 9])
        w_doc = np.zeros((TINY.d_model, 3), dtype=np.float64)
        w_doc[:, 0] = 2.0 * v / float(v @ v)
        loss, _ = forward_backward(enc, w_doc.astype(np.float32), [TrainingPair([4, 9], 0, "query")])
        assert loss == pytest.approx(math.log1p(2 * math.exp(-2)), abs=1e-5)
        assert loss == pytest.approx(0.23955, abs=1e-4)

    def test_rejects_target_outside_corpus(self):
        enc = tiny_encoder()
        w_doc = np.zeros((TINY.d_model, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="outside"):
            forward_backward(enc, w_doc, [TrainingPair([3], 4, "query")])

    def test_nonfinite_loss_names_batch_index(self):
        enc = tiny_encoder()
        w_doc = np.zeros((TINY.d_model, 4), dtype=np.float32)
        w_doc[0, 1] = np.nan
        with pytest.raises(FloatingPointError, match="batch index 0"):
            forward_backward(enc, w_doc, [TrainingPair([3, 4], 0, "query")])

    def test_empty_batch_rejected(self):
        enc = tiny_encoder()
        with pytest.raises(ValueError, match="nonempty"):
            forward_backward(enc, np.zeros((TINY.d_model, 2), dtype=np.float32), [])


class TestGradients:
    def test_full_model_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        enc = Encoder.init(TINY, rng, dtype=np.float64)
        w_doc = rng.normal(0, 0.02, size=(TINY.d_model, 8))
        batch = random_batch(rng, n_docs=8, size=5)
        params = dict(enc.params, w_doc=w_doc)

        def fn(p):
            return forward_backward(
                Encoder(TINY, {k: v for k, v in p.items() if k != "w_doc"}), p["w_doc"], batch
            )

        worst, per_param = finite_diff_check(fn, params, max_coords_per_param=3,
                                             rng=np.random.default_rng(0))
        assert worst < 1e-4, f"worst relative error {worst}: {per_param}"

    def test_quadratic_loss_is_nearly_exact(self):
        params = {"p": np.random.default_rng(0).normal(size=20)}

        def fn(ps):
            return 0.5 * float(np.sum(ps["p"] ** 2)), {"p": ps["p"].copy()}

        worst, _ = finite_diff_check(fn, params)
        assert worst < 1e-8


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        params = {"w": np.array([1.0, -2.0, 3.0], dtype=np.float32)}
        grads = {"w": np.zeros(3, dtype=np.float32)}
        hyper = TrainConfig(lr=1e-3, weight_decay=0.0)
        before = params["w"].copy()
        state = adamw_init(params)
        adamw_step(params, grads, state, hyper)
        assert np.array_equal(params["w"], before)
        assert state.step == 1

    def test_hand_executed_first_step(self):
        # scalar w=1, g=0.5: m=0.05, v=0.00025, mhat=0.5, vhat=0.25
        # w' = 1 - lr*(0.5/(0.5+eps)) - lr*wd*1, under Adam's defaults
        assert (BETA1, BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
        hyper = TrainConfig(lr=1e-3, weight_decay=0.01)
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        adamw_step(params, grads, adamw_init(params), hyper)
        mhat = 0.05 / (1 - 0.9)
        vhat = 0.00025 / (1 - 0.999)
        expected = 1.0 - 1e-3 * (mhat / (math.sqrt(vhat) + 1e-8)) - 1e-3 * 0.01 * 1.0
        assert params["w"][0] == pytest.approx(expected, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        params = {"a": rng.normal(size=(4, 3)).astype(np.float32)}
        grads = {"a": rng.normal(size=(4, 3)).astype(np.float32)}
        runs = []
        for _ in range(2):
            p = {k: a.copy() for k, a in params.items()}
            state = adamw_init(p)
            for _ in range(3):
                adamw_step(p, grads, state, TrainConfig())
            runs.append((p, state))
        (p1, s1), (p2, s2) = runs
        assert not np.array_equal(p1["a"], params["a"])
        for got, want in ((p1, p2), (s1.m, s2.m), (s1.v, s2.v)):
            assert np.array_equal(got["a"], want["a"])
        assert s1.step == s2.step == 3

    @pytest.mark.parametrize("bad", ["shape", "dtype"])
    def test_rejected_step_changes_nothing(self, bad):
        # a pin: the update runs only after every gradient has been checked,
        # so a bad last gradient leaves the first parameters and moments alone
        rng = np.random.default_rng(1)
        params, grads, m, v = ({k: rng.normal(size=(4, 3)).astype(np.float32) for k in "abc"}
                               for _ in range(4))
        state = AdamWState(step=3, m=m, v={k: np.abs(a) for k, a in v.items()})
        grads["c"] = (np.zeros((3, 4), np.float32) if bad == "shape"
                      else grads["c"].astype(np.float64))
        before = [{k: a.copy() for k, a in d.items()} for d in (params, state.m, state.v)]
        with pytest.raises(ValueError, match=f"{bad}.*'c'"):
            adamw_step(params, grads, state, TrainConfig())
        for got, want in zip((params, state.m, state.v), before):
            for k in want:
                assert np.array_equal(got[k], want[k]), k
        assert state.step == 3

    def test_shape_mismatch_rejected(self):
        params = {"a": np.zeros(3)}
        grads = {"a": np.zeros(4)}
        with pytest.raises(ValueError, match="shape"):
            adamw_step(params, grads, adamw_init(params), TrainConfig())

    def test_dtype_mismatch_rejected_naming_the_key(self):
        params = {"a": np.zeros(3, dtype=np.float32)}
        grads = {"a": np.ones(3, dtype=np.float64)}
        with pytest.raises(ValueError, match="dtype.*'a'"):
            adamw_step(params, grads, adamw_init(params), TrainConfig())

    def test_missing_key_rejected(self):
        params = {"a": np.zeros(3), "b": np.zeros(2)}
        with pytest.raises(ValueError, match="keys"):
            adamw_step(params, {"a": np.zeros(3)}, adamw_init(params), TrainConfig())


class TestSteadyHeap:
    def _calls(self, monkeypatch, libc):
        calls = []
        mallopt = lambda param, value: calls.append((param, value)) or 1  # noqa: E731
        monkeypatch.setattr(nn.platform, "libc_ver", lambda: (libc, "2.36" if libc else ""))
        monkeypatch.setattr(nn.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        nn.steady_heap()
        return calls

    def test_sets_both_thresholds_on_glibc(self, monkeypatch):
        # the maximum of glibc's dynamic mmap threshold on 64-bit, and twice it
        assert (nn.MMAP_THRESHOLD, nn.TRIM_THRESHOLD) == (32 << 20, 64 << 20)
        assert (nn.M_MMAP_THRESHOLD, nn.M_TRIM_THRESHOLD) == (-3, -1)  # glibc's malloc.h
        assert self._calls(monkeypatch, "glibc") == [(nn.M_MMAP_THRESHOLD, nn.MMAP_THRESHOLD),
                                                     (nn.M_TRIM_THRESHOLD, nn.TRIM_THRESHOLD)]

    @pytest.mark.parametrize("libc", ["", "musl", "libc"])
    def test_makes_no_call_on_another_libc(self, monkeypatch, libc):
        assert self._calls(monkeypatch, libc) == []
