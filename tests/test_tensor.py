"""Unit and property tests for the autodiff tensor core.

Hand-computed and scalar-loop oracles are frozen inline; finite differences
are the independent check for every differentiable operation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3enc import tensor as T
from m3enc.errors import ConfigError, ContractError, NumericsError, ShapeError


def rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=shape)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    b = T.Tensor(rand((3, 5), seed=1))
    out = T.matmul(T.Tensor(np.eye(3)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_hand_summation():
    a = T.Tensor([[1.0, 2.0]])
    b = T.Tensor([[3.0], [4.0]])
    out = T.matmul(a, b)
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(rand((2, 3))), T.Tensor(rand((4, 2))))


def test_matmul_grad_matches_column_sums():
    # d/da sum(a @ b) = row-broadcast of column sums of b
    a = T.Tensor(rand((4, 3), seed=2), requires_grad=True)
    b = T.Tensor(rand((3, 5), seed=3), requires_grad=True)
    loss = T.tsum(T.matmul(a, b))
    loss.backward()
    expected = np.tile(b.data.sum(axis=1), (4, 1))
    np.testing.assert_allclose(a.grad, expected, rtol=1e-12)
    err = T.grad_check(lambda: T.tsum(T.matmul(a, b)), [("a", a), ("b", b)])
    assert err < 1e-6


def test_matmul_batched_grad():
    a = T.Tensor(rand((2, 3, 4), seed=4), requires_grad=True)
    w = T.Tensor(rand((4, 5), seed=5), requires_grad=True)

    def f():
        out = T.matmul(a, w)
        return T.tsum(T.mul(out, out))

    assert T.grad_check(f, [("a", a), ("w", w)]) < 1e-6


@pytest.mark.parametrize("a_shape", [(3, 4, 5), (2, 3, 4, 5)])
def test_matmul_stacked_times_weight_matches_per_slice_oracle(a_shape):
    a = T.Tensor(rand(a_shape, seed=60), requires_grad=True)
    w = T.Tensor(rand((5, 7), seed=61), requires_grad=True)
    c = rand(a_shape[:-1] + (7,), seed=62)
    out = T.matmul(a, w)
    T.tsum(T.mul(out, T.Tensor(c))).backward()
    a2, c2 = a.data.reshape(-1, 5), c.reshape(-1, 7)
    expected_out = np.stack([a2[i] @ w.data for i in range(len(a2))])
    expected_ga = np.stack([c2[i] @ w.data.T for i in range(len(a2))])
    expected_gw = sum(np.outer(a2[i], c2[i]) for i in range(len(a2)))
    np.testing.assert_allclose(out.data, expected_out.reshape(out.shape), rtol=1e-12)
    np.testing.assert_allclose(a.grad, expected_ga.reshape(a_shape), rtol=1e-12)
    np.testing.assert_allclose(w.grad, expected_gw, rtol=1e-12)


# ---------------------------------------------------------------------------
# softmax / logsumexp
# ---------------------------------------------------------------------------


def test_softmax_uniform_row():
    v = 7
    out = T.softmax_rows(T.Tensor(np.full((2, v), 3.25)))
    np.testing.assert_allclose(out.data, np.full((2, v), 1.0 / v), rtol=1e-12)


def test_softmax_closed_form():
    out = T.softmax_rows(T.Tensor([[0.0, math.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], rtol=1e-12)


def test_softmax_shift_invariance():
    x = rand((3, 9), seed=6)
    a = T.softmax_rows(T.Tensor(x)).data
    b = T.softmax_rows(T.Tensor(x + 1e4)).data
    # adding 1e4 rounds away low bits of x itself, so exactness is up to that
    np.testing.assert_allclose(a, b, atol=1e-12, rtol=0.0)
    # a shift that keeps every entry exactly representable is bit-identical
    b2 = T.softmax_rows(T.Tensor(x - x.max(axis=-1, keepdims=True))).data
    np.testing.assert_array_equal(a, b2)


def test_softmax_empty_row_error():
    with pytest.raises(ShapeError):
        T.softmax_rows(T.Tensor(np.zeros((2, 0))))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one(v, seed):
    x = np.random.default_rng(seed).normal(0, 5, size=(4, v))
    out = T.softmax_rows(T.Tensor(x)).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9, rtol=0.0)


def test_softmax_grad():
    x = T.Tensor(rand((3, 6), seed=7), requires_grad=True)
    w = T.Tensor(rand((3, 6), seed=8))

    def f():
        return T.tsum(T.mul(T.softmax_rows(x), w))

    assert T.grad_check(f, [("x", x)]) < 1e-6


def test_logsumexp_matches_naive():
    x = rand((4, 9), seed=9, scale=3.0)
    out = T.logsumexp_rows(T.Tensor(x)).data
    np.testing.assert_allclose(out, np.log(np.exp(x).sum(axis=-1)), rtol=1e-12)


def test_log_softmax_grad():
    x = T.Tensor(rand((2, 5), seed=10), requires_grad=True)
    w = T.Tensor(rand((2, 5), seed=11))

    def f():
        return T.tsum(T.mul(T.log_softmax_rows(x), w))

    assert T.grad_check(f, [("x", x)]) < 1e-6


# ---------------------------------------------------------------------------
# normalization layers
# ---------------------------------------------------------------------------


def test_rms_norm_constant_row_is_ones():
    x = T.Tensor(np.full((1, 8), 3.7))
    w = T.Tensor(np.ones(8))
    out = T.rms_norm(x, w, eps=1e-8)
    np.testing.assert_allclose(out.data, np.ones((1, 8)), atol=1e-6)


def test_rms_norm_zero_row():
    out = T.rms_norm(T.Tensor(np.zeros((1, 4))), T.Tensor(np.ones(4)), eps=1e-8)
    np.testing.assert_array_equal(out.data, np.zeros((1, 4)))


def test_rms_norm_scalar_loop_oracle():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 6))
    w = rng.normal(size=6)
    eps = 1e-5
    expected = np.empty_like(x)
    for i in range(3):
        ms = sum(x[i, j] ** 2 for j in range(6)) / 6.0
        for j in range(6):
            expected[i, j] = w[j] * x[i, j] / math.sqrt(ms + eps)
    out = T.rms_norm(T.Tensor(x), T.Tensor(w), eps=eps)
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)


def test_rms_norm_grad():
    x = T.Tensor(rand((3, 6), seed=13), requires_grad=True)
    w = T.Tensor(rand(6, seed=14), requires_grad=True)
    c = T.Tensor(rand((3, 6), seed=15))

    def f():
        return T.tsum(T.mul(T.rms_norm(x, w, eps=1e-5), c))

    assert T.grad_check(f, [("x", x), ("w", w)]) < 1e-6


def test_layer_norm_constant_row_returns_bias():
    out = T.layer_norm(T.Tensor([[1.0, 1.0]]), T.Tensor(np.ones(2)),
                       T.Tensor([0.5, -0.5]), eps=1e-8)
    np.testing.assert_allclose(out.data, [[0.5, -0.5]], atol=1e-9)


def test_layer_norm_closed_form_unit_variance():
    out = T.layer_norm(T.Tensor([[-1.0, 1.0]]), T.Tensor(np.ones(2)),
                       T.Tensor(np.zeros(2)), eps=1e-12)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)


def test_layer_norm_shift_invariance():
    x = rand((2, 7), seed=16)
    w, b = rand(7, seed=17), rand(7, seed=18)
    a = T.layer_norm(T.Tensor(x), T.Tensor(w), T.Tensor(b), eps=1e-8).data
    c = T.layer_norm(T.Tensor(x + 2.5), T.Tensor(w), T.Tensor(b), eps=1e-8).data
    np.testing.assert_allclose(a, c, atol=1e-9)


def test_layer_norm_grad():
    x = T.Tensor(rand((3, 5), seed=19), requires_grad=True)
    w = T.Tensor(rand(5, seed=20), requires_grad=True)
    b = T.Tensor(rand(5, seed=21), requires_grad=True)
    c = T.Tensor(rand((3, 5), seed=22))

    def f():
        return T.tsum(T.mul(T.layer_norm(x, w, b, eps=1e-5), c))

    assert T.grad_check(f, [("x", x), ("w", w), ("b", b)]) < 1e-6


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def test_activation_zero():
    assert T.activation(T.Tensor([0.0]), "gelu").data[0] == 0.0


def test_activation_unknown_kind():
    with pytest.raises(ConfigError):
        T.activation(T.Tensor([1.0]), "relu")


@pytest.mark.parametrize("kind", ["gelu"])
def test_activation_grad(kind):
    x = T.Tensor(rand((4, 4), seed=23), requires_grad=True)
    c = T.Tensor(rand((4, 4), seed=24))

    def f():
        return T.tsum(T.mul(T.activation(x, kind), c))

    assert T.grad_check(f, [("x", x)]) < 1e-6


def test_swiglu_zero():
    up = T.Tensor([2.5])
    assert T.swiglu(T.Tensor([0.0]), up).data[0] == 0.0
    assert T.swiglu(up, T.Tensor([0.0])).data[0] == 0.0


def test_swiglu_closed_form():
    one = T.Tensor([1.0])
    out = T.swiglu(one, one)
    np.testing.assert_allclose(out.data[0], 1.0 / (1.0 + math.exp(-1.0)), rtol=1e-12)
    np.testing.assert_allclose(out.data[0], 0.731059, atol=1e-6)


def test_swiglu_saturates_without_overflow():
    gate = np.array([-1000.0, 1000.0], dtype=np.float32)
    out = T.swiglu(T.Tensor(gate), T.Tensor(np.ones(2, dtype=np.float32)))
    np.testing.assert_array_equal(out.data, [0.0, 1000.0])


def test_swiglu_grad():
    gate = T.Tensor(rand((4, 4), seed=23), requires_grad=True)
    up = T.Tensor(rand((4, 4), seed=25), requires_grad=True)
    c = T.Tensor(rand((4, 4), seed=24))

    def f():
        return T.tsum(T.mul(T.swiglu(gate, up), c))

    assert T.grad_check(f, [("gate", gate), ("up", up)]) < 1e-6


def test_swiglu_shape_mismatch():
    with pytest.raises(ShapeError):
        T.swiglu(T.Tensor(rand((2, 3))), T.Tensor(rand((3, 2))))


# ---------------------------------------------------------------------------
# fused attention
# ---------------------------------------------------------------------------


def attention_inputs(bsz=2, s=5, m=6, n_pad=2, seed=40):
    q, k, v = (T.Tensor(rand((bsz, s, m), seed=seed + i), requires_grad=True)
               for i in range(3))
    live = np.ones((bsz, s), dtype=bool)
    live[0, s - n_pad:] = False
    live[1, :n_pad - 1] = False
    key_bias = np.where(live, 0.0, T.MASK_OFFSET)
    return q, k, v, key_bias, live


def unfused_attention(q, k, v, key_bias, n_heads):
    """The node-per-step composition the fused op replaces."""
    bsz, s, m = q.shape
    dh = m // n_heads

    def split_heads(t):
        return T.transpose(T.reshape(t, (bsz, s, n_heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
    scores = T.scale(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    attn = T.softmax_rows(T.add(scores, T.Tensor(key_bias[:, None, None, :])))
    return T.reshape(T.transpose(T.matmul(attn, vh), (0, 2, 1, 3)), (bsz, s, m))


def test_attention_matches_unfused_composition():
    q, k, v, key_bias, _ = attention_inputs()
    c = rand((2, 5, 6), seed=50)
    grads = []
    for op in (T.attention, unfused_attention):
        for t in (q, k, v):
            t.grad = None
        out = op(q, k, v, key_bias, 3)
        T.tsum(T.mul(out, T.Tensor(c))).backward()
        grads.append((out.data, q.grad.copy(), k.grad.copy(), v.grad.copy()))
    for fused, ref in zip(*grads):
        np.testing.assert_allclose(fused, ref, rtol=1e-12, atol=1e-14)


def test_attention_grad():
    q, k, v, key_bias, _ = attention_inputs()
    c = T.Tensor(rand((2, 5, 6), seed=51))

    def f():
        return T.tsum(T.mul(T.attention(q, k, v, key_bias, 3), c))

    assert T.grad_check(f, [("q", q), ("k", k), ("v", v)]) < 1e-6


def test_attention_padded_keys_get_zero_grad():
    q, k, v, key_bias, live = attention_inputs()
    T.tsum(T.mul(T.attention(q, k, v, key_bias, 2), T.Tensor(rand((2, 5, 6), seed=52)))).backward()
    for t in (k, v):
        assert (t.grad[~live] == 0.0).all()
        assert (t.grad[live] != 0.0).any()


def test_attention_single_head_oracle():
    # one head, one sequence: softmax(q k^T / sqrt(m) + bias) v, row by row
    q, k, v = rand((1, 3, 4), seed=53), rand((1, 3, 4), seed=54), rand((1, 3, 4), seed=55)
    bias = np.array([[0.0, T.MASK_OFFSET, 0.0]])
    out = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), bias, 1).data
    for i in range(3):
        w = np.array([math.exp(q[0, i] @ k[0, j] / 2.0) if j != 1 else 0.0 for j in range(3)])
        np.testing.assert_allclose(out[0, i], (w / w.sum()) @ v[0], rtol=1e-12)


def test_attention_shape_errors():
    q, k, v, key_bias, _ = attention_inputs()
    with pytest.raises(ShapeError):
        T.attention(q, k, v, key_bias, 4)
    with pytest.raises(ShapeError):
        T.attention(q, k, v, key_bias[:, :3], 3)
    with pytest.raises(ShapeError):
        T.attention(q, T.Tensor(rand((2, 4, 6))), v, key_bias, 3)


# ---------------------------------------------------------------------------
# masked cross entropy
# ---------------------------------------------------------------------------


def test_masked_ce_uniform_logits():
    v = 11
    logits = T.Tensor(np.zeros((4, v)))
    targets = np.array([1, 5, 2, 9])
    mask = np.array([True, True, False, True])
    out = T.masked_cross_entropy(logits, targets, mask)
    np.testing.assert_allclose(float(out), math.log(v), rtol=1e-12)


def test_masked_ce_margin_limit():
    v, margin = 5, 50.0
    logits = np.zeros((2, v))
    targets = np.array([3, 1])
    logits[0, 3] = margin
    logits[1, 1] = margin
    out = T.masked_cross_entropy(T.Tensor(logits), targets, np.array([True, True]))
    assert float(out) < 1e-20


def test_masked_ce_scalar_oracle():
    logits = np.array([[0.2, -1.0, 0.5], [1.5, 0.0, -0.3], [9.9, 9.9, 9.9]])
    targets = np.array([2, 0, 1])
    mask = np.array([True, True, False])
    expected = 0.0
    for i in range(2):
        z = logits[i]
        expected += math.log(sum(math.exp(v) for v in z)) - z[targets[i]]
    expected /= 2.0
    out = T.masked_cross_entropy(T.Tensor(logits), targets, mask)
    np.testing.assert_allclose(float(out), expected, rtol=1e-12)


def test_masked_ce_empty_mask_error():
    with pytest.raises(ContractError):
        T.masked_cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, 1]),
                               np.array([False, False]))


def test_masked_ce_grad():
    logits = T.Tensor(rand((5, 7), seed=25), requires_grad=True)
    targets = np.array([0, 6, 3, 2, 1])
    mask = np.array([True, False, True, True, False])

    def f():
        return T.masked_cross_entropy(logits, targets, mask)

    assert T.grad_check(f, [("logits", logits)]) < 1e-6


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_l2_normalize_zero_row_error():
    with pytest.raises(NumericsError):
        T.l2_normalize_rows(T.Tensor(np.zeros((1, 3))))


def test_l2_normalize_grad():
    x = T.Tensor(rand((3, 4), seed=30) + 2.0, requires_grad=True)
    c = T.Tensor(rand((3, 4), seed=31))

    def f():
        return T.tsum(T.mul(T.l2_normalize_rows(x), c))

    assert T.grad_check(f, [("x", x)]) < 1e-6


# ---------------------------------------------------------------------------
# misc ops and infrastructure
# ---------------------------------------------------------------------------


def test_slice_and_gather_grads():
    x = T.Tensor(rand((4, 6), seed=32), requires_grad=True)
    idx = np.array([2, 0, 5, 1])

    def f():
        sliced = T.slice_last(x, 0, 4)
        picked = T.gather_last(x, idx)
        return T.tsum(T.mul(sliced, sliced)) + T.tsum(picked)

    assert T.grad_check(f, [("x", x)]) < 1e-6


def test_take_rows_accumulates_duplicates():
    table = T.Tensor(rand((5, 3), seed=33), requires_grad=True)
    idx = np.array([1, 1, 4])
    out = T.tsum(T.take_rows(table, idx))
    out.backward()
    expected = np.zeros((5, 3))
    expected[1] = 2.0
    expected[4] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_nonfinite_rejected():
    with pytest.raises(NumericsError):
        T.Tensor([np.inf, 1.0])
    with pytest.raises(NumericsError):
        T.tlog(T.Tensor([0.0]))


def test_no_grad_skips_recording():
    x = T.Tensor(rand((2, 2), seed=34), requires_grad=True)
    with T.no_grad():
        y = T.matmul(x, x)
    assert y._backward_fn is None and not y.requires_grad


def test_grad_accumulates_across_backwards():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    T.tsum(x).backward()
    T.tsum(x).backward()
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))
    T.zero_grads([("x", x)])
    assert x.grad is None


def test_grad_check_quadratic_exact():
    w = T.Tensor(np.linspace(0.5, 2.0, 10), requires_grad=True)

    def f():
        return T.tsum(T.mul(w, w))

    err = T.grad_check(f, [("w", w)], h=1e-4, floor=1e-12)
    assert err < 1e-9
    # analytic gradient is exactly 2w
    T.zero_grads([("w", w)])
    loss = f()
    loss.backward()
    np.testing.assert_allclose(w.grad, 2.0 * w.data, rtol=1e-12)


def test_gradient_record_shapes():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    T.tsum(x).backward()
    rec = T.GradientRecord.collect([("x", x)])
    assert rec["x"].shape == (2, 3)
