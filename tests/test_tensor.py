"""Unit and property tests for the autodiff tensor core.

Hand-computed and scalar-loop oracles are frozen inline; finite differences
are the independent check for every differentiable operation.
"""

import ast
import inspect
import math
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3enc import tensor as T
from m3enc.errors import ContractError, NumericsError, ShapeError
from oracle_ops import (MASK_OFFSET, add_at_rows, reshape, saved_swiglu, softmax_rows,
                        transpose, tsum)


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
    loss = tsum(T.matmul(a, b))
    loss.backward()
    expected = np.tile(b.data.sum(axis=1), (4, 1))
    np.testing.assert_allclose(a.grad, expected, rtol=1e-12)
    err = T.grad_check(lambda: tsum(T.matmul(a, b)), [("a", a), ("b", b)])
    assert err < 1e-6


def test_matmul_batched_grad():
    a = T.Tensor(rand((2, 3, 4), seed=4), requires_grad=True)
    w = T.Tensor(rand((4, 5), seed=5), requires_grad=True)

    def f():
        out = T.matmul(a, w)
        return tsum(T.mul(out, out))

    assert T.grad_check(f, [("a", a), ("w", w)]) < 1e-6


@pytest.mark.parametrize("a_shape", [(3, 4, 5), (2, 3, 4, 5)])
def test_matmul_stacked_times_weight_matches_per_slice_oracle(a_shape):
    a = T.Tensor(rand(a_shape, seed=60), requires_grad=True)
    w = T.Tensor(rand((5, 7), seed=61), requires_grad=True)
    c = rand(a_shape[:-1] + (7,), seed=62)
    out = T.matmul(a, w)
    tsum(T.mul(out, T.Tensor(c))).backward()
    a2, c2 = a.data.reshape(-1, 5), c.reshape(-1, 7)
    expected_out = np.stack([a2[i] @ w.data for i in range(len(a2))])
    expected_ga = np.stack([c2[i] @ w.data.T for i in range(len(a2))])
    expected_gw = sum(np.outer(a2[i], c2[i]) for i in range(len(a2)))
    np.testing.assert_allclose(out.data, expected_out.reshape(out.shape), rtol=1e-12)
    np.testing.assert_allclose(a.grad, expected_ga.reshape(a_shape), rtol=1e-12)
    np.testing.assert_allclose(w.grad, expected_gw, rtol=1e-12)


@pytest.mark.parametrize("op", [T.add, T.mul, T.matmul], ids=["add", "mul", "matmul"])
def test_mixed_dtype_tensor_operands_rejected(op):
    a32 = T.Tensor(rand((3, 3), seed=63).astype(np.float32))
    b64 = T.Tensor(rand((3, 3), seed=64))
    with pytest.raises(ContractError, match="dtype"):
        op(a32, b64)
    with pytest.raises(ContractError, match="dtype"):
        op(b64, a32)
    # a plain array operand is cast to the tensor's dtype, not promoted
    assert op(a32, rand((3, 3), seed=64)).dtype == np.float32


# ---------------------------------------------------------------------------
# softmax / log-softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform_row():
    v = 7
    out = softmax_rows(T.Tensor(np.full((2, v), 3.25)))
    np.testing.assert_allclose(out.data, np.full((2, v), 1.0 / v), rtol=1e-12)


def test_softmax_closed_form():
    out = softmax_rows(T.Tensor([[0.0, math.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], rtol=1e-12)


def test_softmax_shift_invariance():
    x = rand((3, 9), seed=6)
    a = softmax_rows(T.Tensor(x)).data
    b = softmax_rows(T.Tensor(x + 1e4)).data
    # adding 1e4 rounds away low bits of x itself, so exactness is up to that
    np.testing.assert_allclose(a, b, atol=1e-12, rtol=0.0)
    # a shift that keeps every entry exactly representable is bit-identical
    b2 = softmax_rows(T.Tensor(x - x.max(axis=-1, keepdims=True))).data
    np.testing.assert_array_equal(a, b2)


def test_softmax_empty_row_error():
    with pytest.raises(ShapeError):
        softmax_rows(T.Tensor(np.zeros((2, 0))))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_sum_to_one(v, seed):
    x = np.random.default_rng(seed).normal(0, 5, size=(4, v))
    out = softmax_rows(T.Tensor(x)).data
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9, rtol=0.0)


def test_softmax_grad():
    x = T.Tensor(rand((3, 6), seed=7), requires_grad=True)
    w = T.Tensor(rand((3, 6), seed=8))

    def f():
        return tsum(T.mul(softmax_rows(x), w))

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
        return tsum(T.mul(T.rms_norm(x, w, eps=1e-5), c))

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
        return tsum(T.mul(T.layer_norm(x, w, b, eps=1e-5), c))

    assert T.grad_check(f, [("x", x), ("w", w), ("b", b)]) < 1e-6


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def test_activation_zero():
    assert T.gelu(T.Tensor([0.0])).data[0] == 0.0


@pytest.mark.parametrize("kind", ["gelu"])
def test_activation_grad(kind):
    x = T.Tensor(rand((4, 4), seed=23), requires_grad=True)
    c = T.Tensor(rand((4, 4), seed=24))

    def f():
        return tsum(T.mul(getattr(T, kind)(x), c))

    assert T.grad_check(f, [("x", x)]) < 1e-6


def test_swiglu_zero():
    # an identity down projection reads the SwiGLU output h itself
    assert T.swiglu(T.Tensor([[0.0, 2.5]]), np.eye(1)).data[0, 0] == 0.0
    assert T.swiglu(T.Tensor([[2.5, 0.0]]), np.eye(1)).data[0, 0] == 0.0


def test_swiglu_closed_form():
    out = T.swiglu(T.Tensor([[1.0, 1.0]]), np.eye(1))
    np.testing.assert_allclose(out.data[0, 0], 1.0 / (1.0 + math.exp(-1.0)), rtol=1e-12)
    np.testing.assert_allclose(out.data[0, 0], 0.731059, atol=1e-6)


def test_swiglu_saturates_without_overflow():
    gate = np.array([-1000.0, 1000.0], dtype=np.float32)
    out = T.swiglu(T.Tensor([np.concatenate([gate, np.ones(2, dtype=np.float32)])]),
                   np.eye(2, dtype=np.float32))
    np.testing.assert_array_equal(out.data, [[0.0, 1000.0]])


def test_swiglu_grad():
    # gate | up side by side in the last extent, as the fused projection lays
    # them out, times the [f x m] down projection
    x = T.Tensor(np.concatenate([rand((4, 4), seed=23), rand((4, 4), seed=25)], axis=-1),
                 requires_grad=True)
    w = T.Tensor(rand((4, 3), seed=26), requires_grad=True)
    c = T.Tensor(rand((4, 3), seed=24))

    def f():
        return tsum(T.mul(T.swiglu(x, w), c))

    assert T.grad_check(f, [("x", x), ("w", w)]) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_recomputing_swiglu_is_the_saved_activation_oracle_bit_for_bit(dtype):
    # the backward recomputes the sigmoid and the SwiGLU output by the
    # forward's ops, so output and both gradients keep the bits of a SwiGLU
    # node that saved them followed by a matmul, also where exp(-gate)
    # overflows and the sigmoid is 0; over packed [N x 2f] rows and a
    # [B x s x 2f] stack, whose weight gradient sums over B
    for shape in ((5, 12), (2, 5, 12)):
        gate = rand((*shape[:-1], 6), seed=44, scale=3.0)
        gate.reshape(-1, 6)[0, :3] = [-1000.0, 1000.0, -90.0]
        x_data = np.concatenate([gate, rand((*shape[:-1], 6), seed=45)], axis=-1).astype(dtype)
        w_data = rand((6, 7), seed=47).astype(dtype)
        g = rand((*shape[:-1], 7), seed=46).astype(dtype)
        results = []
        for fused in (True, False):
            x = T.Tensor(x_data.copy(), requires_grad=True)
            w = T.Tensor(w_data.copy(), requires_grad=True)
            out = T.swiglu(x, w) if fused else T.matmul(saved_swiglu(x), w)
            out.backward(g)
            results.append((out.data, x.grad, w.grad))
        for ours, oracle in zip(*results):
            assert ours.dtype == dtype
            assert ours.shape == oracle.shape
            assert ours.tobytes() == oracle.tobytes()


def test_swiglu_shape_mismatch():
    with pytest.raises(ShapeError):  # odd last extent
        T.swiglu(T.Tensor(rand((2, 3))), rand((1, 2)))
    with pytest.raises(ShapeError):  # one row, not a batch of rows
        T.swiglu(T.Tensor(rand((4,))), rand((2, 2)))
    with pytest.raises(ShapeError):  # down projection of the wrong height
        T.swiglu(T.Tensor(rand((2, 4))), rand((3, 2)))
    with pytest.raises(ContractError):  # float64 rows, float32 weights
        T.swiglu(T.Tensor(rand((2, 4))), T.Tensor(rand((2, 2)).astype(np.float32)))


# ---------------------------------------------------------------------------
# fused attention
# ---------------------------------------------------------------------------


def padded_qkv(live, m=6, seed=40):
    """A padded [B x s x 3m] q | k | v leaf for the live-position mask
    ``live``, the packed [N x 3m] rows of its live positions (a tape gather,
    so gradients reach the leaf), those rows and the key bias."""
    bsz, s = live.shape
    padded = T.Tensor(np.concatenate([rand((bsz, s, m), seed=seed + i) for i in range(3)],
                                     axis=-1), requires_grad=True)
    rows = np.flatnonzero(live)
    qkv = T.take_rows(reshape(padded, (bsz * s, 3 * m)), rows)
    key_bias = np.where(live, 0.0, MASK_OFFSET)
    return padded, qkv, rows, key_bias


def attention_inputs(bsz=2, s=5, m=6, n_pad=2, seed=40):
    """``padded_qkv`` of two rows with different padding, plus its mask."""
    live = np.ones((bsz, s), dtype=bool)
    live[0, s - n_pad:] = False
    live[1, :n_pad - 1] = False
    return (*padded_qkv(live, m, seed), live)


def unfused_attention(padded, rows, key_bias, n_heads):
    """The node-per-step composition the fused op replaces, run on the padded
    q | k | v; the context rows at ``rows`` are gathered at the end."""
    bsz, s, m3 = padded.shape
    m = m3 // 3
    dh = m // n_heads

    def split_heads(j):
        t = T.slice_last(padded, j * m, (j + 1) * m)
        return transpose(reshape(t, (bsz, s, n_heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = split_heads(0), split_heads(1), split_heads(2)
    scores = T.scale(T.matmul(qh, transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    attn = softmax_rows(T.add(scores, T.Tensor(key_bias[:, None, None, :])))
    ctx = reshape(transpose(T.matmul(attn, vh), (0, 2, 1, 3)), (bsz * s, m))
    return T.take_rows(ctx, rows)


def test_attention_matches_unfused_composition():
    padded, qkv, rows, key_bias, live = attention_inputs()
    c = rand((len(rows), 6), seed=50)
    results = []
    for op in (lambda: T.attention(qkv, live.sum(axis=1), 3),
               lambda: unfused_attention(padded, rows, key_bias, 3)):
        padded.grad = None
        out = op()
        tsum(T.mul(out, T.Tensor(c))).backward()
        results.append((out.data, padded.grad.copy()))
    for fused, ref in zip(*results):
        np.testing.assert_allclose(fused, ref, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("lengths", [[5, 1, 7, 3, 2, 6, 4], [4, 4, 4], [3, 0, 5, 3]],
                         ids=["every-length-distinct", "one-group", "zero-length-row"])
def test_grouped_attention_matches_padded_oracle(lengths):
    # the sequences of each length run as one dense group; the oracle runs
    # every row padded to the longest, with the padding keys masked
    lengths = np.array(lengths)
    live = np.arange(lengths.max()) < lengths[:, None]
    padded, qkv, rows, key_bias = padded_qkv(live, m=8, seed=70)
    c = rand((len(rows), 8), seed=71)
    results = []
    for op in (lambda: T.attention(qkv, lengths, 2),
               lambda: unfused_attention(padded, rows, key_bias, 2)):
        padded.grad = None
        out = op()
        tsum(T.mul(out, T.Tensor(c))).backward()
        assert (padded.grad[~live] == 0.0).all()
        results.append((out.data, padded.grad[live]))  # the outputs and the qkv gradients
    for grouped, ref in zip(*results):
        np.testing.assert_allclose(grouped, ref, rtol=1e-12)


def test_attention_grad():
    _, qkv, rows, _, live = attention_inputs()
    qkv = T.Tensor(qkv.data, requires_grad=True)
    c = T.Tensor(rand((len(rows), 6), seed=51))

    def f():
        return tsum(T.mul(T.attention(qkv, live.sum(axis=1), 3), c))

    assert T.grad_check(f, [("qkv", qkv)]) < 1e-6


def test_attention_single_head_oracle():
    # one head, one sequence of the two packed rows (positions 0 and 2 of a
    # padded layout whose middle position is not packed):
    # softmax(q k^T / sqrt(m)) v, row by row
    q, k, v = rand((1, 3, 4), seed=53), rand((1, 3, 4), seed=54), rand((1, 3, 4), seed=55)
    rows = np.array([0, 2])
    qkv = np.concatenate([q, k, v], axis=-1)[0, rows]
    out = T.attention(T.Tensor(qkv), np.array([2]), 1).data
    for r, i in enumerate(rows):
        w = np.array([math.exp(q[0, i] @ k[0, j] / 2.0) if j != 1 else 0.0 for j in range(3)])
        np.testing.assert_allclose(out[r], (w / w.sum()) @ v[0], rtol=1e-12)


def test_attention_shape_errors():
    _, qkv, rows, _, live = attention_inputs()
    lengths = live.sum(axis=1)
    with pytest.raises(ShapeError):
        T.attention(qkv, lengths, 4)
    with pytest.raises(ShapeError):
        T.attention(T.Tensor(rand((len(rows), 17))), lengths, 3)
    with pytest.raises(ShapeError):  # lengths that do not sum to the row count
        T.attention(qkv, lengths[:-1], 3)
    with pytest.raises(ShapeError):  # a negative length
        T.attention(qkv, np.array([len(rows) + 1, -1]), 3)
    with pytest.raises(ShapeError):  # lengths that are not integers
        T.attention(qkv, lengths.astype(np.float64), 3)
    with pytest.raises(ShapeError):  # lengths that are not one dimension
        T.attention(qkv, lengths[None, :], 3)


# ---------------------------------------------------------------------------
# masked cross entropy
# ---------------------------------------------------------------------------


def test_masked_ce_uniform_logits():
    v = 11
    logits = T.Tensor(np.zeros((4, v)))
    targets = np.array([1, 5, 2, 9])
    mask = np.array([True, True, False, True])
    out = T.masked_cross_entropy(T.Tensor(logits.data[mask]), targets[mask])
    np.testing.assert_allclose(float(out), math.log(v), rtol=1e-12)


def test_masked_ce_margin_limit():
    v, margin = 5, 50.0
    logits = np.zeros((2, v))
    targets = np.array([3, 1])
    logits[0, 3] = margin
    logits[1, 1] = margin
    out = T.masked_cross_entropy(T.Tensor(logits), targets)
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
    out = T.masked_cross_entropy(T.Tensor(logits[mask]), targets[mask])
    np.testing.assert_allclose(float(out), expected, rtol=1e-12)


def test_masked_ce_empty_mask_error():
    # no masked positions is zero rows
    with pytest.raises(ContractError):
        T.masked_cross_entropy(T.Tensor(np.zeros((0, 3))), np.zeros(0, dtype=np.int64))


def test_masked_ce_rejects_bad_targets():
    with pytest.raises(ShapeError):
        T.masked_cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))
    with pytest.raises(ContractError):
        T.masked_cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ContractError):
        T.masked_cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([-100, 1]))


def test_masked_ce_grad():
    logits = T.Tensor(rand((5, 7), seed=25), requires_grad=True)
    targets = np.array([0, 6, 3, 2, 1])
    mask = np.array([True, False, True, True, False])

    def f():
        return T.masked_cross_entropy(T.take_rows(logits, np.flatnonzero(mask)), targets[mask])

    assert T.grad_check(f, [("logits", logits)]) < 1e-6


def test_masked_ce_matches_float32_composition():
    # the old per-cell composition in float32: log-sum-exp minus the target
    # logit, weighted by 1/n and summed; value and gradient keep its bits
    x = rand((9, 13), seed=26, scale=4.0).astype(np.float32)
    targets = np.random.default_rng(27).integers(0, 13, size=9)
    logits = T.Tensor(x, requires_grad=True)
    out = T.masked_cross_entropy(logits, targets)
    out.backward(np.asarray(np.float32(0.75)))
    m = x.max(axis=-1, keepdims=True)
    z = np.exp(x - m).sum(axis=-1, keepdims=True)
    w = np.full(9, np.float32(1) / np.float32(9))
    per_row = (m + np.log(z))[:, 0] + x[np.arange(9), targets] * np.float32(-1.0)
    assert out.data == (per_row * w).sum()
    gw = np.float32(0.75) * w
    soft = gw[:, None] * (np.exp(x - m) / z)
    onehot = np.zeros_like(x)
    onehot[np.arange(9), targets] = -gw
    np.testing.assert_array_equal(logits.grad, soft + onehot)


# ---------------------------------------------------------------------------
# distillation KL
# ---------------------------------------------------------------------------


def kl_composition(z, c):
    """The distillation KL as six float64 array steps (the oracle):
    log-softmax, add -log q, softmax, multiply, sum, scale by 1/n; plus its
    gradient by the chain rule through each step."""
    m = z.max(axis=-1, keepdims=True)
    log_p = z - (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))
    gap = log_p + c
    e = np.exp(z - m)
    p = e / e.sum(axis=-1, keepdims=True)
    n = z.shape[0]
    value = (p * gap).sum() * (1.0 / n)
    g_terms = np.full(z.shape, 1.0 / n)
    g_p, g_gap = g_terms * gap, g_terms * p
    g_z = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True))
    g_z += g_gap - np.exp(log_p) * g_gap.sum(axis=-1, keepdims=True)
    return value, g_z


def floored_teacher(seed, shape):
    """-log q of a peaked teacher, with the KL floor clipping its tail."""
    t = rand(shape, seed=seed, scale=12.0)
    m = t.max(axis=-1, keepdims=True)
    log_q = t - (m + np.log(np.exp(t - m).sum(axis=-1, keepdims=True)))
    assert (log_q < math.log(1e-12)).any(), "the floor should be active"
    return -np.maximum(log_q, math.log(1e-12))


def test_kl_rows_matches_composition_oracle():
    z = T.Tensor(rand((6, 11), seed=40, scale=2.0), requires_grad=True)
    c = floored_teacher(41, (6, 11))
    value, grad = kl_composition(z.data, c)
    out = T.kl_rows(z, c)
    out.backward()
    np.testing.assert_allclose(float(out), value, rtol=1e-12)
    np.testing.assert_allclose(z.grad, grad, rtol=1e-9, atol=1e-15)


def test_kl_rows_float32_value_keeps_composition_bits():
    z = rand((7, 9), seed=45, scale=3.0).astype(np.float32)
    c = floored_teacher(46, (7, 9)).astype(np.float32)
    value, _ = kl_composition(z, c)
    assert T.kl_rows(T.Tensor(z), c).data == value


def test_kl_rows_grad():
    z = T.Tensor(rand((4, 7), seed=43, scale=2.0), requires_grad=True)
    c = floored_teacher(44, (4, 7))

    def f():
        return T.kl_rows(z, c)

    assert T.grad_check(f, [("z", z)]) < 1e-6


def test_kl_rows_shape_errors():
    with pytest.raises(ShapeError):
        T.kl_rows(T.Tensor(np.zeros((2, 3))), np.zeros((2, 4)))
    with pytest.raises(ContractError):
        T.kl_rows(T.Tensor(np.zeros((0, 3))), np.zeros((0, 3)))


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
        return tsum(T.mul(T.l2_normalize_rows(x), c))

    assert T.grad_check(f, [("x", x)]) < 1e-6


# ---------------------------------------------------------------------------
# misc ops and infrastructure
# ---------------------------------------------------------------------------


def test_slice_and_gather_grads():
    x = T.Tensor(rand((4, 6), seed=32), requires_grad=True)
    idx = np.array([2, 0, 3, 2])

    def f():
        sliced = T.slice_last(x, 0, 4)
        picked = T.take_rows(x, idx)
        return T.add(tsum(T.mul(sliced, sliced)), tsum(T.mul(picked, picked)))

    assert T.grad_check(f, [("x", x)]) < 1e-6


def test_take_rows_accumulates_duplicates():
    table = T.Tensor(rand((5, 3), seed=33), requires_grad=True)
    idx = np.array([1, 1, 4])
    out = tsum(T.take_rows(table, idx))
    out.backward()
    expected = np.zeros((5, 3))
    expected[1] = 2.0
    expected[4] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_take_rows_backward_is_add_at_bit_for_bit(dtype):
    rng = np.random.default_rng(35)
    layouts = {
        # every id repeats, one of them in every row, and the ids come unsorted
        "repeated ids": rng.integers(0, 12, size=(6, 20)),
        # the MLM head's cut of a weight segment, rows 8..19
        "an arange segment": np.arange(8, 20),
        # the masked rows of a packed tap: distinct and increasing
        "masked rows": np.flatnonzero(rng.random(30) < 0.3),
    }
    layouts["repeated ids"][:, 0] = 29
    for name, idx in layouts.items():
        table = T.Tensor(rand((30, 8), seed=36).astype(dtype), requires_grad=True)
        out = T.take_rows(table, idx)
        assert out.data.tobytes() == table.data[idx].tobytes(), name
        g = rand(idx.shape + (8,), seed=37).astype(dtype)
        out.backward(g)
        assert table.grad.dtype == dtype
        assert table.grad.tobytes() == add_at_rows(table.shape, idx, g).tobytes(), name


def add_at_sum(x, targets, weights, n_out):
    """``T._scatter_sum`` as ``np.add.at`` into zeros computes it."""
    out = np.zeros((n_out, x.shape[1]), dtype=x.dtype)
    np.add.at(out, targets, x if weights is None else x * weights[:, None])
    return out


def spread_rows(rng, n, m, dtype):
    """[n x m] normal rows scaled by powers of ten, so a sum's order shows in
    its bits."""
    return (rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@given(st.integers(0, 40), st.integers(1, 4), st.integers(1, 8), st.booleans(),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_scatter_sum_is_add_at_bit_for_bit(dtype, n, m, n_out, weighted, seed):
    # each target's rows are added one at a time in source order, from 0,
    # at m = 1 too, where a sum along the last axis would be pairwise
    rng = np.random.default_rng(seed)
    x = spread_rows(rng, n, m, dtype)
    targets = rng.integers(0, n_out, size=n)
    weights = rng.uniform(0.1, 3.0, size=n).astype(dtype) if weighted else None
    got = T._scatter_sum(x, targets, weights, n_out)
    assert got.dtype == dtype
    assert got.tobytes() == add_at_sum(x, targets, weights, n_out).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_sum_edge_layouts_are_add_at_bit_for_bit(dtype):
    rng = np.random.default_rng(41)
    x = spread_rows(rng, 12, 3, dtype)
    layouts = {"one row per target": (rng.permutation(12), 12),
               "every row on one target": (np.full(12, 2), 4),
               "a target with no rows": (np.repeat([0, 2, 3], 4), 4)}
    for name, (targets, n_out) in layouts.items():
        for weights in (None, rng.uniform(0.1, 3.0, size=12).astype(dtype)):
            got = T._scatter_sum(x, targets, weights, n_out)
            assert got.tobytes() == add_at_sum(x, targets, weights, n_out).tobytes(), name
    # rows of -0.0: a target whose rows are all -0.0 sums to +0.0 from 0
    for m in (1, 2):
        zeros = np.full((5, m), -0.0, dtype=dtype)
        zeros[4] = 1.5
        targets = np.array([0, 0, 1, 2, 2])
        got = T._scatter_sum(zeros, targets, None, 3)
        assert got.tobytes() == add_at_sum(zeros, targets, None, 3).tobytes()
        assert not np.signbit(got).any()


def test_take_rows_rejects_ids_outside_the_table():
    table = T.Tensor(rand((5, 3), seed=39), requires_grad=True)
    for idx in ([0, -1], [[2, 5]]):
        with pytest.raises(ShapeError, match=r"\[0, 5\)"):
            T.take_rows(table, np.array(idx))
    # float ids, and a boolean mask, which numpy would read as a row selection
    # the backward cannot scatter
    for idx in (np.array([0.0, 2.0]), np.array([True, False, True, False, True])):
        with pytest.raises(ShapeError, match="integers"):
            T.take_rows(table, idx)


def test_nonfinite_rejected():
    with pytest.raises(NumericsError):
        T.Tensor([np.inf, 1.0])
    with pytest.raises(NumericsError), np.errstate(over="ignore"):
        T.scale(T.Tensor([1e300]), 1e300)  # an op whose output overflows


def test_no_grad_skips_recording():
    x = T.Tensor(rand((2, 2), seed=34), requires_grad=True)
    with T.no_grad():
        y = T.matmul(x, x)
    assert y._node is None and not y.requires_grad


def test_grad_accumulates_across_backwards():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    tsum(x).backward()
    tsum(x).backward()
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))
    T.zero_grads([("x", x)])
    assert x.grad is None


def test_a_graph_is_walked_once():
    # backward releases each node it passes: a second walk over the same
    # graph, or a new graph through one of its nodes, is an error, not zeros
    x = T.Tensor(rand((2, 3), seed=38), requires_grad=True)
    y = T.mul(x, x)
    loss = tsum(y)
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(ContractError, match="a graph is walked once"):
        loss.backward()
    with pytest.raises(ContractError, match="a graph is walked once"):
        tsum(T.scale(y, 2.0)).backward()
    np.testing.assert_array_equal(x.grad, first)
    assert y._node.parents == () and loss._node.parents == ()


def test_an_output_no_backward_reads_dies_with_its_tensor():
    # add's backward reads only shapes, so the tape does not keep the matmul
    # output alive once the caller drops its Tensor; the gradients keep their bits
    g = rand((4, 5), seed=72)
    results = []
    for keep in (True, False):
        x, w, b = (T.Tensor(rand(shape, seed=70), requires_grad=True)
                   for shape in ((4, 3), (3, 5), (5,)))
        y = T.matmul(x, w)
        alive = weakref.ref(y.data)
        z = T.add(y, b)
        if not keep:
            del y
        assert (alive() is not None) == keep
        z.backward(g)
        results.append([x.grad, w.grad, b.grad])
    for kept, dropped in zip(*results):
        assert kept.tobytes() == dropped.tobytes()


def test_a_mis_shaped_seed_is_a_shape_error_before_any_release():
    x = T.Tensor(rand((4, 3), seed=73), requires_grad=True)
    y = T.matmul(x, T.Tensor(rand((3, 2), seed=74)))
    with pytest.raises(ShapeError, match=r"\(5, 7\)"):
        y.backward(np.ones((5, 7)))
    assert x.grad is None
    y.backward(np.ones((4, 2)))  # the graph was not released: it is walked now
    np.testing.assert_array_equal(x.grad, np.ones((4, 2)) @ rand((3, 2), seed=74).T)


def mixed_leaf_loss(x, w):
    """A loss in which the leaf ``w`` gets matmul weight products (deferred)
    and take_rows gradients (arrays), interleaved in walk order."""
    h = T.matmul(x, w)
    h = T.add(h, T.take_rows(w, np.array([0, 1, 2, 3, 0, 1])))
    h = T.add(T.matmul(h, w), T.matmul(T.scale(h, 0.5), w))
    return T.add(T.matmul(h, w), T.take_rows(w, np.array([3, 3, 2, 1, 0, 0])))


def test_the_tape_worker_moves_no_bit(monkeypatch, tape_worker):
    # each leaf's contributions are summed in arrival order whether its
    # weight products ran on the worker or in the walk
    x = T.Tensor(rand((6, 4), seed=75).astype(np.float32))
    grads = []
    for worker in (None, tape_worker):
        monkeypatch.setattr(T, "_worker", worker)
        w = T.Tensor(rand((4, 4), seed=76).astype(np.float32), requires_grad=True)
        mixed_leaf_loss(x, w).backward(rand((6, 4), seed=77).astype(np.float32))
        grads.append(w.grad.tobytes())
    # the 4 weight products, and the 2 take_rows arrays, which reach w after
    # its first product and so join it on the worker, in arrival order
    assert len(tape_worker.futures) == 6
    assert grads[0] == grads[1]


def test_a_leaf_holds_one_running_sum_while_no_product_is_pending(monkeypatch, tape_worker):
    # array contributions are folded as they arrive, so through the walk a
    # leaf that is handed no deferred product holds one array, worker or not
    for worker in (None, tape_worker):
        monkeypatch.setattr(T, "_worker", worker)
        w = T.Tensor(np.zeros(3), requires_grad=True)
        returned, alive = [], []

        def backward(g):
            alive.append(sum(r() is not None for r in returned))
            pg = np.full(3, float(len(returned) + 1))
            returned.append(weakref.ref(pg))
            return pg, g

        h = T.Tensor(np.zeros(3), requires_grad=True)
        for _ in range(5):
            h = T._from_op(h.data + w.data, "step", (w, h), backward)
        h.backward()
        assert len(alive) == 5 and max(alive) <= 1, alive
        np.testing.assert_array_equal(w.grad, np.full(3, 15.0))


def test_a_leaf_sums_its_contributions_from_zeros_in_arrival_order(monkeypatch, tape_worker):
    # a leaf whose grad is None ends at 0 + (g0 + g1 + ...), summed in arrival
    # order, worker or not, for arrays and deferred products in any mix;
    # -0.0, subnormals and 1e-30..1e30 magnitudes included. Adding to 0 turns
    # -0.0 into +0.0, so a leaf fed only -0.0 ends at +0.0
    rng = np.random.default_rng(83)
    specials = np.array([-0.0, 0.0, 1e-45, -1e-45, 1e-40, -1e-38, 1e-30, -1e30])
    mags = 10.0 ** rng.uniform(-30, 30, 56) * rng.choice([-1.0, 1.0], 56)
    values = np.concatenate([specials, mags]).astype(np.float32)
    deferred = [True, False, True, True, False, False, True, False, False]  # walked last to first
    for worker in (None, tape_worker):
        monkeypatch.setattr(T, "_worker", worker)
        w = T.Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
        z = T.Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
        h = T.Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
        arrived = []

        def backward(g, defer):
            pw, pz = rng.permutation(values), np.full(64, -0.0, dtype=np.float32)
            arrived.append(pw)
            return ((lambda: pw), (lambda: pz), g) if defer else (pw, pz, g)

        for defer in deferred:
            h = T._from_op(h.data.copy(), "step", (w, z, h),
                           lambda g, defer=defer: backward(g, defer))
        h.backward()
        total = arrived[0]
        for pw in arrived[1:]:
            total = total + pw
        assert w.grad.tobytes() == (np.zeros(64, dtype=np.float32) + total).tobytes()
        assert z.grad.tobytes() == np.zeros(64, dtype=np.float32).tobytes()
    # two arrays arrive in the walk before each leaf's first product
    assert len(tape_worker.futures) == 2 * (len(deferred) - 2)


def slow_weight_product(monkeypatch, slow_shape, failing_shape=None):
    """Make the deferred product of a weight of ``slow_shape`` take 0.2 s, and
    that of ``failing_shape`` raise."""
    real = T._unbroadcast

    def product(g, shape):
        if shape == failing_shape:
            raise NumericsError("a failing product")
        if shape == slow_shape:
            time.sleep(0.2)
        return real(g, shape)

    monkeypatch.setattr(T, "_unbroadcast", product)


def test_a_failing_deferred_product_surfaces_after_every_product_is_done(
        monkeypatch, tape_worker):
    monkeypatch.setattr(T, "_worker", tape_worker)
    x = T.Tensor(rand((3, 4), seed=78))
    w1 = T.Tensor(rand((4, 5), seed=79), requires_grad=True)
    w2 = T.Tensor(rand((5, 2), seed=80), requires_grad=True)
    loss = T.matmul(T.matmul(x, w1), w2)
    # the walk hands off w2's product first, then w1's
    slow_weight_product(monkeypatch, slow_shape=(4, 5), failing_shape=(5, 2))
    with pytest.raises(NumericsError, match="a failing product"):
        loss.backward()
    assert len(tape_worker.futures) == 2
    assert all(f.done() for f in tape_worker.futures)


def test_an_error_in_the_walk_surfaces_after_every_product_is_done(monkeypatch, tape_worker):
    monkeypatch.setattr(T, "_worker", tape_worker)
    x = T.Tensor(rand((3, 4), seed=81), requires_grad=True)
    w = T.Tensor(rand((4, 5), seed=82), requires_grad=True)

    def failing(g):
        raise NumericsError("a failing node")

    h = T._from_op(x.data * 2.0, "failing", (x,), failing)
    loss = T.matmul(h, w)
    slow_weight_product(monkeypatch, slow_shape=(4, 5))
    with pytest.raises(NumericsError, match="a failing node"):
        loss.backward()
    assert len(tape_worker.futures) == 1 and tape_worker.futures[0].done()


def test_grad_check_quadratic_exact():
    w = T.Tensor(np.linspace(0.5, 2.0, 10), requires_grad=True)

    def f():
        return tsum(T.mul(w, w))

    err = T.grad_check(f, [("w", w)], h=1e-4, floor=1e-12)
    assert err < 1e-9
    # analytic gradient is exactly 2w
    T.zero_grads([("w", w)])
    loss = f()
    loss.backward()
    np.testing.assert_allclose(w.grad, 2.0 * w.data, rtol=1e-12)


# Public functions of m3enc.tensor that nothing in src/ calls, on purpose.
UNCALLED_BY_DESIGN = {
    "grad_check",  # the finite-difference verification API
}


def tensor_calls_in_src() -> set[str]:
    """Names of m3enc.tensor functions called anywhere in the package, not
    counting calls from inside a function's own definition."""
    called = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1]
        aliases = {a.asname or a.name for n in imports if n.module is None
                   for a in n.names if a.name == "tensor"}
        local = {a.asname or a.name: a.name for n in imports if n.module == "tensor"
                 for a in n.names}
        if path.stem == "tensor":
            local = {name: name for name in vars(T)}

        def visit(node, enclosing):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                enclosing = enclosing | {node.name}
            if isinstance(node, ast.Call):
                f = node.func
                name = None
                if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                        and f.value.id in aliases:
                    name = f.attr
                elif isinstance(f, ast.Name):
                    name = local.get(f.id)
                if name is not None and name not in enclosing:
                    called.add(name)
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing)

        visit(tree, frozenset())
    return called


def test_every_tape_op_has_a_caller_in_src():
    public = {name for name, f in inspect.getmembers(T, inspect.isfunction)
              if f.__module__ == T.__name__ and not name.startswith("_")}
    called = tensor_calls_in_src()
    assert UNCALLED_BY_DESIGN <= public
    assert not UNCALLED_BY_DESIGN & called, "allowlisted ops now have callers"
    assert public - called - UNCALLED_BY_DESIGN == set(), "tape ops with no caller in src/"
