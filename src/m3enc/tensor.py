"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed tape autograd: each operation records its parents and a
backward closure; ``Tensor.backward()`` walks the graph in reverse
topological order and accumulates gradients on leaf tensors created with
``requires_grad=True``. 64-bit element type is used for verification
(finite-difference checks), 32-bit for training runs.

Every public operation validates that its output is finite; NaN/Inf is an
error state, not a value.

The encoder's hot paths are single nodes with hand-written backward passes:
``matmul`` of stacked rows by a 2-D weight runs one flattened GEMM each way,
``attention`` covers head split, scaled and masked scores, softmax, weighted
sum and head merge, and ``swiglu`` computes silu(gate) * up.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError, NumericsError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)

# Additive score offset for masked attention keys: finite (so the finiteness
# invariant holds on intermediate score tensors) yet large enough that
# exp(x - max) underflows to exactly 0.0 in both float32 and float64.
MASK_OFFSET = -1.0e30

_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording inside its block."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by '{op}'")


class Tensor:
    """A contiguous real-valued array plus optional gradient bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        arr = np.ascontiguousarray(arr)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        """A view of the same values cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(as_tensor(other, self.dtype), -1.0))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    # -- backward -----------------------------------------------------------

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of this tensor into ``grad`` of every
        reachable leaf with ``requires_grad=True``."""
        if seed is None:
            seed = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.asarray(seed, dtype=self.dtype)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward_fn is None:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
                continue
            parent_grads = node._backward_fn(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _from_op(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
             backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over axes that were broadcast so it matches ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Arithmetic primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b, dtype=a.dtype)
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _from_op(out, "add", (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _from_op(out, "mul", (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    a = as_tensor(a)
    out = a.data * a.dtype.type(s)

    def bwd(g):
        return (g * a.dtype.type(s),)

    return _from_op(out, "scale", (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; stacked leading dimensions broadcast as in numpy."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul requires tensors with at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    if b.ndim == 2 and a.ndim >= 3:
        # stacked rows times one weight: a single GEMM over the flattened rows
        # each way, instead of one product per leading index summed afterwards
        m, n = b.shape
        a2 = a.data.reshape(-1, m)
        out = (a2 @ b.data).reshape(*a.shape[:-1], n)

        def bwd_flat(g):
            g2 = g.reshape(-1, n)
            return (g2 @ b.data.T).reshape(a.data.shape), a2.T @ g2

        return _from_op(out, "matmul", (a, b), bwd_flat)
    out = a.data @ b.data

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _from_op(out, "matmul", (a, b), bwd)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _from_op(np.asarray(out), "sum", (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.data.size
    elif isinstance(axis, int):
        n = a.data.shape[axis]
    else:
        n = int(np.prod([a.data.shape[ax] for ax in axis]))
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return _from_op(out, "reshape", (a,), bwd)


def transpose(a: Tensor, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inv),)

    return _from_op(out, "transpose", (a,), bwd)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous range of the last dimension, ``a[..., start:stop]``."""
    a = as_tensor(a)
    if not (0 <= start <= stop <= a.shape[-1]):
        raise ShapeError(f"slice [{start}:{stop}] out of range for extent {a.shape[-1]}")
    out = np.ascontiguousarray(a.data[..., start:stop])

    def bwd(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        return (full,)

    return _from_op(out, "slice_last", (a,), bwd)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous range of the first dimension, ``a[start:stop]``."""
    a = as_tensor(a)
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice [{start}:{stop}] out of range for extent {a.shape[0]}")
    out = np.ascontiguousarray(a.data[start:stop])

    def bwd(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _from_op(out, "slice_rows", (a,), bwd)


def take_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows along the first axis (embedding-style lookup)."""
    a = as_tensor(a)
    idx = np.asarray(indices)
    out = a.data[idx]

    def bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx.reshape(-1), g.reshape(-1, *a.data.shape[1:]))
        return (full,)

    return _from_op(np.ascontiguousarray(out), "take_rows", (a,), bwd)


def gather_last(a: Tensor, indices: np.ndarray) -> Tensor:
    """Pick one element per row of the last axis: out[...] = a[..., idx[...]]."""
    a = as_tensor(a)
    idx = np.asarray(indices)
    if idx.shape != a.shape[:-1]:
        raise ShapeError(f"gather index shape {idx.shape} != row shape {a.shape[:-1]}")
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        return (full,)

    return _from_op(np.ascontiguousarray(out), "gather_last", (a,), bwd)


def tlog(a: Tensor) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)

    def bwd(g):
        return (g / a.data,)

    return _from_op(out, "log", (a,), bwd)


# ---------------------------------------------------------------------------
# Fused neural-network operations
# ---------------------------------------------------------------------------


def softmax_rows(x: Tensor) -> Tensor:
    """Row-stochastic softmax over the last dimension, with max-subtraction."""
    x = as_tensor(x)
    if x.shape[-1] < 1:
        raise ShapeError("softmax_rows requires a non-empty last extent")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _from_op(out, "softmax_rows", (x,), bwd)


def logsumexp_rows(x: Tensor) -> Tensor:
    """log(sum(exp(x))) over the last dimension; stable via max-subtraction."""
    x = as_tensor(x)
    if x.shape[-1] < 1:
        raise ShapeError("logsumexp_rows requires a non-empty last extent")
    m = x.data.max(axis=-1, keepdims=True)
    z = np.exp(x.data - m).sum(axis=-1, keepdims=True)
    out = (m + np.log(z))[..., 0]

    def bwd(g):
        soft = np.exp(x.data - m) / z
        return (g[..., None] * soft,)

    return _from_op(np.ascontiguousarray(out), "logsumexp_rows", (x,), bwd)


def log_softmax_rows(x: Tensor) -> Tensor:
    """Log-probabilities via log-sum-exp (never log(softmax))."""
    x = as_tensor(x)
    if x.shape[-1] < 1:
        raise ShapeError("log_softmax_rows requires a non-empty last extent")
    m = x.data.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x.data - m).sum(axis=-1, keepdims=True))
    out = x.data - lse

    def bwd(g):
        soft = np.exp(out)
        return (g - soft * g.sum(axis=-1, keepdims=True),)

    return _from_op(out, "log_softmax_rows", (x,), bwd)


def rms_norm(x: Tensor, weight: Tensor, eps: float) -> Tensor:
    """y_i = weight_i * x_i / sqrt(mean(x^2) + eps), over the last dimension."""
    x, weight = as_tensor(x), as_tensor(weight)
    if eps <= 0:
        raise ContractError("rms_norm requires eps > 0")
    if weight.ndim != 1 or weight.shape[0] != x.shape[-1]:
        raise ShapeError(f"rms_norm weight length {weight.shape} != last extent {x.shape[-1]}")
    n = x.shape[-1]
    inv = 1.0 / np.sqrt((x.data * x.data).mean(axis=-1, keepdims=True) + x.dtype.type(eps))
    out = weight.data * x.data * inv

    def bwd(g):
        gw_x = g * weight.data
        dot = (gw_x * x.data).sum(axis=-1, keepdims=True)
        gx = inv * gw_x - (inv ** 3 / n) * x.data * dot
        gw = (g * x.data * inv).reshape(-1, n).sum(axis=0)
        return gx, gw

    return _from_op(out, "rms_norm", (x, weight), bwd)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Mean-centered, variance-normalized, affine-transformed rows."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if eps <= 0:
        raise ContractError("layer_norm requires eps > 0")
    n = x.shape[-1]
    if weight.shape != (n,) or bias.shape != (n,):
        raise ShapeError("layer_norm weight/bias length must match the last extent")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = xc * inv
    out = weight.data * xhat + bias.data

    def bwd(g):
        dxhat = g * weight.data
        gx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        gw = (g * xhat).reshape(-1, n).sum(axis=0)
        gb = g.reshape(-1, n).sum(axis=0)
        return gx, gw, gb

    return _from_op(out, "layer_norm", (x, weight, bias), bwd)


def activation(x: Tensor, kind: str) -> Tensor:
    """Elementwise nonlinearity: 'gelu' (exact erf form)."""
    x = as_tensor(x)
    if kind != "gelu":
        raise ConfigError(f"unknown activation kind: {kind!r}")
    phi = 0.5 * (1.0 + erf(x.data * x.dtype.type(1.0 / math.sqrt(2.0))).astype(x.data.dtype))
    out = x.data * phi

    def bwd(g):
        pdf = np.exp(-0.5 * x.data * x.data) * x.dtype.type(1.0 / math.sqrt(2.0 * math.pi))
        return (g * (phi + x.data * pdf),)

    return _from_op(out, "gelu", (x,), bwd)


def swiglu(gate: Tensor, up: Tensor) -> Tensor:
    """The SwiGLU product silu(gate) * up, elementwise, as one node."""
    gate, up = as_tensor(gate), as_tensor(up)
    if gate.shape != up.shape:
        raise ShapeError(f"swiglu shape mismatch: {gate.shape} vs {up.shape}")
    one = gate.dtype.type(1.0)
    with np.errstate(over="ignore"):  # exp(-x) -> inf gives sigmoid 0, as it should
        sig = np.exp(-gate.data)
    sig += one
    np.reciprocal(sig, out=sig)
    act = gate.data * sig
    out = act * up.data

    def bwd(g):
        dsilu = gate.data * (one - sig)
        dsilu += one
        dsilu *= sig
        dsilu *= up.data
        dsilu *= g
        return dsilu, g * act

    return _from_op(out, "swiglu", (gate, up), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, key_bias: np.ndarray, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q``, ``k``, ``v`` are [B x s x m] projections whose last dimension holds
    ``n_heads`` consecutive heads; ``key_bias`` is a [B x s] additive offset per
    key (0 for live keys, ``MASK_OFFSET`` for padding). Heads are split and
    merged through strided views, the softmax subtracts the row max, and the
    backward pass is written out by hand. Returns the merged [B x s x m] context.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention expects equal [B x s x m] q/k/v, got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    bsz, s, m = q.shape
    if n_heads < 1 or m % n_heads != 0:
        raise ShapeError(f"n_heads={n_heads} must divide the width {m}")
    bias = np.asarray(key_bias, dtype=q.dtype)
    if bias.shape != (bsz, s):
        raise ShapeError(f"key_bias shape {bias.shape} != {(bsz, s)}")
    dh = m // n_heads
    scale = q.dtype.type(1.0 / math.sqrt(dh))

    def heads(x):  # [B x s x m] -> [B x h x s x dh] view
        return x.reshape(bsz, s, n_heads, dh).transpose(0, 2, 1, 3)

    def merged_matmul(x, y):  # per-head x @ y, written through the head view
        buf = np.empty((bsz, s, m), dtype=q.dtype)
        np.matmul(x, y, out=heads(buf))
        return buf

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    p = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    p *= scale
    p += bias[:, None, None, :]
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merged_matmul(p, vh)

    def bwd(g):
        gh = heads(g)
        gv = merged_matmul(p.transpose(0, 1, 3, 2), gh)
        gs = np.matmul(gh, vh.transpose(0, 1, 3, 2))
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        gq = merged_matmul(gs, kh)
        gk = merged_matmul(gs.transpose(0, 1, 3, 2), qh)
        return gq, gk, gv

    return _from_op(out, "attention", (q, k, v), bwd)


def l2_normalize_rows(x: Tensor) -> Tensor:
    """Scale each row of the last dimension to unit L2 norm."""
    x = as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    if (norm == 0).any():
        raise NumericsError("l2_normalize_rows: zero-norm row")
    out = x.data / norm

    def bwd(g):
        dot = (out * g).sum(axis=-1, keepdims=True)
        return ((g - out * dot) / norm,)

    return _from_op(out, "l2_normalize_rows", (x,), bwd)


def masked_cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over masked positions only.

    ``logits`` has shape [s x V] (or any leading shape before V); ``targets``
    holds token ids and ``mask`` selects the positions that contribute.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    mask = np.asarray(mask, dtype=bool)
    if targets.shape != logits.shape[:-1] or mask.shape != logits.shape[:-1]:
        raise ShapeError("targets/mask shape must match the logit rows")
    n_masked = int(mask.sum())
    if n_masked == 0:
        raise ContractError("masked_cross_entropy: no masked positions")
    safe_targets = np.where(mask, targets, 0)
    lse = logsumexp_rows(logits)
    picked = gather_last(logits, safe_targets)
    per_pos = add(lse, scale(picked, -1.0))
    weights = mask.astype(logits.dtype) / logits.dtype.type(n_masked)
    return tsum(mul(per_pos, Tensor(weights)))


# ---------------------------------------------------------------------------
# Gradient bookkeeping and verification
# ---------------------------------------------------------------------------


class GradientRecord:
    """Accumulated gradients for a named parameter collection.

    Enforces the accumulate-then-step discipline: gradients are pulled once
    per optimizer step and zeroed exactly once afterwards.
    """

    def __init__(self, grads: dict[str, np.ndarray]):
        self.grads = grads

    @classmethod
    def collect(cls, named_params: Iterable[tuple[str, Tensor]]) -> "GradientRecord":
        grads = {}
        for name, p in named_params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name}")
            grads[name] = g
        return cls(grads)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.grads[name]

    def __iter__(self):
        return iter(self.grads.items())


def zero_grads(named_params: Iterable[tuple[str, Tensor]]) -> None:
    for _, p in named_params:
        p.grad = None


def grad_check(
    f: Callable[[], Tensor],
    params: Iterable[tuple[str, Tensor]],
    h: float = 1e-5,
    max_coords: int = 240,
    rng: np.random.Generator | None = None,
    floor: float = 1e-3,
) -> float:
    """Worst relative error of reverse-mode gradients vs central differences.

    ``f`` re-evaluates the scalar loss from the current parameter values.
    All coordinates are checked when their total count is at most
    ``max_coords``; otherwise a random subsample (spread over every tensor,
    at least 200 coordinates overall) is used. The reported error for one
    coordinate is |a - n| / (floor + max(|a|, |n|)), so the floor acts as an
    absolute tolerance for near-zero gradients.
    """
    params = list(params)
    if rng is None:
        rng = np.random.default_rng(0)
    for _, p in params:
        if p.data.dtype != np.float64:
            raise ContractError("grad_check requires 64-bit parameters")
        p.grad = None
    loss = f()
    if loss.data.size != 1:
        raise ContractError("grad_check expects a scalar loss")
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params}

    total = sum(p.data.size for _, p in params)
    budget = max(max_coords, 200)
    coords: list[tuple[str, Tensor, int]] = []
    for name, p in params:
        size = p.data.size
        if total <= budget:
            chosen = np.arange(size)
        else:
            k = max(1, int(round(budget * size / total)))
            chosen = rng.choice(size, size=min(k, size), replace=False)
        for idx in chosen:
            coords.append((name, p, int(idx)))

    worst = 0.0
    with no_grad():
        for name, p, idx in coords:
            orig = p.data.flat[idx]
            p.data.flat[idx] = orig + h
            up = float(f().data)
            p.data.flat[idx] = orig - h
            down = float(f().data)
            p.data.flat[idx] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NumericsError(f"non-finite loss while perturbing {name}[{idx}]")
            numeric = (up - down) / (2.0 * h)
            a = float(analytic[name].flat[idx])
            err = abs(a - numeric) / (floor + max(abs(a), abs(numeric)))
            if err > worst:
                worst = err
    return worst
