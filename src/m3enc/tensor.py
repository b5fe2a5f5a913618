"""Dense tensors with reverse-mode automatic differentiation.

Small numpy-backed tape autograd. The tape is nodes plus saved arrays: each
operation records a ``_Node`` that holds its inputs' nodes and a backward
closure, and the closure saves exactly the arrays its backward reads (for
``add``, ``scale``, ``slice_last`` and ``take_rows`` only shapes and dtypes).
A node holds no array of its own, so an op's output array is freed as soon
as the forward drops its ``Tensor`` and no backward reads it. A leaf
``requires_grad=True`` tensor is its own entry on the tape.
``Tensor.backward()`` walks the nodes in reverse topological order and
accumulates gradients on the leaves. The walk releases each node it passes,
so a graph is walked once: a second ``backward`` over it raises
``ContractError``. 64-bit element type is used for verification
(finite-difference checks), 32-bit for training runs. ``grad_check``, the
worst relative error of the tape's gradients against central differences,
is part of the library surface: it is how any new op or loss is verified.

Every contribution to a leaf's gradient goes through one helper,
``_accumulate``, which computes it when it is a deferred product and adds it
to the leaf's ``grad`` in place. A weight gradient ``a^T @ g`` ends at a
leaf, so nothing later in the walk reads it: ``matmul``'s backward returns it
as a deferred product. When BLAS runs on one thread (``OPENBLAS_NUM_THREADS``
1 as numpy loads, which ``--threads 1`` sets) and ``os.sched_getaffinity``
leaves a second CPU, the tape has one worker thread, decided at import. A
leaf's contribution is accumulated on the worker when it is a deferred
product or when an earlier one of the leaf's went there, and in the walk
otherwise. The worker runs its tasks first in, first out, so each leaf adds
its contributions in the order they arrived and the bits are those of one
thread (a fixed summation order; Demmel and Nguyen, ARITH 2013).
``backward`` waits for the worker once, at the end of its walk.

Every public operation validates that its output is finite; NaN/Inf is an
error state, not a value.

The encoder's hot paths are single nodes with hand-written backward passes;
its projections are plain 2-D GEMMs on packed rows: a batch's [N x m] real
rows, sequence after sequence, with no padding row. ``attention`` reads
q | k | v from one fused projection and runs each group of equal-length
sequences as one dense [b x h x L x dh] block, with no key mask and no
padding query. ``swiglu`` computes silu(gate) * up from one fused gate | up
projection and multiplies it by the down projection in the same node, so the
[N x f] SwiGLU output is never saved: the backward recomputes it (trading
one sigmoid for the memory; Chen et al., arXiv:1604.06174). The gathers are
``take_rows`` (rows by integer id, which may repeat: the embeddings, a tap's
masked rows, the MLM head's weight segments) and ``slice_last``. Each loss
term is one node too: ``masked_cross_entropy``
(backward (softmax - one_hot) / n) for an MLM cell and ``kl_rows`` for a
distillation pair.

``take_rows``' backward and the encoder's pooling share one numpy kernel,
``_scatter_sum``: each output row starts from 0 and adds its source rows one
at a time in source order, so its bits are those of ``np.add.at``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NumericsError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)

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


class _Node:
    """One op on the tape: ``parents`` holds, per input, the input's node, the
    input itself when it is a leaf that requires a gradient, or None; and
    ``backward_fn`` maps the output's gradient to one per input."""

    __slots__ = ("parents", "backward_fn")

    def __init__(self, parents: tuple, backward_fn: Callable[[np.ndarray], Sequence]):
        self.parents = parents
        self.backward_fn = backward_fn


class Tensor:
    """A contiguous real-valued array plus optional gradient bookkeeping:
    ``_node`` is the tape node of an op output that requires a gradient."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        arr = np.ascontiguousarray(arr)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

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

    def __float__(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"

    # -- backward -----------------------------------------------------------

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate gradients of this tensor into ``grad`` of every
        reachable leaf with ``requires_grad=True``. A ``seed`` must have this
        tensor's shape; it defaults to ones.

        The walk releases the graph as it goes: once a node has passed its
        gradient on, it drops its parents and backward closure, so the
        arrays saved by the forward pass are freed as soon as nothing
        upstream needs them. A graph is walked once: a second ``backward``
        through a released node raises ``ContractError``.

        A backward function may return a parent's gradient as a zero-argument
        callable, a deferred product; a node's is computed at once. Each
        contribution to a leaf goes through ``_accumulate``: on the tape's
        worker (``_worker``) when there is one and the contribution is a
        deferred product or the leaf already has one on the worker, and in
        the walk otherwise. Either way a leaf adds its contributions to
        ``grad`` one at a time in arrival order and holds one running sum. A
        leaf whose ``grad`` is None, as after ``zero_grads``, ends at
        ``((0 + g0) + g1) + ...``, which equals ``0 + (g0 + g1 + ...)`` bit
        for bit; a leaf that already holds a ``grad`` ends at
        ``((grad + g0) + g1) + ...``, which may round differently from
        ``grad + (g0 + g1 + ...)``. ``backward`` waits for every task it
        handed to the worker before it returns or re-raises an error, from
        the walk or from a product. After an error, leaves may hold partial
        sums.
        """
        seed = np.ones_like(self.data) if seed is None else np.asarray(seed, dtype=self.dtype)
        if seed.shape != self.shape:
            raise ShapeError(f"backward seed of shape {seed.shape} for a tensor of "
                             f"shape {self.shape}")
        if self._node is None:  # a leaf is a tape of its own
            _accumulate(self, seed)
            return
        topo: list[_Node | None] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self._node, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if type(p) is _Node and id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self._node): seed}
        worker = _worker
        handed: set[int] = set()  # the leaves with a contribution on the worker
        futures: list[Future] = []
        try:
            for i in range(len(topo) - 1, -1, -1):
                node, topo[i] = topo[i], None
                g = grads.pop(id(node), None)
                if g is None:
                    continue
                backward_fn, parents = node.backward_fn, node.parents
                node.backward_fn, node.parents = _released, ()
                for parent, pg in zip(parents, backward_fn(g)):
                    if pg is None or parent is None:
                        continue
                    key = id(parent)
                    if type(parent) is _Node:
                        pg = pg() if callable(pg) else pg
                        grads[key] = grads[key] + pg if key in grads else pg
                    elif worker is not None and (callable(pg) or key in handed):
                        handed.add(key)
                        futures.append(worker.submit(_accumulate, parent, pg))
                    else:
                        _accumulate(parent, pg)
        finally:
            wait(futures)  # on success and on any error: nothing is left running
        for future in futures:
            future.result()  # re-raises a failed product


def _accumulate(leaf: Tensor, g) -> None:
    """Add one contribution ``g`` (an array, or a deferred product, which is
    computed here) to ``leaf.grad`` in place, from zeros when it is None."""
    if callable(g):
        g = g()
    if leaf.grad is None:
        leaf.grad = np.zeros_like(leaf.data)
    leaf.grad += g


def _released(g: np.ndarray):
    """The backward function of a node that a ``backward`` walk has passed."""
    raise ContractError("backward through a released graph: a graph is walked once")


# OpenBLAS reads its thread count once, when numpy loads (at the latest by
# this module's imports), so the tape's worker is decided once here too: a
# later write to the variable changes neither. There is one worker thread
# when BLAS runs on one thread and a second CPU is usable; at two or more
# BLAS threads its GEMMs would compete with the walk's for BLAS's threads.
# The executor starts its thread at its first task, so a process that runs
# no backward starts none.
_BLAS_ONE_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_worker = (ThreadPoolExecutor(1, thread_name_prefix="m3enc-tape")
           if _BLAS_ONE_THREAD and _CPUS >= 2 else None)


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _from_op(data: np.ndarray, op: str, parents: tuple[Tensor, ...],
             backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """The output Tensor of op ``op``. While recording, and when an input
    requires a gradient, it gets a tape node; the node references the inputs'
    nodes, not their arrays, and ``backward_fn`` must keep only what it reads."""
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._node = None
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple((p if p._node is None else p._node) if p.requires_grad else None
                                for p in parents), backward_fn)
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


def _same_dtype(a, b, op: str) -> tuple[Tensor, Tensor]:
    """Both operands as tensors of ``a``'s dtype: a non-tensor ``b`` is cast to
    it, and two tensors of different dtypes are an error, not a promotion."""
    a = as_tensor(a)
    b = as_tensor(b, dtype=a.dtype)
    if b.dtype != a.dtype:
        raise ContractError(f"'{op}' operands differ in dtype: {a.dtype.name} and {b.dtype.name}")
    return a, b


def add(a: Tensor, b) -> Tensor:
    a, b = _same_dtype(a, b, "add")
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _from_op(out, "add", (a, b), bwd)


def mul(a: Tensor, b) -> Tensor:
    a, b = _same_dtype(a, b, "mul")
    out = a.data * b.data
    a_shape, b_shape = a.shape, b.shape
    # each operand is saved only for the other's gradient
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def bwd(g):
        return (None if b_data is None else _unbroadcast(g * b_data, a_shape),
                None if a_data is None else _unbroadcast(g * a_data, b_shape))

    return _from_op(out, "mul", (a, b), bwd)


def scale(a: Tensor, s: float) -> Tensor:
    a = as_tensor(a)
    s = a.dtype.type(s)
    out = a.data * s

    def bwd(g):
        return (g * s,)

    return _from_op(out, "scale", (a,), bwd)


def matmul(a: Tensor, b) -> Tensor:
    """Matrix product; stacked leading dimensions broadcast as in numpy."""
    a, b = _same_dtype(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul requires tensors with at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data
    out = a_data @ b_data

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b_data, -1, -2), a_data.shape)
        # b's gradient as a deferred product, which ``Tensor.backward`` hands
        # to the tape's worker when b is a leaf
        return ga, lambda: _unbroadcast(np.swapaxes(a_data, -1, -2) @ g, b_data.shape)

    return _from_op(out, "matmul", (a, b), bwd)


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous range of the last dimension, ``a[..., start:stop]``."""
    a = as_tensor(a)
    if not (0 <= start <= stop <= a.shape[-1]):
        raise ShapeError(f"slice [{start}:{stop}] out of range for extent {a.shape[-1]}")
    out = np.ascontiguousarray(a.data[..., start:stop])
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        full = np.zeros(shape, dtype=dtype)
        full[..., start:stop] = g
        return (full,)

    return _from_op(out, "slice_last", (a,), bwd)


def take_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows along the first axis by integer ids (embedding-style
    lookup); ``indices`` may have any shape, and its ids may repeat.

    The backward pass sums the gradient rows of each repeated id with weight
    1 (``_scatter_sum``).
    """
    a = as_tensor(a)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"take_rows ids must be integers, got {idx.dtype}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"take_rows ids must lie in [0, {a.shape[0]})")
    out = a.data[idx]
    shape = a.shape

    def bwd(g):
        flat = idx.reshape(-1)
        rows = _scatter_sum(g.reshape(flat.size, math.prod(shape[1:])), flat, None, shape[0])
        return (rows.reshape(shape),)

    return _from_op(np.ascontiguousarray(out), "take_rows", (a,), bwd)


def _scatter_sum(x: np.ndarray, targets: np.ndarray, weights: np.ndarray | None,
                 n_out: int) -> np.ndarray:
    """The [n_out x m] sums of the [n x m] rows of ``x``: row i, times
    ``weights[i]`` when weights are given, is added into row ``targets[i]``.
    Each target's sum starts from 0 and adds its rows one at a time in source
    order, as ``np.add.at`` does, so a target whose rows are all -0.0 sums to
    +0.0. The rows are sorted stably by target, and the targets with c rows
    are summed as one [k x c x m] block along its middle axis: an outer-axis
    ``sum`` adds the c rows in order, but a sum along the last axis is
    pairwise, so m = 1 takes the last entry of a sequential ``accumulate``."""
    m = x.shape[1]
    order = np.argsort(targets, kind="stable")
    counts = np.bincount(targets, minlength=n_out)
    ends = np.cumsum(counts)
    rows = x[order]
    if weights is not None:
        rows *= weights[order][:, None]
    out = np.zeros((n_out, m), dtype=x.dtype)
    for c in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == c)
        block = rows[(ends[group] - c)[:, None] + np.arange(c)]
        out[group] += np.add.accumulate(block, axis=1)[:, -1] if m == 1 else block.sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Fused neural-network operations
# ---------------------------------------------------------------------------


def rms_norm(x: Tensor, weight: Tensor, eps: float) -> Tensor:
    """y_i = weight_i * x_i / sqrt(mean(x^2) + eps), over the last dimension."""
    x, weight = as_tensor(x), as_tensor(weight)
    if eps <= 0:
        raise ContractError("rms_norm requires eps > 0")
    if weight.ndim != 1 or weight.shape[0] != x.shape[-1]:
        raise ShapeError(f"rms_norm weight length {weight.shape} != last extent {x.shape[-1]}")
    n = x.shape[-1]
    xd, wd = x.data, weight.data
    inv = 1.0 / np.sqrt((xd * xd).mean(axis=-1, keepdims=True) + x.dtype.type(eps))
    out = wd * xd * inv

    def bwd(g):
        gw_x = g * wd
        dot = (gw_x * xd).sum(axis=-1, keepdims=True)
        gx = inv * gw_x - (inv ** 3 / n) * xd * dot
        gw = (g * xd * inv).reshape(-1, n).sum(axis=0)
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
    wd = weight.data
    out = wd * xhat + bias.data

    def bwd(g):
        dxhat = g * wd
        gx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        gw = (g * xhat).reshape(-1, n).sum(axis=0)
        gb = g.reshape(-1, n).sum(axis=0)
        return gx, gw, gb

    return _from_op(out, "layer_norm", (x, weight, bias), bwd)


def gelu(x: Tensor) -> Tensor:
    """Elementwise GELU, exact erf form."""
    from scipy.special import erf  # loaded by the first GELU only (the -SwiGLU arm)

    x = as_tensor(x)
    xd = x.data
    phi = 0.5 * (1.0 + erf(xd * x.dtype.type(1.0 / math.sqrt(2.0))).astype(xd.dtype))
    out = xd * phi

    def bwd(g):
        pdf = np.exp(-0.5 * xd * xd) * xd.dtype.type(1.0 / math.sqrt(2.0 * math.pi))
        return (g * (phi + xd * pdf),)

    return _from_op(out, "gelu", (x,), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-x) -> inf gives sigmoid 0, as it should
        sig = np.exp(-x)
    sig += x.dtype.type(1.0)
    return np.reciprocal(sig, out=sig)


def _swiglu_hidden(gate: np.ndarray, up: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """silu(gate) * up, with ``sig`` = sigmoid(gate)."""
    h = gate * sig
    h *= up
    return h


def swiglu(x: Tensor, w_down: Tensor) -> Tensor:
    """The SwiGLU feed-forward's second half, silu(gate) * up @ ``w_down``, as
    one node, where ``x`` holds gate and up as the two halves of its last
    extent, ``[gate | up]``, and ``w_down`` is the [f x m] down projection.

    The node saves only ``x`` and ``w_down``: the [.. x f] SwiGLU output h is
    freed once the forward has multiplied it, and the backward recomputes the
    sigmoid and h by the forward's own ops, so every bit is that of a
    SwiGLU node followed by a ``matmul``."""
    x, w_down = _same_dtype(x, w_down, "swiglu")
    if x.ndim < 2 or x.shape[-1] % 2:
        raise ShapeError(f"swiglu needs at least 2 dimensions and an even last extent "
                         f"(gate | up), got {x.shape}")
    f = x.shape[-1] // 2
    if w_down.ndim != 2 or w_down.shape[0] != f:
        raise ShapeError(f"swiglu down projection must be [{f} x m], got {w_down.shape}")
    xd, wd = x.data, w_down.data
    gate, up = xd[..., :f], xd[..., f:]
    one = x.dtype.type(1.0)
    out = _swiglu_hidden(gate, up, _sigmoid(gate)) @ wd

    def bwd(g):
        # the down projection's two products as ``matmul``'s backward takes
        # them, on a recomputed h; then in-place steps on h's buffer (on a
        # strided half each one costs about twice as much) and one write into
        # each half of gx, the buffer reused for silu(gate)
        sig = _sigmoid(gate)
        h = _swiglu_hidden(gate, up, sig)
        gh = g @ wd.T
        gw = _unbroadcast(np.swapaxes(h, -1, -2) @ g, wd.shape)
        tmp = np.subtract(one, sig, out=h)
        np.multiply(gate, tmp, out=tmp)
        tmp += one
        tmp *= sig
        tmp *= up
        gx = np.empty_like(xd)
        np.multiply(tmp, gh, out=gx[..., :f])
        np.multiply(gate, sig, out=tmp)
        np.multiply(gh, tmp, out=gx[..., f:])
        return gx, gw

    return _from_op(out, "swiglu", (x, w_down), bwd)


def _check_lengths(lengths, n: int) -> np.ndarray:
    """``lengths`` as the sequence lengths of ``n`` packed rows: a 1-D array
    of non-negative integers summing to ``n``."""
    lengths = np.asarray(lengths)
    if (lengths.ndim != 1 or not np.issubdtype(lengths.dtype, np.integer)
            or (lengths < 0).any() or lengths.sum() != n):
        raise ShapeError(f"lengths must be a 1-D array of non-negative integers summing to {n}")
    return lengths


def attention(qkv: Tensor, lengths: np.ndarray, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over packed rows, as one node.

    ``qkv`` is the [N x 3m] output of one fused projection on a batch's N
    packed rows: its last dimension holds q, k and v as three thirds of
    ``n_heads`` consecutive heads each. Consecutive runs of ``lengths`` rows
    (non-negative integers summing to N) are the sequences; a zero length is
    a sequence with no rows. The sequences of one length L form one dense
    [b x h x L x dh] group; each group's scores subtract their row max before
    the softmax, and its context is placed back at its rows. The backward
    pass, written out by hand, runs the same steps in reverse per group.
    Returns the merged [N x m] context.
    """
    qkv = as_tensor(qkv)
    if qkv.ndim != 2 or qkv.shape[-1] % 3:
        raise ShapeError(f"attention expects an [N x 3m] qkv, got {qkv.shape}")
    n, m3 = qkv.shape
    m = m3 // 3
    if n_heads < 1 or m % n_heads != 0:
        raise ShapeError(f"n_heads={n_heads} must divide the width {m}")
    lengths = _check_lengths(lengths, n)
    dh = m // n_heads
    scale = qkv.dtype.type(1.0 / math.sqrt(dh))
    # rows sorted by their sequence's length, stably, so each sequence stays
    # whole and each group of equal-length sequences is one contiguous block
    perm = np.argsort(np.repeat(lengths, lengths), kind="stable")
    back = np.argsort(perm)
    sizes, counts = np.unique(lengths[lengths > 0], return_counts=True)
    ends = np.cumsum(sizes * counts)
    blocks = [(slice(e - size * c, e), size) for size, c, e in zip(sizes, counts, ends)]
    x = qkv.data[perm]

    def heads(a, length):  # [b*L x n*m] -> n head views of [b x h x L x dh]
        return a.reshape(len(a) // length, length, -1, n_heads, dh).transpose(2, 0, 3, 1, 4)

    ctx = np.empty((n, m), dtype=qkv.dtype)
    saved = []
    for rows, length in blocks:
        qh, kh, vh = heads(x[rows], length)
        p = np.matmul(qh, kh.transpose(0, 1, 3, 2))
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, vh, out=heads(ctx[rows], length)[0])
        saved.append((qh, kh, vh, p))
    out = ctx[back]

    def bwd(g):
        g = g[perm]
        part = np.empty_like(x)
        for (rows, length), (qh, kh, vh, p) in zip(blocks, saved):
            gh = heads(g[rows], length)[0]
            gq, gk, gv = heads(part[rows], length)
            np.matmul(p.transpose(0, 1, 3, 2), gh, out=gv)
            gs = np.matmul(gh, vh.transpose(0, 1, 3, 2))
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= scale
            np.matmul(gs, kh, out=gq)
            np.matmul(gs.transpose(0, 1, 3, 2), qh, out=gk)
        return (part[back],)

    return _from_op(out, "attention", (qkv,), bwd)


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


def masked_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``targets`` under softmax(``logits``).

    ``logits`` holds the [n x V] rows of the masked positions and ``targets``
    their n token ids. One node: the backward pass is (softmax - one_hot) / n.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != logits.shape[:1]:
        raise ShapeError(f"targets shape {targets.shape} must match the rows of "
                         f"[n x V] logits {logits.shape}")
    n, v = logits.shape
    if n == 0 or v == 0:
        raise ContractError("masked_cross_entropy: no masked positions")
    if targets.min() < 0 or targets.max() >= v:
        raise ContractError(f"masked_cross_entropy: target ids outside [0, {v})")
    x = logits.data
    rows = np.arange(n)
    m = x.max(axis=-1, keepdims=True)
    z = np.exp(x - m).sum(axis=-1, keepdims=True)
    inv_n = x.dtype.type(1.0 / n)
    per_row = (m + np.log(z))[:, 0] - x[rows, targets]
    out = np.asarray((per_row * inv_n).sum())

    def bwd(g):
        w = g * inv_n
        gx = np.exp(x - m) / z * w
        gx[rows, targets] -= w
        return (gx,)

    return _from_op(out, "masked_cross_entropy", (logits,), bwd)


def kl_rows(student_logits: Tensor, neg_log_teacher: np.ndarray) -> Tensor:
    """Mean over rows of KL(p || q), p = softmax(``student_logits``).

    ``neg_log_teacher`` is -log q as a plain [n x V] array: the teacher side
    carries no gradient. The forward value is the mean over rows of
    sum(p * (log p + c)) with c = -log q; the backward pass is
    p * (log p + c - kl_row) * g / n, with kl_row each row's sum.
    """
    z = as_tensor(student_logits)
    c = np.asarray(neg_log_teacher, dtype=z.dtype)
    if z.ndim != 2 or c.shape != z.shape:
        raise ShapeError(f"kl_rows expects equal [n x V] student logits and teacher "
                         f"log-probs, got {z.shape} and {c.shape}")
    n, v = z.shape
    if n == 0 or v == 0:
        raise ContractError("kl_rows: no rows")
    x = z.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=-1, keepdims=True)
    p = e / s
    gap = x - (m + np.log(s)) + c
    terms = p * gap
    kl_row = terms.sum(axis=-1, keepdims=True)
    inv_n = x.dtype.type(1.0 / n)
    out = np.asarray(terms.sum() * inv_n)

    def bwd(g):
        return (p * (gap - kl_row) * (g * inv_n),)

    return _from_op(out, "kl_rows", (z,), bwd)


# ---------------------------------------------------------------------------
# Gradient bookkeeping and verification
# ---------------------------------------------------------------------------


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
