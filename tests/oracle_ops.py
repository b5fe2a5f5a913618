"""Tape ops and array oracles that only the tests use.

``tsum``, ``reshape``, ``transpose``, ``softmax_rows`` and ``slice_rows``
build the node-per-step compositions that the library's fused nodes are
checked against (attention, pooling, the padded encoder, the plain MLM
head). Nothing in ``src/`` calls them, so they live here, on the library's
own tape (``T._from_op``). The padded oracles mark padding keys with
``MASK_OFFSET`` alone. ``add_at_rows`` is the ``take_rows`` backward as
``np.add.at`` computes it, and ``saved_swiglu`` is the SwiGLU product of
``T.swiglu`` without its down projection, with the sigmoid and silu saved by
the forward instead of recomputed. ``packed``
turns a padded prefix-mask fixture into the packed batch the encoder takes.
"""

import numpy as np

from m3enc import tensor as T
from m3enc.errors import ShapeError

# Additive score offset for masked attention keys in the padded oracles:
# finite (so the finiteness invariant holds on the score tensors) yet large
# enough that exp(x - max) underflows to exactly 0.0 in float32 and float64.
MASK_OFFSET = -1.0e30


def tsum(a, axis=None, keepdims=False):
    a = T.as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return T._from_op(np.asarray(out), "sum", (a,), bwd)


def reshape(a, shape):
    a = T.as_tensor(a)
    out = a.data.reshape(shape)
    in_shape = a.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return T._from_op(out, "reshape", (a,), bwd)


def transpose(a, axes):
    a = T.as_tensor(a)
    axes = tuple(axes)
    out = np.ascontiguousarray(np.transpose(a.data, axes))
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inv),)

    return T._from_op(out, "transpose", (a,), bwd)


def slice_rows(a, start, stop):
    """Contiguous range of the first dimension, ``a[start:stop]``."""
    a = T.as_tensor(a)
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice [{start}:{stop}] out of range for extent {a.shape[0]}")
    out = np.ascontiguousarray(a.data[start:stop])
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        full = np.zeros(shape, dtype=dtype)
        full[start:stop] = g
        return (full,)

    return T._from_op(out, "slice_rows", (a,), bwd)


def softmax_rows(x):
    """Row-stochastic softmax over the last dimension, with max-subtraction."""
    x = T.as_tensor(x)
    if x.shape[-1] < 1:
        raise ShapeError("softmax_rows requires a non-empty last extent")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return T._from_op(out, "softmax_rows", (x,), bwd)


def saved_swiglu(x):
    """silu(gate) * up of ``x`` = [gate | up], whose node saves the sigmoid
    and silu(gate) for its backward."""
    x = T.as_tensor(x)
    f = x.shape[-1] // 2
    gate, up = x.data[..., :f], x.data[..., f:]
    one = x.dtype.type(1.0)
    with np.errstate(over="ignore"):
        sig = np.exp(-gate)
    sig += one
    np.reciprocal(sig, out=sig)
    act = gate * sig
    out = act * up

    def bwd(g):
        dsilu = gate * (one - sig)
        dsilu += one
        dsilu *= sig
        dsilu *= up
        gx = np.empty_like(x.data)
        np.multiply(dsilu, g, out=gx[..., :f])
        np.multiply(g, act, out=gx[..., f:])
        return (gx,)

    return T._from_op(out, "saved_swiglu", (x,), bwd)


def padded(tap, mask):
    """A packed [N x m] tap (array) placed at the real positions of ``mask``
    in zeros of shape [*mask.shape x m]."""
    out = np.zeros((*mask.shape, tap.shape[-1]), dtype=tap.dtype)
    out[mask] = tap
    return out


def add_at_rows(shape, indices, g):
    """Zeros of ``shape`` with each gradient row of ``g`` added, in gather
    order, into the row its id in ``indices`` names."""
    full = np.zeros(shape, dtype=g.dtype)
    np.add.at(full, np.asarray(indices).reshape(-1), g.reshape(-1, *shape[1:]))
    return full


def packed(tokens, mask):
    """A padded [B x s] (or [s]) batch whose real positions are a prefix of
    each row, as the packed ids [N] and lengths [B] that ``enc.forward``
    takes."""
    tokens, mask = np.atleast_2d(tokens), np.atleast_2d(mask)
    lengths = mask.sum(axis=1)
    if not (mask == (np.arange(mask.shape[1]) < lengths[:, None])).all():
        raise ValueError("the real positions of each row must be a prefix of it")
    return tokens[mask], lengths
