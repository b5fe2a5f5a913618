"""Bidirectional transformer encoder with per-layer hidden-state taps, a
shared truncatable MLM head and Matryoshka sequence embeddings.

The architecture modernizations (SwiGLU, RMSNorm, pre-norm residuals, bias
removal, dropout removal) are individually toggleable through ``ModelConfig``
so ablation arms can revert each one. Hidden states can be tapped at any
configured layer; the MLM head projects the first ``d`` coordinates of a
tapped state through the first ``d`` rows of the shared projection matrix,
so one set of weights serves every (layer, dim) cell of the granularity grid.

A sequence embedding is pooled once per tapped layer at full width
(``pool``, the mean over each sequence's real rows); the embedding of cell
(l, d) is the first ``d`` coordinates of that mean, L2-normalized
(``cell_embedding``). Training and evaluation both use this one path.

Every weight multiplies its input once. An attention block is one fused
[m x 3m] q | k | v projection (``attn_qkv``), one fused ``tensor.attention``
node and the output projection; the feed-forward is one fused input
projection (``ffn_in``, gate | up for SwiGLU) and the down projection
(``ffn_down``), which for SwiGLU is multiplied inside the one
``tensor.swiglu`` node and for GELU follows a ``tensor.gelu`` node. Each
layer multiplies by four weights.

A batch is packed, as in ModernBERT: its sequences' ids end to end, [N],
and their lengths, [B]. ``forward`` gathers the embeddings at those N
positions, each at its index within its sequence, and every block works on
the [N x m] packed rows; ``tensor.attention`` attends within each sequence
from its length alone. No layer op sees a padding position, and a tap is the
[N x m] rows. The hidden-dropout draw is taken at [B x max(lengths) x m] and
each sequence keeps its prefix rows, so the random stream is the padded
batch's. A contrastive step encodes its queries stacked on its documents as
one batch of 2B sequences, so the ``+Dropout`` arm draws one mask per layer
there, not one per side. ``pool`` sums each sequence's rows, each row
weighted 1/length, in row order.

``forward`` stops at the deepest tapped layer: the layers above it are never
run, so a tap at layer ``l`` costs ``l`` blocks and is what a model cut to
its first ``l`` layers would output. Tapped states are the raw post-residual
block outputs; the final norm (only present for pre-norm configs) is applied
only to the top layer's output, when layer ``n_layers`` is tapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, ShapeError
from .rng import named_rng
from .tensor import Tensor

ACTIVATIONS = ("swiglu", "gelu")
NORMS = ("rmsnorm", "layernorm")
NORM_PLACEMENTS = ("pre", "post")

NORM_EPS = 1e-6
INIT_STD = 0.02


@dataclass(frozen=True)
class GranularitySet:
    """The (layer, dim) grid jointly optimized during training."""

    layers: tuple[int, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "dims", tuple(self.dims))
        for name, values in (("layers", self.layers), ("dims", self.dims)):
            if not all(type(v) is int for v in values):  # bool and float refused too
                raise ConfigError(f"granularity.{name} entries must be integers: {values}")
            if not values:
                raise ConfigError(f"granularity.{name} must be non-empty")
            if list(values) != sorted(set(values)):
                raise ConfigError(f"granularity.{name} must be strictly increasing: {values}")
            if values[0] < 1:
                raise ConfigError(f"granularity.{name} entries must be >= 1")

    @property
    def grid(self) -> list[tuple[int, int]]:
        return [(l, d) for l in self.layers for d in self.dims]


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    hidden: int
    n_heads: int
    vocab: int
    max_seq: int
    granularity: GranularitySet
    ffn_mult: float = 8.0 / 3.0
    activation: str = "swiglu"
    norm: str = "rmsnorm"
    norm_placement: str = "pre"
    use_bias: bool = False
    hidden_dropout: float = 0.0

    def __post_init__(self):
        if any(type(getattr(self, f)) is not int
               for f in ("n_layers", "hidden", "n_heads", "vocab", "max_seq")):
            raise ConfigError("n_layers, hidden, n_heads, vocab and max_seq must be integers")
        if self.n_layers < 1 or self.hidden < 1 or self.vocab < 1 or self.max_seq < 1:
            raise ConfigError("n_layers, hidden, vocab and max_seq must be positive")
        if self.n_heads < 1 or self.hidden % self.n_heads != 0:
            raise ConfigError(f"n_heads={self.n_heads} must divide hidden={self.hidden}")
        if not 0 < self.ffn_mult < math.inf:
            raise ConfigError("ffn_mult must be positive and finite")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        if self.norm not in NORMS:
            raise ConfigError(f"norm must be one of {NORMS}")
        if self.norm_placement not in NORM_PLACEMENTS:
            raise ConfigError(f"norm_placement must be one of {NORM_PLACEMENTS}")
        if not (0.0 <= self.hidden_dropout < 1.0):
            raise ConfigError("hidden_dropout must lie in [0, 1)")
        if max(self.granularity.layers) > self.n_layers:
            raise ConfigError(
                f"granularity layer {max(self.granularity.layers)} exceeds n_layers={self.n_layers}")
        if max(self.granularity.dims) > self.hidden:
            raise ConfigError(
                f"granularity dim {max(self.granularity.dims)} exceeds hidden={self.hidden}")

    @property
    def intermediate(self) -> int:
        return int(round(self.ffn_mult * self.hidden))

    @property
    def block_params(self) -> int:
        """The trainable values of one block, as ``build_parameters`` lays them out."""
        m, f = self.hidden, self.intermediate
        f_in = 2 * f if self.activation == "swiglu" else f
        n = 4 * m * m + m * f_in + f * m + 2 * m  # qkv, o, ffn in and down, two norm weights
        if self.use_bias:
            n += 5 * m + f_in
        if self.norm == "layernorm":
            n += 2 * m
        return n


@dataclass
class LayerParams:
    """One block's weights: ``attn_qkv`` [m x 3m] is q | k | v; ``ffn_in`` is
    gate | up [m x 2f] for SwiGLU and [m x f] for GELU."""

    attn_qkv: Tensor
    attn_o: Tensor
    norm1_w: Tensor
    norm2_w: Tensor
    ffn_in: Tensor
    ffn_down: Tensor
    attn_qkv_b: Tensor | None = None
    attn_o_b: Tensor | None = None
    ffn_in_b: Tensor | None = None
    ffn_down_b: Tensor | None = None
    norm1_b: Tensor | None = None
    norm2_b: Tensor | None = None


@dataclass
class Parameters:
    """The full trainable weight collection, including the shared MLM head."""

    token_embedding: Tensor
    position_embedding: Tensor
    layers: list[LayerParams]
    mlm_head_w: Tensor
    mlm_head_b: Tensor
    final_norm_w: Tensor | None = None
    final_norm_b: Tensor | None = None

    def named(self) -> list[tuple[str, Tensor]]:
        """Stable (name, tensor) listing used by the optimizer and checkpoints."""
        out = [("token_embedding", self.token_embedding),
               ("position_embedding", self.position_embedding)]
        for i, lp in enumerate(self.layers):
            for f in ("attn_qkv", "attn_o", "attn_qkv_b", "attn_o_b",
                      "norm1_w", "norm1_b", "norm2_w", "norm2_b",
                      "ffn_in", "ffn_down", "ffn_in_b", "ffn_down_b"):
                t = getattr(lp, f)
                if t is not None:
                    out.append((f"layers.{i}.{f}", t))
        if self.final_norm_w is not None:
            out.append(("final_norm_w", self.final_norm_w))
        if self.final_norm_b is not None:
            out.append(("final_norm_b", self.final_norm_b))
        out.append(("mlm_head_w", self.mlm_head_w))
        out.append(("mlm_head_b", self.mlm_head_b))
        return out

    def count(self) -> int:
        return sum(t.data.size for _, t in self.named())


def _trunc_normal(rng: np.random.Generator, shape, std: float, dtype) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within two deviations."""
    x = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(x) > 2.0 * std
        n_bad = int(bad.sum())
        if n_bad == 0:
            break
        x[bad] = rng.normal(0.0, std, size=n_bad)
    return x.astype(dtype)


def build_parameters(config: ModelConfig, value) -> Parameters:
    """The parameter structure ``config`` implies, with ``value(name, shape)``
    as the array of each trainable tensor (named as in ``Parameters.named``)."""
    m, v, f = config.hidden, config.vocab, config.intermediate
    f_in = 2 * f if config.activation == "swiglu" else f

    def param(name, *shape):
        return Tensor(value(name, shape), requires_grad=True)

    layers = []
    for i in range(config.n_layers):
        at = f"layers.{i}."
        lp = LayerParams(attn_qkv=param(at + "attn_qkv", m, 3 * m),
                         attn_o=param(at + "attn_o", m, m),
                         norm1_w=param(at + "norm1_w", m), norm2_w=param(at + "norm2_w", m),
                         ffn_in=param(at + "ffn_in", m, f_in),
                         ffn_down=param(at + "ffn_down", f, m))
        if config.use_bias:
            lp.attn_qkv_b, lp.attn_o_b = param(at + "attn_qkv_b", 3 * m), param(at + "attn_o_b", m)
            lp.ffn_in_b, lp.ffn_down_b = param(at + "ffn_in_b", f_in), param(at + "ffn_down_b", m)
        if config.norm == "layernorm":
            lp.norm1_b, lp.norm2_b = param(at + "norm1_b", m), param(at + "norm2_b", m)
        layers.append(lp)

    params = Parameters(
        token_embedding=param("token_embedding", v, m),
        position_embedding=param("position_embedding", config.max_seq, m),
        layers=layers,
        mlm_head_w=param("mlm_head_w", m, v),
        mlm_head_b=param("mlm_head_b", v),
    )
    if config.norm_placement == "pre":
        params.final_norm_w = param("final_norm_w", m)
        if config.norm == "layernorm":
            params.final_norm_b = param("final_norm_b", m)
    return params


def init_parameters(config: ModelConfig, seed: int, dtype=np.float32) -> Parameters:
    """Deterministic initialization: truncated normal(0, 0.02) weights, unit
    norm weights, zero biases. A fused projection is its parts' draws (q, k, v,
    o, up, down, then gate, per layer) laid side by side."""
    rng = named_rng(seed, "init")
    m, v, f = config.hidden, config.vocab, config.intermediate

    def draw(*shape):
        return _trunc_normal(rng, shape, INIT_STD, dtype)

    drawn = {}
    for i in range(config.n_layers):
        wq, wk, wv, wo = draw(m, m), draw(m, m), draw(m, m), draw(m, m)
        up, down = draw(m, f), draw(f, m)
        gate = [draw(m, f)] if config.activation == "swiglu" else []
        drawn.update({f"layers.{i}.attn_qkv": np.concatenate([wq, wk, wv], axis=-1),
                      f"layers.{i}.attn_o": wo, f"layers.{i}.ffn_down": down,
                      f"layers.{i}.ffn_in": np.concatenate(gate + [up], axis=-1)})
    drawn["token_embedding"] = draw(v, m)
    drawn["position_embedding"] = draw(config.max_seq, m)
    drawn["mlm_head_w"] = draw(m, v)

    def value(name, shape):
        if name in drawn:
            return drawn[name]
        is_norm_weight = "norm" in name and name.endswith("_w")
        return (np.ones if is_norm_weight else np.zeros)(shape, dtype=dtype)

    return build_parameters(config, value)


def _norm(x: Tensor, w: Tensor, b: Tensor | None, kind: str) -> Tensor:
    if kind == "rmsnorm":
        return T.rms_norm(x, w, NORM_EPS)
    return T.layer_norm(x, w, b, NORM_EPS)


def _biased(out: Tensor, b: Tensor | None) -> Tensor:
    return out if b is None else T.add(out, b)


def _linear(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    return _biased(T.matmul(x, w), b)


def _attention(x: Tensor, lp: LayerParams, config: ModelConfig, lengths: np.ndarray) -> Tensor:
    ctx = T.attention(_linear(x, lp.attn_qkv, lp.attn_qkv_b), lengths, config.n_heads)
    return _linear(ctx, lp.attn_o, lp.attn_o_b)


def _ffn(x: Tensor, lp: LayerParams, config: ModelConfig) -> Tensor:
    pre = _linear(x, lp.ffn_in, lp.ffn_in_b)
    if config.activation == "gelu":
        return _linear(T.gelu(pre), lp.ffn_down, lp.ffn_down_b)
    return _biased(T.swiglu(pre, lp.ffn_down), lp.ffn_down_b)


def _check_lengths(lengths, n: int, max_seq: int | None = None) -> np.ndarray:
    """``lengths`` as the lengths, each in [1, ``max_seq``], of at least one
    sequence packed into ``n`` rows."""
    lengths = T._check_lengths(lengths, n)
    if not lengths.size or not lengths.all():
        raise ContractError("every sequence needs at least one position")
    if max_seq is not None and lengths.max() > max_seq:
        raise ContractError(f"sequence length {lengths.max()} exceeds max_seq={max_seq}")
    return lengths


def _dropout(x: Tensor, rate: float, rng: np.random.Generator, lengths: np.ndarray) -> Tensor:
    """Inverted dropout on packed rows. The keep mask is drawn at the padded
    [B x max(lengths) x m] layout and each sequence keeps its prefix rows, so
    the random stream and the masks at real positions do not depend on the
    packing."""
    m = x.shape[-1]
    prefix = np.arange(lengths.max()) < lengths[:, None]
    draw = rng.random((*prefix.shape, m)).reshape(-1, m)[np.flatnonzero(prefix)]
    keep = (draw >= rate).astype(x.data.dtype) / x.dtype.type(1.0 - rate)
    return T.mul(x, Tensor(keep))


def forward(
    params: Parameters,
    config: ModelConfig,
    ids: np.ndarray,
    lengths: np.ndarray,
    *,
    taps: tuple[int, ...] | None = None,
    dropout_rng: np.random.Generator | None = None,
) -> dict[int, Tensor]:
    """Run the encoder up to its deepest tapped layer; returns ``{layer: state}``.

    ``ids`` [N] are the packed ids of sequences of ``lengths`` [B], one after
    another. The embeddings are gathered at the N positions, each at its
    index within its sequence; every block runs on those [N x m] rows with
    attention per sequence, and each tapped state is returned as those rows.
    ``taps`` defaults to the configured granularity layers. Hidden dropout
    runs when a ``dropout_rng`` is passed and ``hidden_dropout`` > 0. It is
    drawn only between layers that run, at [B x max(lengths) x m], and
    applied to each sequence's rows (``_dropout``).
    """
    ids = np.asarray(ids)
    if ids.ndim != 1 or not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"ids must be a 1-D integer array of packed positions, got {ids!r}")
    lengths = _check_lengths(lengths, ids.size, config.max_seq)
    if ids.min() < 0 or ids.max() >= config.vocab:
        raise ContractError(f"token id out of vocabulary range [0, {config.vocab})")
    if taps is None:
        taps = config.granularity.layers
    tap_set = set(taps)
    if not tap_set or min(tap_set) < 1 or max(tap_set) > config.n_layers:
        raise ConfigError(f"tap layers {sorted(tap_set)} must be a non-empty subset of "
                          f"[1, n_layers={config.n_layers}]")
    depth = max(tap_set)

    positions = np.arange(ids.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    h = T.add(T.take_rows(params.token_embedding, ids),
              T.take_rows(params.position_embedding, positions))

    tapped: dict[int, Tensor] = {}
    for i, lp in enumerate(params.layers[:depth], start=1):
        if config.norm_placement == "pre":
            h = T.add(h, _attention(_norm(h, lp.norm1_w, lp.norm1_b, config.norm),
                                    lp, config, lengths))
            h = T.add(h, _ffn(_norm(h, lp.norm2_w, lp.norm2_b, config.norm), lp, config))
        else:
            h = _norm(T.add(h, _attention(h, lp, config, lengths)),
                      lp.norm1_w, lp.norm1_b, config.norm)
            h = _norm(T.add(h, _ffn(h, lp, config)), lp.norm2_w, lp.norm2_b, config.norm)
        if i == config.n_layers and params.final_norm_w is not None:
            h = _norm(h, params.final_norm_w, params.final_norm_b, config.norm)
        if i in tap_set:
            tapped[i] = h
        if dropout_rng is not None and config.hidden_dropout > 0.0 and i < depth:
            h = _dropout(h, config.hidden_dropout, dropout_rng, lengths)
    return tapped


def pool(tapped_state: Tensor, lengths: np.ndarray) -> Tensor:
    """Full-width mean over each sequence's rows; ``cell_embedding`` turns it
    into the embedding of one dim.

    ``tapped_state`` is a packed [N x M] tap of ``forward`` over sequences of
    ``lengths`` [B]. One node: each of the [B x M] means sums its sequence's
    rows times 1/length, from 0 and row by row in sequence order
    (``tensor._scatter_sum``). The backward pass is g * 1/length at each
    sequence's rows.
    """
    x = T.as_tensor(tapped_state)
    if x.ndim != 2:
        raise ShapeError(f"state {x.shape} must be a packed [N x M] tap")
    lengths = _check_lengths(lengths, x.shape[0])
    seq = np.repeat(np.arange(len(lengths)), lengths)
    w = (np.ones(len(lengths), dtype=x.dtype) / lengths.astype(x.dtype))[seq]
    out = T._scatter_sum(x.data, seq, w, len(lengths))

    def bwd(g):
        return (g[seq] * w[:, None],)

    return T._from_op(out, "pool", (x,), bwd)


def cell_embedding(pooled: Tensor, d: int) -> Tensor:
    """The dim-``d`` embedding of a pooled state: its first ``d`` coordinates,
    L2-normalized. Every (layer, dim) cell embedding is made here."""
    if d < 1 or d > pooled.shape[-1]:
        raise ShapeError(f"embedding dimension {d} outside [1, {pooled.shape[-1]}]")
    return T.l2_normalize_rows(T.slice_last(pooled, 0, d))


def config_from_dict(d: dict) -> ModelConfig:
    """The ``ModelConfig`` that ``asdict`` made ``d``; no field takes a default."""
    names = {f.name for f in fields(ModelConfig)}
    if set(d) != names:
        raise ConfigError(f"model entry must hold exactly ModelConfig's fields: missing "
                          f"{sorted(names - set(d))}, unknown {sorted(set(d) - names)}")
    d = dict(d)
    gran = d.pop("granularity")
    return ModelConfig(granularity=GranularitySet(layers=tuple(gran["layers"]),
                                                  dims=tuple(gran["dims"])), **d)
