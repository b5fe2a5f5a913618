"""Bidirectional transformer encoder with per-layer hidden-state taps and a
shared truncatable MLM head.

The architecture modernizations (SwiGLU, RMSNorm, pre-norm residuals, bias
removal, dropout removal) are individually toggleable through ``ModelConfig``
so ablation arms can revert each one. Hidden states can be tapped at any
configured layer; the MLM head projects the first ``d`` coordinates of a
tapped state through the first ``d`` rows of the shared projection matrix,
so one set of weights serves every (layer, dim) cell of the granularity grid.

Each attention block is four linear projections around one fused
``tensor.attention`` node; the SwiGLU feed-forward gates through one fused
``tensor.swiglu`` node.

``forward`` stops at the deepest tapped layer: the layers above it are never
run, so a tap at layer ``l`` costs ``l`` blocks and is what a model cut to
its first ``l`` layers would output. Tapped states are the raw post-residual
block outputs; the final norm (only present for pre-norm configs) is applied
only to the top layer's output, when layer ``n_layers`` is tapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        object.__setattr__(self, "layers", tuple(int(v) for v in self.layers))
        object.__setattr__(self, "dims", tuple(int(v) for v in self.dims))
        for name, values in (("layers", self.layers), ("dims", self.dims)):
            if not values:
                raise ConfigError(f"granularity.{name} must be non-empty")
            if list(values) != sorted(set(values)):
                raise ConfigError(f"granularity.{name} must be strictly increasing: {values}")
            if values[0] < 1:
                raise ConfigError(f"granularity.{name} entries must be >= 1")

    @property
    def grid(self) -> list[tuple[int, int]]:
        return [(l, d) for l in self.layers for d in self.dims]

    def __len__(self) -> int:
        return len(self.layers) * len(self.dims)


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
    def head_dim(self) -> int:
        return self.hidden // self.n_heads


@dataclass
class LayerParams:
    attn_q: Tensor
    attn_k: Tensor
    attn_v: Tensor
    attn_o: Tensor
    norm1_w: Tensor
    norm2_w: Tensor
    ffn_up: Tensor
    ffn_down: Tensor
    ffn_gate: Tensor | None = None
    attn_q_b: Tensor | None = None
    attn_k_b: Tensor | None = None
    attn_v_b: Tensor | None = None
    attn_o_b: Tensor | None = None
    ffn_gate_b: Tensor | None = None
    ffn_up_b: Tensor | None = None
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
            for f in ("attn_q", "attn_k", "attn_v", "attn_o",
                      "attn_q_b", "attn_k_b", "attn_v_b", "attn_o_b",
                      "norm1_w", "norm1_b", "norm2_w", "norm2_b",
                      "ffn_gate", "ffn_up", "ffn_down",
                      "ffn_gate_b", "ffn_up_b", "ffn_down_b"):
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


def init_parameters(config: ModelConfig, seed: int, dtype=np.float32) -> Parameters:
    """Deterministic initialization: truncated normal(0, 0.02) weights, unit
    norm weights, zero biases."""
    rng = named_rng(seed, "init")
    m, v, f = config.hidden, config.vocab, config.intermediate

    def w(*shape):
        return Tensor(_trunc_normal(rng, shape, INIT_STD, dtype), requires_grad=True)

    def ones(n):
        return Tensor(np.ones(n, dtype=dtype), requires_grad=True)

    def zeros(n):
        return Tensor(np.zeros(n, dtype=dtype), requires_grad=True)

    layers = []
    for _ in range(config.n_layers):
        lp = LayerParams(
            attn_q=w(m, m), attn_k=w(m, m), attn_v=w(m, m), attn_o=w(m, m),
            norm1_w=ones(m), norm2_w=ones(m),
            ffn_up=w(m, f), ffn_down=w(f, m),
        )
        if config.activation == "swiglu":
            lp.ffn_gate = w(m, f)
        if config.use_bias:
            lp.attn_q_b, lp.attn_k_b = zeros(m), zeros(m)
            lp.attn_v_b, lp.attn_o_b = zeros(m), zeros(m)
            lp.ffn_up_b, lp.ffn_down_b = zeros(f), zeros(m)
            if config.activation == "swiglu":
                lp.ffn_gate_b = zeros(f)
        if config.norm == "layernorm":
            lp.norm1_b, lp.norm2_b = zeros(m), zeros(m)
        layers.append(lp)

    params = Parameters(
        token_embedding=w(v, m),
        position_embedding=w(config.max_seq, m),
        layers=layers,
        mlm_head_w=w(m, v),
        mlm_head_b=zeros(v),
    )
    if config.norm_placement == "pre":
        params.final_norm_w = ones(m)
        if config.norm == "layernorm":
            params.final_norm_b = zeros(m)
    return params


def _norm(x: Tensor, w: Tensor, b: Tensor | None, kind: str) -> Tensor:
    if kind == "rmsnorm":
        return T.rms_norm(x, w, NORM_EPS)
    return T.layer_norm(x, w, b, NORM_EPS)


def _linear(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    out = T.matmul(x, w)
    return out if b is None else T.add(out, b)


def _attention(x: Tensor, lp: LayerParams, config: ModelConfig, key_bias: np.ndarray) -> Tensor:
    ctx = T.attention(_linear(x, lp.attn_q, lp.attn_q_b), _linear(x, lp.attn_k, lp.attn_k_b),
                      _linear(x, lp.attn_v, lp.attn_v_b), key_bias, config.n_heads)
    return _linear(ctx, lp.attn_o, lp.attn_o_b)


def _ffn(x: Tensor, lp: LayerParams, config: ModelConfig) -> Tensor:
    if config.activation == "swiglu":
        hidden = T.swiglu(_linear(x, lp.ffn_gate, lp.ffn_gate_b),
                          _linear(x, lp.ffn_up, lp.ffn_up_b))
    else:
        hidden = T.activation(_linear(x, lp.ffn_up, lp.ffn_up_b), "gelu")
    return _linear(hidden, lp.ffn_down, lp.ffn_down_b)


def _dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / x.dtype.type(1.0 - rate)
    return T.mul(x, Tensor(keep))


def forward(
    params: Parameters,
    config: ModelConfig,
    tokens: np.ndarray,
    attn_mask: np.ndarray | None = None,
    *,
    taps: tuple[int, ...] | None = None,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> dict[int, Tensor]:
    """Run the encoder up to its deepest tapped layer; returns ``{layer: state}``.

    ``tokens`` is an id array of shape [s] or [B x s]; ``attn_mask`` marks
    real (attendable) positions. Padding keys receive exactly zero attention
    weight from every query. ``taps`` defaults to the configured granularity
    layers. Hidden dropout, in training mode, is drawn only between layers
    that run.
    """
    tokens = np.asarray(tokens)
    squeeze = tokens.ndim == 1
    if squeeze:
        tokens = tokens[None, :]
    bsz, s = tokens.shape
    if s < 1:
        raise ContractError("forward requires at least one position")
    if s > config.max_seq:
        raise ContractError(f"sequence length {s} exceeds max_seq={config.max_seq}")
    if tokens.min() < 0 or tokens.max() >= config.vocab:
        raise ContractError(f"token id out of vocabulary range [0, {config.vocab})")
    if attn_mask is None:
        attn_mask = np.ones((bsz, s), dtype=bool)
    attn_mask = np.asarray(attn_mask, dtype=bool)
    if squeeze and attn_mask.ndim == 1:
        attn_mask = attn_mask[None, :]
    if attn_mask.shape != (bsz, s):
        raise ShapeError(f"attn_mask shape {attn_mask.shape} != tokens shape {(bsz, s)}")
    if taps is None:
        taps = config.granularity.layers
    tap_set = set(taps)
    if not tap_set or min(tap_set) < 1 or max(tap_set) > config.n_layers:
        raise ConfigError(f"tap layers {sorted(tap_set)} must be a non-empty subset of "
                          f"[1, n_layers={config.n_layers}]")
    depth = max(tap_set)

    dtype = params.token_embedding.dtype
    key_bias = np.where(attn_mask, 0.0, T.MASK_OFFSET).astype(dtype)

    h = T.add(T.take_rows(params.token_embedding, tokens),
              T.slice_rows(params.position_embedding, 0, s))

    tapped: dict[int, Tensor] = {}
    for i, lp in enumerate(params.layers[:depth], start=1):
        if config.norm_placement == "pre":
            h = T.add(h, _attention(_norm(h, lp.norm1_w, lp.norm1_b, config.norm),
                                    lp, config, key_bias))
            h = T.add(h, _ffn(_norm(h, lp.norm2_w, lp.norm2_b, config.norm), lp, config))
        else:
            h = _norm(T.add(h, _attention(h, lp, config, key_bias)),
                      lp.norm1_w, lp.norm1_b, config.norm)
            h = _norm(T.add(h, _ffn(h, lp, config)), lp.norm2_w, lp.norm2_b, config.norm)
        if i == config.n_layers and params.final_norm_w is not None:
            h = _norm(h, params.final_norm_w, params.final_norm_b, config.norm)
        if i in tap_set:
            tapped[i] = T.reshape(h, h.shape[1:]) if squeeze else h
        if training and config.hidden_dropout > 0.0 and i < depth:
            if dropout_rng is None:
                raise ContractError("dropout requires a dropout_rng in training mode")
            h = _dropout(h, config.hidden_dropout, dropout_rng)
    return tapped


def mlm_logits(params: Parameters, h: Tensor, d: int) -> Tensor:
    """Project the first ``d`` coordinates through the first ``d`` rows of
    the shared head: h[..., :d] @ W[:d, :] + b."""
    m, v = params.mlm_head_w.shape
    if d < 1 or d > m:
        raise ShapeError(f"head dimension {d} outside [1, {m}]")
    if h.shape[-1] < d:
        raise ShapeError(f"input extent {h.shape[-1]} smaller than head dimension {d}")
    truncated = T.slice_last(h, 0, d) if h.shape[-1] != d else h
    return T.add(T.matmul(truncated, T.slice_rows(params.mlm_head_w, 0, d)),
                 params.mlm_head_b)


def pool(tapped_state: Tensor, attn_mask: np.ndarray, d: int) -> Tensor:
    """Sequence embedding: mean over unmasked positions of the first ``d``
    dimensions, then L2-normalized. Accepts [s x M] or [B x s x M]."""
    if d < 1 or d > tapped_state.shape[-1]:
        raise ShapeError(f"pool dimension {d} outside [1, {tapped_state.shape[-1]}]")
    mask = np.asarray(attn_mask, dtype=bool)
    if mask.shape != tapped_state.shape[:-1]:
        raise ShapeError(f"attn_mask shape {mask.shape} != state rows {tapped_state.shape[:-1]}")
    counts = mask.sum(axis=-1)
    if (counts == 0).any():
        raise ContractError("pool: a sequence has no unmasked positions")
    dtype = tapped_state.dtype
    weights = (mask.astype(dtype) / counts[..., None].astype(dtype))[..., None]
    truncated = T.slice_last(tapped_state, 0, d)
    mean = T.tsum(T.mul(truncated, Tensor(weights)), axis=-2)
    return T.l2_normalize_rows(mean)


def config_to_dict(config: ModelConfig) -> dict:
    return {
        "n_layers": config.n_layers,
        "hidden": config.hidden,
        "n_heads": config.n_heads,
        "vocab": config.vocab,
        "max_seq": config.max_seq,
        "ffn_mult": config.ffn_mult,
        "activation": config.activation,
        "norm": config.norm,
        "norm_placement": config.norm_placement,
        "use_bias": config.use_bias,
        "hidden_dropout": config.hidden_dropout,
        "granularity": {"layers": list(config.granularity.layers),
                        "dims": list(config.granularity.dims)},
    }


def config_from_dict(d: dict) -> ModelConfig:
    d = dict(d)
    gran = d.pop("granularity")
    return ModelConfig(granularity=GranularitySet(layers=tuple(gran["layers"]),
                                                  dims=tuple(gran["dims"])), **d)
