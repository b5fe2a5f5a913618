"""Training objectives over the (layer, dim) granularity grid.

There are two grid objectives, one per data kind; each sums one loss over
every (layer, dim) cell of a grid.

* multigranular MLM: one forward pass, one masked-cross-entropy cell per
  (tapped layer, truncation dim), summed without weights. With a
  ``DistillPlan`` it is self-distillation: the cells plus lambda_d times the
  KL from a teacher (layer, dim) cell's token distribution to student cells;
  both read the head products the MLM cells already computed, scaled by
  1/tau_d. Teacher log-probabilities are plain arrays computed once per
  teacher cell from the product's data, and each pair's KL is one
  ``kl_rows`` node on the scaled student product
* in-batch-negative contrastive loss, streamed over column tiles of the
  score matrix (``tile=None`` is a single tile spanning the batch), summed
  over every grid cell. MRL fine-tuning is its one-layer grid. The packed
  queries are followed by the packed documents, one batch of 2B sequences:
  one forward, one pool per layer, one [2B x d] embedding per cell, read as
  queries [:B] and documents [B:]

Hidden dropout runs in the encoder when a ``dropout_rng`` is passed and the
model's ``hidden_dropout`` is above 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import tensor as T
from .data import IGNORE_INDEX, MlmBatch, PairBatch
from .encoder import GranularitySet, ModelConfig, Parameters
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor

KL_FLOOR = 1e-12


@dataclass
class LossReport:
    """Per-(layer, dim) loss cells plus their aggregate.

    ``total`` always equals the plain sum of ``per_pair`` values plus
    ``lambda_d * aux`` when a distillation term is active. ``node`` is the
    autodiff handle for the total; call ``node.backward()`` to populate
    parameter gradients.
    """

    per_pair: dict[tuple[int, int], float]
    total: float
    aux: float | None = None
    node: Tensor | None = None


@dataclass(frozen=True)
class DistillPlan:
    """Teacher/student (layer, dim) pairs plus the loss weight and temperature."""

    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    lambda_d: float = 1.0
    tau_d: float = 1.0

    def __post_init__(self):
        if self.lambda_d < 0:
            raise ConfigError("lambda_d must be non-negative")
        if self.tau_d <= 0:
            raise ConfigError("tau_d must be positive")
        for teacher, student in self.pairs:
            if tuple(teacher) == tuple(student):
                raise ConfigError(f"teacher and student coincide: {teacher}")


def build_distill_plan(
    mode: str,
    teacher: tuple[int, int],
    student: tuple[int, int] | None,
    grid: GranularitySet,
    **weights: float,
) -> DistillPlan:
    """'all_from_top' pairs the teacher with every other grid cell;
    'single_pair' names one student explicitly. ``weights`` (``lambda_d``,
    ``tau_d``) go to ``DistillPlan``, which holds their defaults."""
    teacher = (int(teacher[0]), int(teacher[1]))
    cells = grid.grid
    if teacher not in cells:
        raise ConfigError(f"teacher {teacher} is not a grid cell of {grid}")
    if mode == "all_from_top":
        pairs = tuple((teacher, cell) for cell in cells if cell != teacher)
    elif mode == "single_pair":
        if student is None:
            raise ConfigError("single_pair mode requires a student cell")
        student = (int(student[0]), int(student[1]))
        if student not in cells:
            raise ConfigError(f"student {student} is not a grid cell of {grid}")
        pairs = ((teacher, student),)
    else:
        raise ConfigError(f"unknown distillation mode {mode!r}")
    return DistillPlan(pairs=pairs, **weights)


def _grid(config: ModelConfig, granularity: GranularitySet | None) -> GranularitySet:
    """The grid an objective sums over: ``granularity``, or the model's."""
    gran = granularity or config.granularity
    if max(gran.dims) > config.hidden:
        raise ConfigError(f"grid dim {max(gran.dims)} exceeds hidden={config.hidden}")
    return gran


# ---------------------------------------------------------------------------
# Multigranular MLM and self-distillation
# ---------------------------------------------------------------------------


def _head_products(params: Parameters, config: ModelConfig, batch: MlmBatch,
                   gran: GranularitySet, dropout_rng: np.random.Generator | None = None
                   ) -> dict[tuple[int, int], Tensor]:
    """The bias-free head product of every (layer, dim) cell at the masked
    positions.

    One forward pass taps the grid layers; the [n x M] rows of each tap at
    the masked positions go through the shared head. The product of cell
    (l, d) is h[:, :d] @ W[:d, :], built for increasing d as a running sum of
    segment products h[:, d_j:d_{j+1}] @ W[d_j:d_{j+1}, :], so a layer's whole
    row of cells costs one max(d)-wide projection. Each weight segment
    W[d_j:d_{j+1}, :] is cut once and shared by every layer.
    """
    masked = np.flatnonzero(batch.labels != IGNORE_INDEX)
    states = enc.forward(params, config, batch.ids, batch.lengths, taps=gran.layers,
                         dropout_rng=dropout_rng)
    sequence_of = np.searchsorted(np.cumsum(batch.lengths), masked, side="right")
    if len(np.unique(sequence_of)) != len(batch.lengths):
        raise ContractError("every sequence needs at least one masked position")
    bounds = list(zip((0,) + gran.dims[:-1], gran.dims))
    segments = [T.take_rows(params.mlm_head_w, np.arange(start, stop)) for start, stop in bounds]
    products: dict[tuple[int, int], Tensor] = {}
    for l in gran.layers:
        h = T.take_rows(states[l], masked)
        acc: Tensor | None = None
        for (start, stop), w in zip(bounds, segments):
            seg = T.matmul(T.slice_last(h, start, stop), w)
            acc = seg if acc is None else T.add(acc, seg)
            products[(l, stop)] = acc
    return products


def matryoshka_mlm_loss(
    params: Parameters,
    config: ModelConfig,
    batch: MlmBatch,
    granularity: GranularitySet | None = None,
    plan: DistillPlan | None = None,
    *,
    dropout_rng: np.random.Generator | None = None,
) -> LossReport:
    """Masked-LM loss summed over every (layer, dim) cell of the grid, plus,
    with a distillation ``plan``, lambda_d times the summed KL terms (``aux``;
    None without a plan).

    A cell's logits are its head product (``_head_products``) plus the head
    bias; its loss scores the ground-truth tokens. For each (teacher, student)
    pair of the plan, the KL of the student's token distribution from the
    teacher's is taken at the masked positions (mean over them), with the
    student distribution first and no gradient flowing into the teacher
    branch. Distributions are softmax(h[:, :d] @ W[:d, :] / tau_d): the MLM
    cells' bias-free head products, scaled, so no cell is projected twice.
    Each distinct teacher cell is normalized once.
    """
    gran = _grid(config, granularity)
    for teacher, student in () if plan is None else plan.pairs:
        for cell in (tuple(teacher), tuple(student)):
            if cell not in gran.grid:
                raise ConfigError(f"distillation cell {cell} is outside the granularity grid")
    products = _head_products(params, config, batch, gran, dropout_rng)
    targets = batch.labels[batch.labels != IGNORE_INDEX]
    per_pair: dict[tuple[int, int], float] = {}
    total: Tensor | None = None
    for cell, product in products.items():
        loss = T.masked_cross_entropy(T.add(product, params.mlm_head_b), targets)
        per_pair[cell] = float(loss)
        total = loss if total is None else T.add(total, loss)
    if plan is None or not plan.pairs or plan.lambda_d == 0.0:
        return LossReport(per_pair=per_pair, total=float(total),
                          aux=None if plan is None else 0.0, node=total)

    inv_tau = 1.0 / plan.tau_d
    neg_log_teacher = {}
    for cell in dict.fromkeys(tuple(t) for t, _ in plan.pairs):
        product = products[cell].data
        x = product * product.dtype.type(inv_tau)
        m = x.max(axis=-1, keepdims=True)
        log_p = x - (m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True)))
        neg_log_teacher[cell] = -np.maximum(log_p, math.log(KL_FLOOR))

    aux: Tensor | None = None
    for teacher, student in plan.pairs:
        term = T.kl_rows(T.scale(products[tuple(student)], inv_tau),
                         neg_log_teacher[tuple(teacher)])
        aux = term if aux is None else T.add(aux, term)
    total = T.add(total, T.scale(aux, plan.lambda_d))
    return LossReport(per_pair=per_pair, total=float(total), aux=float(aux), node=total)


# ---------------------------------------------------------------------------
# Contrastive losses
# ---------------------------------------------------------------------------


def tiled_contrastive_loss(emb: Tensor, tau: float, tile: int | None) -> Tensor:
    """In-batch-negative contrastive loss over a [2B x d] stack of embeddings:
    rows [:B] are the queries, rows [B:] the documents, and query i's
    positive is document i.

    Scores are inner products of the (already unit-norm) embeddings divided
    by the temperature; the loss is the mean over queries of log-sum-exp of
    a score row minus its diagonal score. The score matrix is streamed in
    column tiles of ``tile`` documents with running log-sum-exp
    accumulators, and each diagonal score is read from its own tile, the
    entry the log-sum-exp reads, so a batch of one scores exactly 0. The
    backward pass recomputes each tile, so no B x B array exists when
    tile < B; auxiliary storage is O(B * tile + tile^2).
    ``tile=None`` is one tile of the whole batch. The gradient is one
    [2B x d] buffer, laid out as ``emb``.
    """
    if tau <= 0:
        raise ConfigError("temperature must be positive")
    if emb.ndim != 2 or emb.shape[0] % 2:
        raise ShapeError(f"expected a [2B x d] query | document stack, got {emb.shape}")
    x = emb.data
    if np.abs(np.sqrt((x * x).sum(axis=-1)) - 1.0).max() > 1e-3:
        raise ContractError("embedding rows are not L2-normalized (norm off by > 1e-3)")

    b = x.shape[0] // 2
    q, d = x[:b], x[b:]
    t = b if tile is None else tile
    inv_tau = 1.0 / tau

    diag = np.empty(b, dtype=q.dtype)
    run_max = np.full(b, -np.inf, dtype=q.dtype)
    run_sum = np.zeros(b, dtype=q.dtype)
    for j0 in range(0, b, t):
        block = d[j0:j0 + t]
        scores = (q @ block.T) * inv_tau
        diag[j0:j0 + t] = scores[j0:j0 + t].diagonal()
        new_max = np.maximum(run_max, scores.max(axis=1))
        run_sum = run_sum * np.exp(run_max - new_max) + np.exp(
            scores - new_max[:, None]).sum(axis=1)
        run_max = new_max
    lse = run_max + np.log(run_sum)
    loss = float((lse - diag).mean())

    def bwd(g):
        coef = float(g) * inv_tau / b
        gx = np.zeros_like(x)
        gq, gd = gx[:b], gx[b:]
        for j0 in range(0, b, t):
            block = d[j0:j0 + t]
            scores = (q @ block.T) * inv_tau
            soft = np.exp(scores - lse[:, None])
            rows = np.arange(j0, min(j0 + t, b))
            soft[rows, rows - j0] -= 1.0
            gq += (soft @ block) * coef
            gd[j0:j0 + t] += (soft.T @ q) * coef
        return (gx,)

    return T._from_op(np.asarray(loss, dtype=x.dtype), "tiled_contrastive", (emb,), bwd)


def matryoshka_contrastive_loss(
    params: Parameters,
    config: ModelConfig,
    batch: PairBatch,
    tau: float,
    tile: int | None,
    granularity: GranularitySet | None = None,
    *,
    dropout_rng: np.random.Generator | None = None,
) -> LossReport:
    """Tiled contrastive loss summed over every (layer, dim) grid cell, from
    one forward pass over the batch's queries followed by its documents, one
    packed batch of 2B sequences. MRL fine-tuning is a one-layer grid.

    The 2B sequences are pooled once per layer; every dim's [2B x d]
    embeddings are prefixes of that pooled state, re-normalized
    (``enc.cell_embedding``).
    """
    gran = _grid(config, granularity)
    if len(batch.doc_lengths) != batch.size:
        raise ShapeError(f"{batch.size} queries but {len(batch.doc_lengths)} documents")
    lengths = np.concatenate([batch.query_lengths, batch.doc_lengths])
    states = enc.forward(params, config, np.concatenate([batch.query_ids, batch.doc_ids]),
                         lengths, taps=gran.layers, dropout_rng=dropout_rng)
    per_pair: dict[tuple[int, int], float] = {}
    total: Tensor | None = None
    for l in gran.layers:
        pooled = enc.pool(states[l], lengths)
        for d in gran.dims:
            cell = tiled_contrastive_loss(enc.cell_embedding(pooled, d), tau, tile)
            per_pair[(l, d)] = float(cell)
            total = cell if total is None else T.add(total, cell)
    return LossReport(per_pair=per_pair, total=float(total), node=total)
