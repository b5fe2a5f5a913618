"""Training objectives over the (layer, dim) granularity grid.

Each objective has one implementation; a grid objective is that loss summed
over truncated inputs.

* multigranular MLM: one forward pass, one masked-cross-entropy cell per
  (tapped layer, truncation dim), summed without weights
* in-batch-negative contrastive loss, streamed over column tiles of the
  score matrix; ``tile=None`` is a single tile spanning the batch
* MRL fine-tuning: the contrastive loss summed over several truncation dims
  of one layer; the grid contrastive loss sums it over every grid cell
* self-distillation: the multigranular MLM cells plus lambda_d times the KL
  from a teacher (layer, dim) cell's token distribution to student cells;
  teacher and student logits come from the same tape ops, the teacher's
  under ``no_grad``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import tensor as T
from .data import MlmBatch, PairBatch
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

    def cells(self) -> set[tuple[int, int]]:
        out = set()
        for teacher, student in self.pairs:
            out.add(tuple(teacher))
            out.add(tuple(student))
        return out


def build_distill_plan(
    mode: str,
    teacher: tuple[int, int],
    student: tuple[int, int] | None,
    grid: GranularitySet,
    lambda_d: float = 1.0,
    tau_d: float = 1.0,
) -> DistillPlan:
    """'all_from_top' pairs the teacher with every other grid cell;
    'single_pair' names one student explicitly."""
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
    return DistillPlan(pairs=pairs, lambda_d=lambda_d, tau_d=tau_d)


# ---------------------------------------------------------------------------
# Multigranular MLM
# ---------------------------------------------------------------------------


def _masked_states(params: Parameters, config: ModelConfig, batch: MlmBatch,
                   layers: tuple[int, ...], **fwd) -> dict[int, Tensor]:
    """One forward pass; each tapped layer's [n x M] rows at the masked positions."""
    states = enc.forward(params, config, batch.tokens, batch.attn_mask, taps=layers, **fwd)
    flat_idx = np.flatnonzero(batch.mask_positions.reshape(-1))
    out = {}
    for l in layers:
        b, s, m = states[l].shape
        out[l] = T.take_rows(T.reshape(states[l], (b * s, m)), flat_idx)
    return out


def _segmented_head_logits(params: Parameters, h_masked: Tensor,
                           dims: tuple[int, ...]) -> dict[int, Tensor]:
    """Head logits for every truncation dim, sharing partial products.

    logits(d_{j+1}) = logits(d_j) + h[:, d_j:d_{j+1}] @ W[d_j:d_{j+1}, :], so
    the full grid costs one max(d)-wide projection instead of sum(d).
    """
    out: dict[int, Tensor] = {}
    acc: Tensor | None = None
    prev = 0
    for d in dims:
        seg = T.matmul(T.slice_last(h_masked, prev, d),
                       T.slice_rows(params.mlm_head_w, prev, d))
        acc = seg if acc is None else T.add(acc, seg)
        out[d] = T.add(acc, params.mlm_head_b)
        prev = d
    return out


def _mlm_cells(params: Parameters, config: ModelConfig, batch: MlmBatch,
               gran: GranularitySet, **fwd):
    """The masked rows per tapped layer, the per-cell losses and their sum.

    One forward pass taps the grid layers; each cell projects the tapped
    state truncated to its dim through the shared head and scores the
    ground-truth tokens at the masked positions.
    """
    if not batch.mask_positions.any(axis=-1).all():
        raise ContractError("every sequence needs at least one masked position")
    masked = _masked_states(params, config, batch, gran.layers, **fwd)
    targets = batch.labels.reshape(-1)[np.flatnonzero(batch.mask_positions.reshape(-1))]
    all_true = np.ones(targets.shape[0], dtype=bool)
    per_pair: dict[tuple[int, int], float] = {}
    total: Tensor | None = None
    for l in gran.layers:
        logits_by_dim = _segmented_head_logits(params, masked[l], gran.dims)
        for d in gran.dims:
            cell = T.masked_cross_entropy(logits_by_dim[d], targets, all_true)
            per_pair[(l, d)] = float(cell)
            total = cell if total is None else T.add(total, cell)
    return masked, per_pair, total


def matryoshka_mlm_loss(
    params: Parameters,
    config: ModelConfig,
    batch: MlmBatch,
    granularity: GranularitySet | None = None,
    *,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> LossReport:
    """Masked-LM loss summed over every (layer, dim) cell of the grid."""
    _, per_pair, total = _mlm_cells(params, config, batch, granularity or config.granularity,
                                    training=training, dropout_rng=dropout_rng)
    return LossReport(per_pair=per_pair, total=float(total), node=total)


# ---------------------------------------------------------------------------
# Contrastive losses
# ---------------------------------------------------------------------------


def _check_normalized(emb: Tensor, name: str) -> None:
    norms = np.sqrt((emb.data * emb.data).sum(axis=-1))
    if np.abs(norms - 1.0).max() > 1e-3:
        raise ContractError(f"{name} rows are not L2-normalized (norm off by > 1e-3)")


def tiled_contrastive_loss(
    q_emb: Tensor,
    d_emb: Tensor,
    tau: float,
    tile: int | None,
    shape_probe: list | None = None,
) -> Tensor:
    """In-batch-negative contrastive loss; row i's positive is document i.

    Scores are inner products of the (already unit-norm) embeddings divided
    by the temperature; the loss is the mean over queries of log-sum-exp of
    a score row minus its diagonal score. The score matrix is streamed in
    column tiles of ``tile`` documents with running log-sum-exp
    accumulators, and the backward pass recomputes each tile, so no B x B
    array exists when tile < B; auxiliary storage is O(B * tile + tile^2).
    ``tile=None`` is one tile of the whole batch.

    ``shape_probe``, when given a list, records the shape of every
    temporary array the computation allocates (a testing hook).
    """
    if tau <= 0:
        raise ConfigError("temperature must be positive")
    if q_emb.ndim != 2 or q_emb.shape != d_emb.shape:
        raise ShapeError(f"embedding shapes disagree: {q_emb.shape} vs {d_emb.shape}")
    _check_normalized(q_emb, "query embeddings")
    _check_normalized(d_emb, "document embeddings")

    q, d = q_emb.data, d_emb.data
    b = q.shape[0]
    t = b if tile is None else tile
    inv_tau = 1.0 / tau

    def probe(arr: np.ndarray) -> np.ndarray:
        if shape_probe is not None:
            shape_probe.append(arr.shape)
        return arr

    diag = probe((q * d).sum(axis=1) * inv_tau)
    run_max = probe(np.full(b, -np.inf, dtype=q.dtype))
    run_sum = probe(np.zeros(b, dtype=q.dtype))
    for j0 in range(0, b, t):
        block = d[j0:j0 + t]
        scores = probe((q @ block.T) * inv_tau)
        new_max = probe(np.maximum(run_max, scores.max(axis=1)))
        run_sum = run_sum * np.exp(run_max - new_max) + np.exp(
            scores - new_max[:, None]).sum(axis=1)
        run_max = new_max
    lse = probe(run_max + np.log(run_sum))
    loss = float((lse - diag).mean())

    def bwd(g):
        coef = float(g) * inv_tau / b
        gq = np.zeros_like(q)
        gd = np.zeros_like(d)
        for j0 in range(0, b, t):
            block = d[j0:j0 + t]
            scores = probe((q @ block.T) * inv_tau)
            soft = probe(np.exp(scores - lse[:, None]))
            rows = np.arange(j0, min(j0 + t, b))
            soft[rows, rows - j0] -= 1.0
            gq += (soft @ block) * coef
            gd[j0:j0 + t] += (soft.T @ q) * coef
        return gq, gd

    return T._from_op(np.asarray(loss, dtype=q.dtype), "tiled_contrastive",
                      (q_emb, d_emb), bwd)


# ---------------------------------------------------------------------------
# Pair-batch objectives over the grid
# ---------------------------------------------------------------------------


def _contrastive_cells(params: Parameters, config: ModelConfig, batch: PairBatch,
                       layers: tuple[int, ...], dims: tuple[int, ...], tau: float,
                       tile: int | None, **fwd) -> LossReport:
    """Contrastive loss of every (layer, dim) cell in ``layers`` x ``dims``, from
    one query and one document forward pass.

    Each cell's query/document embeddings are pooled, truncated, and
    independently re-normalized before its loss is computed.
    """
    q_states = enc.forward(params, config, batch.query_tokens, batch.query_mask,
                           taps=layers, **fwd)
    d_states = enc.forward(params, config, batch.doc_tokens, batch.doc_mask,
                           taps=layers, **fwd)
    per_pair: dict[tuple[int, int], float] = {}
    total: Tensor | None = None
    for l in layers:
        for d in dims:
            q_emb = enc.pool(q_states[l], batch.query_mask, d)
            d_emb = enc.pool(d_states[l], batch.doc_mask, d)
            cell = tiled_contrastive_loss(q_emb, d_emb, tau, tile)
            per_pair[(l, d)] = float(cell)
            total = cell if total is None else T.add(total, cell)
    return LossReport(per_pair=per_pair, total=float(total), node=total)


def mrl_sft_loss(
    params: Parameters,
    config: ModelConfig,
    batch: PairBatch,
    dims: tuple[int, ...],
    layer: int,
    tau: float,
    tile: int | None = None,
    *,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> LossReport:
    """Contrastive loss summed over several truncation dims of one layer."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ConfigError("dims must be non-empty")
    for d in dims:
        if d > config.hidden:
            raise ConfigError(f"dim {d} exceeds hidden={config.hidden}")
    return _contrastive_cells(params, config, batch, (layer,), dims, tau, tile,
                              training=training, dropout_rng=dropout_rng)


def matryoshka_contrastive_loss(
    params: Parameters,
    config: ModelConfig,
    batch: PairBatch,
    tau: float,
    tile: int | None,
    granularity: GranularitySet | None = None,
    *,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> LossReport:
    """Tiled contrastive loss summed over every (layer, dim) grid cell."""
    gran = granularity or config.granularity
    return _contrastive_cells(params, config, batch, gran.layers, gran.dims, tau, tile,
                              training=training, dropout_rng=dropout_rng)


# ---------------------------------------------------------------------------
# Matryoshka self-distillation
# ---------------------------------------------------------------------------


def distill_loss(
    params: Parameters,
    config: ModelConfig,
    batch: MlmBatch,
    plan: DistillPlan,
    granularity: GranularitySet | None = None,
    teacher_params: Parameters | None = None,
    *,
    training: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> LossReport:
    """Multigranular MLM total plus lambda_d times the summed KL terms.

    For each (teacher, student) pair, the KL of the student's token
    distribution from the teacher's is taken at the masked positions (mean
    over them), with the student distribution first and no gradient flowing
    into the teacher branch. Distributions are
    softmax(h[:, :d] @ W[:d, :] / tau_d) -- the shared head without its
    bias. Each distinct teacher cell is computed once. ``teacher_params``,
    when given, sources the teacher distributions from a frozen parameter
    copy instead of the live weights.
    """
    gran = granularity or config.granularity
    grid = set(gran.grid)
    for teacher, student in plan.pairs:
        for cell in (tuple(teacher), tuple(student)):
            if cell[1] > config.hidden:
                raise ConfigError(f"distillation cell {cell} has dim > hidden={config.hidden}")
            if cell not in grid:
                raise ConfigError(f"distillation cell {cell} is outside the granularity grid")
    masked, per_pair, total = _mlm_cells(params, config, batch, gran,
                                         training=training, dropout_rng=dropout_rng)
    if not plan.pairs or plan.lambda_d == 0.0:
        return LossReport(per_pair=per_pair, total=float(total), aux=0.0, node=total)

    def head_logits(states: dict[int, Tensor], head_w: Tensor, cell) -> Tensor:
        l, d = cell
        return T.scale(T.matmul(T.slice_last(states[l], 0, d), T.slice_rows(head_w, 0, d)),
                       1.0 / plan.tau_d)

    teacher_states, teacher_w = masked, params.mlm_head_w
    with T.no_grad():
        if teacher_params is not None:
            teacher_states = _masked_states(teacher_params, config, batch, gran.layers)
            teacher_w = teacher_params.mlm_head_w
        neg_log_teacher = {}
        for cell in dict.fromkeys(tuple(t) for t, _ in plan.pairs):
            log_p = T.log_softmax_rows(head_logits(teacher_states, teacher_w, cell))
            neg_log_teacher[cell] = Tensor(-np.maximum(log_p.data, np.log(KL_FLOOR)))

    n_rows = next(iter(masked.values())).shape[0]
    aux: Tensor | None = None
    for teacher, student in plan.pairs:
        zs = head_logits(masked, params.mlm_head_w, tuple(student))
        gap = T.add(T.log_softmax_rows(zs), neg_log_teacher[tuple(teacher)])
        term = T.scale(T.tsum(T.mul(T.softmax_rows(zs), gap)), 1.0 / n_rows)
        aux = term if aux is None else T.add(aux, term)
    total = T.add(total, T.scale(aux, plan.lambda_d))
    return LossReport(per_pair=per_pair, total=float(total), aux=float(aux), node=total)
