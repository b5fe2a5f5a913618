"""Optimization loop, staged orchestration, and checkpointing.

Stages run sequentially over one shared parameter set: MLM pretraining,
multilingual MLM, tiled contrastive pretraining, contrastive fine-tuning
(single-dim or multi-dim), and the distillation continuation. Every batch,
mask, and dropout draw is addressed as a pure function of (seed, stage,
step), so a resumed run replays the exact stream of an unbroken one.

Checkpoint file layout: magic ``M3CK``, little-endian u32 format version,
one line of UTF-8 JSON manifest (model config, vocabulary, tensor table
with shapes/offsets/checksums, optimizer state table, step, stage, rng),
then raw little-endian IEEE-754 tensor payloads in manifest order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import encoder as enc
from . import objectives as obj
from .data import Vocab
from .encoder import GranularitySet, ModelConfig, Parameters
from .errors import CheckpointError, ConfigError, NumericsError, TrainingAbort
from .objectives import DistillPlan, LossReport
from .rng import named_rng
from .tensor import GradientRecord, zero_grads

CHECKPOINT_MAGIC = b"M3CK"
CHECKPOINT_VERSION = 1

STAGE_KINDS = ("pretrain_mlm", "pretrain_contrastive", "sft", "sft_mrl", "distill")


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01

    @classmethod
    def init(cls, named_params, **hyper) -> "OptimizerState":
        m = {name: np.zeros_like(p.data) for name, p in named_params}
        v = {name: np.zeros_like(arr) for name, arr in m.items()}
        return cls(m=m, v=v, **hyper)


def adamw_step(named_params, grads: GradientRecord, state: OptimizerState, lr: float) -> None:
    """One decoupled-weight-decay Adam update, in place.

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)
    """
    if lr < 0:
        raise ConfigError("learning rate must be non-negative")
    named_params = list(named_params)
    for name, p in named_params:
        g = grads[name]
        if g.shape != p.data.shape:
            raise ConfigError(f"gradient/parameter shape mismatch for {name}")
        if not np.isfinite(g).all():
            raise TrainingAbort(f"non-finite gradient in {name} at optimizer step {state.t + 1}")
    t = state.t + 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in named_params:
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * p.data)
    state.t = t


def clip_grads_global_norm(grads: GradientRecord, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for _, g in grads:
        total += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for _, g in grads:
            g *= scale
    return norm


# ---------------------------------------------------------------------------
# Learning-rate schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    peak_lr: float
    warmup_steps: int
    total_steps: int
    min_lr: float = 0.0

    def __post_init__(self):
        if self.peak_lr <= 0 or self.min_lr < 0:
            raise ConfigError("peak_lr must be positive and min_lr non-negative")
        if self.warmup_steps < 1 or self.total_steps <= self.warmup_steps:
            raise ConfigError("need warmup_steps >= 1 and total_steps > warmup_steps")


def cosine_lr(schedule: Schedule, step: int) -> float:
    """Linear ramp 0 -> peak over the warmup, then cosine decay to min_lr.

    Steps beyond total_steps clamp to min_lr.
    """
    if step < 0:
        raise ConfigError("step must be non-negative")
    if step <= schedule.warmup_steps:
        return schedule.peak_lr * step / schedule.warmup_steps
    if step >= schedule.total_steps:
        return schedule.min_lr
    frac = (step - schedule.warmup_steps) / (schedule.total_steps - schedule.warmup_steps)
    return schedule.min_lr + 0.5 * (schedule.peak_lr - schedule.min_lr) * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# Stage configuration
# ---------------------------------------------------------------------------


@dataclass
class StageConfig:
    name: str
    stage: str
    steps: int
    batch_size: int
    lr: float
    warmup_steps: int = 1
    min_lr: float = 0.0
    granularity: GranularitySet | None = None
    mask_rate: float = 0.15
    mask_policy: str = "bert_80_10_10"
    tau: float = 0.05
    tile: int | None = None
    sft_layer: int | None = None
    sft_dims: tuple[int, ...] | None = None
    distill_plan: DistillPlan | None = None
    checkpoint_every: int | None = None
    grad_clip: float | None = None

    def __post_init__(self):
        if self.stage not in STAGE_KINDS:
            raise ConfigError(f"stage must be one of {STAGE_KINDS}, got {self.stage!r}")
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("steps must be >= 0 and batch_size >= 1")
        if self.stage in ("sft", "sft_mrl"):
            if self.sft_layer is None or not self.sft_dims:
                raise ConfigError(f"stage {self.stage} requires sft_layer and sft_dims")
            if self.stage == "sft" and len(self.sft_dims) != 1:
                raise ConfigError("stage sft takes exactly one dim; use sft_mrl for several")
        elif self.sft_layer is not None or self.sft_dims is not None:
            raise ConfigError(f"sft_layer/sft_dims are only valid for sft stages")
        if self.stage == "distill":
            if self.distill_plan is None:
                raise ConfigError("stage distill requires a distillation plan")
        elif self.distill_plan is not None:
            raise ConfigError("distill_plan is only valid for the distill stage")
        if self.stage == "pretrain_contrastive" and self.tile is None:
            raise ConfigError("pretrain_contrastive requires a tile size")
        if self.tile is not None and self.tile < 1:
            raise ConfigError(f"tile must be >= 1, got {self.tile}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be > 0, got {self.grad_clip}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ConfigError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")

    def schedule(self) -> Schedule:
        total = max(self.steps, self.warmup_steps + 1)
        return Schedule(peak_lr=self.lr, warmup_steps=self.warmup_steps,
                        total_steps=total, min_lr=self.min_lr)


# ---------------------------------------------------------------------------
# Train state and checkpointing
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    config: ModelConfig
    params: Parameters
    opt: OptimizerState | None
    step: int
    stage: str
    base_seed: int
    vocab: Vocab | None = None


def params_fingerprint(params: Parameters) -> str:
    h = hashlib.sha256()
    for name, p in params.named():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()[:16]


def _dtype_tag(arr: np.ndarray) -> str:
    return {"float32": "<f4", "float64": "<f8"}[arr.dtype.name]


def save_checkpoint(state: TrainState, path) -> None:
    """Write the M3CK container; byte-identical for identical states.

    The bytes go to ``<path>.tmp`` in the same directory, which then replaces
    ``path`` in one rename, so a write that fails part-way leaves the previous
    file at ``path`` as it was.
    """
    tensors = []
    payloads = []
    offset = 0

    def push(name: str, arr: np.ndarray):
        nonlocal offset
        raw = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
        tensors.append({
            "name": name, "shape": list(arr.shape), "dtype": _dtype_tag(arr),
            "offset": offset, "nbytes": len(raw), "crc32": zlib.crc32(raw),
        })
        payloads.append(raw)
        offset += len(raw)

    for name, p in state.params.named():
        push(f"param/{name}", p.data)
    opt_meta = None
    if state.opt is not None:
        for name in state.opt.m:
            push(f"opt.m/{name}", state.opt.m[name])
        for name in state.opt.v:
            push(f"opt.v/{name}", state.opt.v[name])
        opt_meta = {"t": state.opt.t, "beta1": state.opt.beta1, "beta2": state.opt.beta2,
                    "eps": state.opt.eps, "weight_decay": state.opt.weight_decay}

    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model": enc.config_to_dict(state.config),
        "vocab": list(state.vocab.id_to_token) if state.vocab is not None else None,
        "step": state.step,
        "stage": state.stage,
        "rng": {"base_seed": state.base_seed},
        "optimizer": opt_meta,
        "tensors": tensors,
        "fingerprint": params_fingerprint(state.params),
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(blob)
            f.write(b"\n")
            for raw in payloads:
                f.write(raw)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> TrainState:
    """Read and verify an M3CK container (magic, version, length, checksums)."""
    raw = Path(path).read_bytes()
    if len(raw) < 9 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: format version {version} unsupported "
                              f"(expected {CHECKPOINT_VERSION})")
    nl = raw.find(b"\n", 8)
    if nl < 0:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[8:nl].decode("utf-8"))
        tensors = manifest["tensors"]
        config = enc.config_from_dict(manifest["model"])
        opt_meta, vocab_tokens = manifest["optimizer"], manifest["vocab"]
        step, stage, base_seed = manifest["step"], manifest["stage"], manifest["rng"]["base_seed"]
    except (KeyError, TypeError, ValueError, ConfigError) as e:  # JSON/UTF-8 errors are ValueErrors
        raise CheckpointError(f"{path}: unreadable manifest: {e!r}") from e
    _check_tensor_table(path, tensors)
    # the config fixes every parameter shape; check its extents against the
    # table before allocating parameters for it
    shapes = {t["name"]: t["shape"] for t in tensors}
    m = config.hidden
    for name, shape in (("token_embedding", [config.vocab, m]),
                        ("position_embedding", [config.max_seq, m]),
                        (f"layers.{config.n_layers - 1}.ffn_up", [m, config.intermediate])):
        if shapes.get(f"param/{name}") != shape:
            raise CheckpointError(f"{path}: tensor param/{name} is missing or not of the "
                                  f"shape {shape} that the model config implies")
    payload = raw[nl + 1:]
    expected = sum(t["nbytes"] for t in tensors)
    if len(payload) != expected:
        raise CheckpointError(f"{path}: payload is {len(payload)} bytes, manifest "
                              f"declares {expected} (truncated or padded)")

    arrays: dict[str, np.ndarray] = {}
    for t in tensors:
        chunk = payload[t["offset"]: t["offset"] + t["nbytes"]]
        if len(chunk) != t["nbytes"] or zlib.crc32(chunk) != t["crc32"]:
            raise CheckpointError(f"{path}: checksum mismatch for tensor {t['name']}")
        arrays[t["name"]] = np.frombuffer(chunk, dtype=t["dtype"]).reshape(t["shape"]).copy()

    dtype = arrays["param/token_embedding"].dtype
    params = enc.init_parameters(config, seed=0, dtype=dtype)
    for name, p in params.named():
        key = f"param/{name}"
        if key not in arrays:
            raise CheckpointError(f"{path}: missing tensor {key}")
        if tuple(arrays[key].shape) != p.data.shape:
            raise CheckpointError(f"{path}: tensor {key} has shape {arrays[key].shape}, "
                                  f"expected {p.data.shape}")
        p.data = arrays[key]

    opt = None
    if opt_meta is not None:
        try:
            opt = OptimizerState(
                m={name: arrays[f"opt.m/{name}"] for name, _ in params.named()},
                v={name: arrays[f"opt.v/{name}"] for name, _ in params.named()},
                t=opt_meta["t"], beta1=opt_meta["beta1"], beta2=opt_meta["beta2"],
                eps=opt_meta["eps"], weight_decay=opt_meta["weight_decay"],
            )
        except (KeyError, TypeError) as e:
            raise CheckpointError(f"{path}: incomplete optimizer state: {e!r}") from e
    vocab = None
    if vocab_tokens is not None:
        if not (isinstance(vocab_tokens, list) and all(isinstance(t, str) for t in vocab_tokens)):
            raise CheckpointError(f"{path}: vocabulary must be a list of strings")
        tokens = tuple(vocab_tokens)
        vocab = Vocab(id_to_token=tokens, token_to_id={t: i for i, t in enumerate(tokens)})
    return TrainState(config=config, params=params, opt=opt, step=step, stage=stage,
                      base_seed=base_seed, vocab=vocab)


def _check_tensor_table(path, tensors) -> None:
    """Every entry names a float tensor whose byte count matches its shape."""
    if not isinstance(tensors, list):
        raise CheckpointError(f"{path}: manifest tensor table is not a list")

    def count(v) -> bool:
        return type(v) is int and v >= 0

    for i, t in enumerate(tensors):
        if not (isinstance(t, dict) and isinstance(t.get("name"), str)
                and t.get("dtype") in ("<f4", "<f8") and isinstance(t.get("shape"), list)
                and all(count(n) for n in t["shape"])
                and all(count(t.get(key)) for key in ("offset", "nbytes", "crc32"))):
            raise CheckpointError(f"{path}: malformed tensor entry {i} "
                                  "(needs name, dtype <f4/<f8, shape, offset, nbytes, crc32)")
        if math.prod(t["shape"]) * int(t["dtype"][2:]) != t["nbytes"]:
            raise CheckpointError(f"{path}: tensor {t['name']} declares {t['nbytes']} bytes "
                                  f"for shape {t['shape']} {t['dtype']}")


# ---------------------------------------------------------------------------
# Metric sinks
# ---------------------------------------------------------------------------


class JsonlSink:
    """Appends one JSON record per line; the metric log format."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._f = open(self.path, "a", encoding="utf-8")

    def emit(self, record: dict) -> None:
        self._f.write(json.dumps(record, sort_keys=True) + "\n")
        self._f.flush()

    def close(self) -> None:
        self._f.close()


class ListSink(list):
    def emit(self, record: dict) -> None:
        self.append(record)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Stage execution
# ---------------------------------------------------------------------------


def _stage_loss(stage: StageConfig, state: TrainState, batch, dropout_rng) -> LossReport:
    cfg = state.config
    params = state.params
    training = cfg.hidden_dropout > 0.0
    kwargs = dict(training=training, dropout_rng=dropout_rng)
    if stage.stage == "pretrain_mlm":
        return obj.matryoshka_mlm_loss(params, cfg, batch, granularity=stage.granularity,
                                       **kwargs)
    if stage.stage == "pretrain_contrastive":
        return obj.matryoshka_contrastive_loss(params, cfg, batch, tau=stage.tau,
                                               tile=stage.tile,
                                               granularity=stage.granularity, **kwargs)
    if stage.stage in ("sft", "sft_mrl"):
        return obj.mrl_sft_loss(params, cfg, batch, dims=tuple(stage.sft_dims),
                                layer=stage.sft_layer, tau=stage.tau, tile=stage.tile, **kwargs)
    if stage.stage == "distill":
        return obj.distill_loss(params, cfg, batch, stage.distill_plan,
                                granularity=stage.granularity, **kwargs)
    raise ConfigError(f"unknown stage kind {stage.stage!r}")


def run_stage(
    stage: StageConfig,
    state: TrainState,
    source,
    sink,
    output_dir=None,
    start_step: int | None = None,
) -> TrainState:
    """Execute one stage; mutates ``state.params`` in place and returns it.

    Batches are drawn from ``source.batch(rng, batch_size)`` with a
    per-(seed, stage, step) generator. A fresh optimizer is created unless
    the state resumes the same stage mid-flight. On a non-finite loss or
    gradient the stage aborts; the last checkpoint on disk stays intact.
    """
    if start_step is None:
        start_step = state.step if state.stage == stage.name else 0
    if state.opt is None or state.stage != stage.name:
        state.opt = OptimizerState.init(state.params.named())
    state.stage = stage.name
    state.step = start_step
    schedule = stage.schedule()
    named = state.params.named()
    last_ckpt = None

    sink.emit({"event": "stage_start", "stage": stage.name, "step": start_step,
               "fingerprint": params_fingerprint(state.params)})
    for i in range(start_step, stage.steps):
        t0 = time.perf_counter()
        rng = named_rng(state.base_seed, stage.name, "batch", i)
        batch = source.batch(rng, stage.batch_size)
        dropout_rng = named_rng(state.base_seed, stage.name, "dropout", i)
        try:
            report = _stage_loss(stage, state, batch, dropout_rng)
            if not math.isfinite(report.total):
                raise NumericsError(f"loss is {report.total}")
            zero_grads(named)
            report.node.backward()
            grads = GradientRecord.collect(named)
            if stage.grad_clip is not None:
                clip_grads_global_norm(grads, stage.grad_clip)
            lr = cosine_lr(schedule, i + 1)
            adamw_step(named, grads, state.opt, lr)
        except (NumericsError, TrainingAbort) as e:
            sink.emit({"event": "abort", "stage": stage.name, "step": i, "error": str(e),
                       "last_checkpoint": str(last_ckpt) if last_ckpt else None})
            raise TrainingAbort(
                f"stage {stage.name} aborted at step {i}: {e}; "
                f"last good checkpoint: {last_ckpt}") from e
        zero_grads(named)
        state.step = i + 1
        record = {"step": i, "stage": stage.name, "lr": lr,
                  "total": report.total, "wall_ms": (time.perf_counter() - t0) * 1e3}
        for (l, d), value in report.per_pair.items():
            record[f"L{l}-D{d}"] = value
        if report.aux is not None:
            record["aux"] = report.aux
        sink.emit(record)
        if (output_dir is not None and stage.checkpoint_every
                and (i + 1) % stage.checkpoint_every == 0):
            last_ckpt = Path(output_dir) / f"{stage.name}-step{i + 1}.m3ck"
            save_checkpoint(state, last_ckpt)
    sink.emit({"event": "stage_end", "stage": stage.name, "step": state.step,
               "fingerprint": params_fingerprint(state.params)})
    return state


def run_stages(stages_with_sources, state: TrainState, sink, output_dir=None) -> TrainState:
    """Run stages sequentially; each starts from the previous stage's weights
    and writes ``<stage-name>.m3ck`` at its end when an output dir is given."""
    for stage, source in stages_with_sources:
        state = run_stage(stage, state, source, sink, output_dir=output_dir)
        if output_dir is not None:
            save_checkpoint(state, Path(output_dir) / f"{stage.name}.m3ck")
    return state
