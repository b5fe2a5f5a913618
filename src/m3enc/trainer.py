"""Optimization loop, staged orchestration, and checkpointing.

Stages run sequentially over one shared parameter set: MLM pretraining,
multilingual MLM, tiled contrastive pretraining, contrastive fine-tuning
over one or more dims of one layer (``sft_mrl``), and the distillation
continuation. MLM and distill stages train the MLM grid objective (distill
with its plan), pair stages the contrastive grid objective. Every batch,
mask, and dropout draw is addressed as a pure function of (seed, stage,
step), so a resumed run replays the exact stream of an unbroken one. Each
step passes its dropout generator; dropout runs when the model's
``hidden_dropout`` is above 0. The learning rate at each step is
``cosine_lr`` of the stage's ``StageConfig``: a linear warmup to ``lr``,
then a cosine decay to ``min_lr``. A step whose loss, gradient or updated
parameters are not finite aborts the stage before its state is saved, and
``load_checkpoint`` refuses a file holding a non-finite tensor.

Checkpoint file layout (version 3): magic ``M3CK``, little-endian u32 format
version, one line of UTF-8 JSON manifest (model config, vocabulary, step,
stage, rng, optimizer ``{"t": t}`` or null, and a shape/offset/checksum table
of the parameters and AdamW moments), then their little-endian IEEE-754 payloads.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import encoder as enc
from . import objectives as obj
from .data import MASK_POLICIES, Vocab
from .encoder import GranularitySet, ModelConfig, Parameters
from .errors import (CheckpointError, ConfigError, ContractError, NumericsError, TrainingAbort,
                     writing)
from .objectives import DistillPlan, LossReport
from .rng import named_rng
from .tensor import zero_grads

CHECKPOINT_MAGIC = b"M3CK"
# 1 held separate q/k/v and gate/up tensors; 2 stored AdamW's hyperparameters,
# a format_version and a fingerprint, and allowed a null vocabulary
CHECKPOINT_VERSION = 3

# sft_mrl with one dim is single-dim contrastive fine-tuning
STAGE_KINDS = ("pretrain_mlm", "pretrain_contrastive", "sft_mrl", "distill")


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


# AdamW's usual defaults (Loshchilov & Hutter, arXiv:1711.05101)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01


@dataclass
class OptimizerState:
    """AdamW's moments ``m``, ``v`` of each named parameter and its step count
    ``t``; the hyperparameters are ``ADAM_BETA1``, ``ADAM_BETA2``,
    ``ADAM_EPS`` and ``WEIGHT_DECAY``."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, named_params) -> "OptimizerState":
        m = {name: np.zeros_like(p.data) for name, p in named_params}
        v = {name: np.zeros_like(arr) for name, arr in m.items()}
        return cls(m=m, v=v)


def adamw_step(named_params, grads: dict[str, np.ndarray], state: OptimizerState,
               lr: float) -> None:
    """One decoupled-weight-decay Adam update, in place, from the gradient of
    each named parameter in ``grads``.

    p <- p - lr * (m_hat / (sqrt(v_hat) + ADAM_EPS) + WEIGHT_DECAY * p)

    A non-finite gradient, checked before any update, second moment or
    updated parameter raises ``TrainingAbort`` naming the tensor and the
    optimizer step.
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
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in named_params:
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        # the formula's operations in its order and dtype, through two buffers
        a, b = np.empty_like(g), np.empty_like(g)
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(g, g, out=a)
        a *= 1.0 - ADAM_BETA2
        v += a
        if not np.isfinite(v).all():  # |m| <= max|g|, but g*g can overflow
            raise TrainingAbort(f"non-finite optimizer moment opt.v/{name} at optimizer step {t}")
        np.divide(v, bc2, out=a)  # v_hat
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, bc1, out=b)  # m_hat
        b /= a
        np.multiply(p.data, WEIGHT_DECAY, out=a)
        b += a
        b *= lr
        p.data -= b
        if not np.isfinite(p.data).all():
            raise TrainingAbort(f"non-finite parameter {name} at optimizer step {t}")
    state.t = t


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    """The global L2 norm of all gradients, summed in float64; read-only."""
    return math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))


def clip_grads_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``;
    returns the norm before scaling."""
    norm = global_grad_norm(grads)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


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
    distill_plan: DistillPlan | None = None
    checkpoint_every: int | None = None
    grad_clip: float | None = None

    def __post_init__(self):
        if self.stage not in STAGE_KINDS:
            raise ConfigError(f"stage must be one of {STAGE_KINDS}, got {self.stage!r}")
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("steps must be >= 0 and batch_size >= 1")
        if self.stage == "sft_mrl" and self.granularity is None:
            raise ConfigError("stage sft_mrl requires a granularity (sft_layer and sft_dims)")
        if self.stage == "distill":
            if self.distill_plan is None:
                raise ConfigError("stage distill requires a distillation plan")
        elif self.distill_plan is not None:
            raise ConfigError("distill_plan is only valid for the distill stage")
        if self.stage == "pretrain_contrastive" and self.tile is None:
            raise ConfigError("pretrain_contrastive requires a tile size")
        for name, ok, rule in (
                ("tile", self.tile is None or self.tile >= 1, ">= 1"),
                ("grad_clip", self.grad_clip is None or self.grad_clip > 0, "> 0"),
                ("checkpoint_every", self.checkpoint_every is None or self.checkpoint_every >= 1,
                 ">= 1"),
                ("tau", self.tau > 0, "> 0"), ("mask_rate", 0 <= self.mask_rate <= 1, "in [0, 1]"),
                ("lr", self.lr > 0, "> 0"),
                ("min_lr", 0 <= self.min_lr <= self.lr, f"in [0, lr={self.lr}]"),
                ("warmup_steps", self.warmup_steps >= 1, ">= 1"),
                ("mask_policy", self.mask_policy in MASK_POLICIES, f"one of {MASK_POLICIES}")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")


def cosine_lr(stage: StageConfig, step: int) -> float:
    """Linear ramp 0 -> lr over the stage's warmup, then cosine decay to
    min_lr at step ``max(steps, warmup_steps + 1)``, and min_lr after it."""
    if step < 0:
        raise ConfigError("step must be non-negative")
    warmup, total = stage.warmup_steps, max(stage.steps, stage.warmup_steps + 1)
    if step <= warmup:
        return stage.lr * step / warmup
    if step >= total:
        return stage.min_lr
    frac = (step - warmup) / (total - warmup)
    return stage.min_lr + 0.5 * (stage.lr - stage.min_lr) * (1.0 + math.cos(math.pi * frac))


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
    vocab: Vocab
    # (what the state was, the file it was written to, that file's identity)
    # at its last save; lets a further save of the same state reuse the bytes
    written: tuple | None = field(default=None, repr=False, compare=False)


def params_fingerprint(params: Parameters) -> str:
    h = hashlib.sha256()
    for name, p in params.named():
        h.update(name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()[:16]


def _dtype_tag(arr: np.ndarray) -> str:
    return {"float32": "<f4", "float64": "<f8"}[arr.dtype.name]


def _serialize(state: TrainState) -> list[bytes]:
    """The M3CK container of ``state`` as the byte chunks to write in order."""
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
    if state.opt is not None:
        for name in state.opt.m:
            push(f"opt.m/{name}", state.opt.m[name])
        for name in state.opt.v:
            push(f"opt.v/{name}", state.opt.v[name])

    manifest = {
        "model": asdict(state.config),
        "vocab": list(state.vocab.id_to_token),
        "step": state.step,
        "stage": state.stage,
        "rng": {"base_seed": state.base_seed},
        "optimizer": None if state.opt is None else {"t": state.opt.t},
        "tensors": tensors,
    }
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION), blob, b"\n", *payloads]


def _write_synced(path: Path, chunks) -> None:
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
        f.flush()
        os.fsync(f.fileno())


def _sync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _file_identity(path: Path) -> tuple | None:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def save_checkpoint(state: TrainState, path) -> None:
    """Write the M3CK container; byte-identical for identical states.

    The bytes go to ``<path>.tmp`` in the same directory, are synced to disk
    and then replace ``path`` in one rename, so a write that fails part-way
    leaves the previous file at ``path`` as it was. The directory is synced
    after the rename, so the new name itself survives a power loss. A state is serialized
    once: saved again unchanged (same stage, step, seed and optimizer step),
    while the file it was last written to is still that file, the new name
    gets a hard link to those bytes, or a synced copy where links fail.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    what = (state.stage, state.step, state.base_seed, None if state.opt is None else state.opt.t)
    try:
        tmp.unlink(missing_ok=True)  # a leftover may be a link to a good file
        if (state.written is not None and state.written[0] == what
                and _file_identity(state.written[1]) == state.written[2]):
            try:
                os.link(state.written[1], tmp)
            except OSError:
                _write_synced(tmp, [state.written[1].read_bytes()])
        else:
            _write_synced(tmp, _serialize(state))
        os.replace(tmp, path)
        _sync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    state.written = (what, path, _file_identity(path))


def load_checkpoint(path) -> TrainState:
    """Read and verify an M3CK container (magic, version, length, checksums,
    finite tensors of one dtype, a complete model entry, every tensor read by
    the model or the optimizer, a well-formed vocabulary with one token per
    embedding row)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read checkpoint: {e.strerror}") from e
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
    if not (_is_count(step) and isinstance(stage, str) and type(base_seed) is int):
        raise CheckpointError(f"{path}: manifest step must be an integer >= 0, stage a string "
                              f"and rng.base_seed an integer, got {step!r}, {stage!r}, "
                              f"{base_seed!r}")
    _check_tensor_table(path, tensors)
    # one precision: a mixed file would fail at its first forward, or resume
    # AdamW in another dtype than its parameters
    dtype = next((t["dtype"] for t in tensors if t["name"] == "param/token_embedding"), None)
    for t in tensors:
        if dtype is not None and t["dtype"] != dtype:
            raise CheckpointError(f"{path}: tensor {t['name']} is {t['dtype']}, but "
                                  f"param/token_embedding is {dtype}")
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
        if not np.isfinite(arrays[t["name"]]).all():
            raise CheckpointError(f"{path}: tensor {t['name']} holds non-finite values")

    def stored(key, shape):  # pops it: what stays in ``arrays`` nothing reads
        if key not in arrays:
            raise CheckpointError(f"{path}: missing tensor {key}")
        if arrays[key].shape != shape:
            raise CheckpointError(f"{path}: tensor {key} has shape {arrays[key].shape}, "
                                  f"expected {shape}")
        return arrays.pop(key)

    params = enc.build_parameters(config, lambda name, shape: stored(f"param/{name}", shape))

    opt = None
    if opt_meta is not None:
        if not (isinstance(opt_meta, dict) and opt_meta.keys() == {"t"}
                and _is_count(opt_meta["t"])):
            raise CheckpointError(f"{path}: manifest optimizer must be null or {{\"t\": t}} "
                                  f"with t an integer >= 0, got {opt_meta!r}")
        m, v = ({name: stored(f"{kind}/{name}", p.shape) for name, p in params.named()}
                for kind in ("opt.m", "opt.v"))
        opt = OptimizerState(m=m, v=v, t=opt_meta["t"])
    if arrays:
        raise CheckpointError(f"{path}: tensor {next(iter(arrays))} is neither a parameter of "
                              f"the model nor an optimizer moment ({len(arrays)} unread)")
    if not (isinstance(vocab_tokens, list) and all(isinstance(t, str) for t in vocab_tokens)):
        raise CheckpointError(f"{path}: vocabulary must be a list of strings")
    if len(vocab_tokens) != config.vocab:
        raise CheckpointError(f"{path}: vocabulary has {len(vocab_tokens)} tokens for "
                              f"{config.vocab} embedding rows")
    try:
        vocab = Vocab(tuple(vocab_tokens))
    except ContractError as e:
        raise CheckpointError(f"{path}: {e}") from e
    return TrainState(config=config, params=params, opt=opt, step=step, stage=stage,
                      base_seed=base_seed, vocab=vocab)


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _check_tensor_table(path, tensors) -> None:
    """Every entry names a float tensor whose byte count matches its shape."""
    if not isinstance(tensors, list):
        raise CheckpointError(f"{path}: manifest tensor table is not a list")
    for i, t in enumerate(tensors):
        if not (isinstance(t, dict) and isinstance(t.get("name"), str)
                and t.get("dtype") in ("<f4", "<f8") and isinstance(t.get("shape"), list)
                and all(_is_count(n) for n in t["shape"])
                and all(_is_count(t.get(key)) for key in ("offset", "nbytes", "crc32"))):
            raise CheckpointError(f"{path}: malformed tensor entry {i} "
                                  "(needs name, dtype <f4/<f8, shape, offset, nbytes, crc32)")
        if math.prod(t["shape"]) * int(t["dtype"][2:]) != t["nbytes"]:
            raise CheckpointError(f"{path}: tensor {t['name']} declares {t['nbytes']} bytes "
                                  f"for shape {t['shape']} {t['dtype']}")


# ---------------------------------------------------------------------------
# Metric sinks
# ---------------------------------------------------------------------------


class JsonlSink:
    """Appends one JSON record per line; the metric log format.

    Each sink draws one ``run_id`` and stamps it on every record, so runs
    appended to one file stay apart. Its first record is a ``run_start``
    header: the ``header`` fields the caller passes (seed, precision,
    parameter count, the config file's sha256), the m3enc and numpy
    versions, the BLAS build as ``"<name> <version>"`` and
    ``OPENBLAS_NUM_THREADS``.
    """

    def __init__(self, path, **header):
        self.path = Path(path)
        self.run_id = os.urandom(16).hex()
        with writing(self.path):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._f = open(self.path, "a", encoding="utf-8")
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        self.emit({"event": "run_start", **header, "m3enc": __version__,
                   "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
                   "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")})

    def emit(self, record: dict) -> None:
        self._f.write(json.dumps({**record, "run_id": self.run_id}, sort_keys=True) + "\n")
        self._f.flush()

    def close(self) -> None:
        self._f.close()


# ---------------------------------------------------------------------------
# Stage execution
# ---------------------------------------------------------------------------


def _stage_loss(stage: StageConfig, state: TrainState, batch, dropout_rng) -> LossReport:
    if stage.stage in ("pretrain_mlm", "distill"):
        return obj.matryoshka_mlm_loss(state.params, state.config, batch, stage.granularity,
                                       stage.distill_plan, dropout_rng=dropout_rng)
    return obj.matryoshka_contrastive_loss(state.params, state.config, batch, stage.tau,
                                           stage.tile, stage.granularity,
                                           dropout_rng=dropout_rng)


def run_stage(
    stage: StageConfig,
    state: TrainState,
    source,
    sink,
    output_dir=None,
) -> TrainState:
    """Execute one stage; mutates ``state.params`` in place and returns it.

    Batches are drawn from ``source.batch(rng, batch_size)`` with a
    per-(seed, stage, step) generator. A fresh optimizer is created unless
    the state resumes the same stage mid-flight, from ``state.step``. On a
    non-finite loss, gradient or updated parameter the stage aborts; the last
    checkpoint on disk stays intact. Each step record carries the step's ``wall_ms`` and
    ``cpu_ms``, the process's CPU time over every thread (``process_time``).
    The ``stage_end`` record carries the process's peak resident set so far,
    ``max_rss_mb`` (``getrusage``'s ``ru_maxrss``).
    """
    start_step = state.step if state.stage == stage.name else 0
    if state.opt is None or state.stage != stage.name:
        state.opt = OptimizerState.init(state.params.named())
    state.stage = stage.name
    state.step = start_step
    named = state.params.named()
    last_ckpt = None

    sink.emit({"event": "stage_start", "stage": stage.name, "step": start_step,
               "fingerprint": params_fingerprint(state.params)})
    for i in range(start_step, stage.steps):
        t0, c0 = time.perf_counter(), time.process_time()
        rng = named_rng(state.base_seed, stage.name, "batch", i)
        batch = source.batch(rng, stage.batch_size)
        dropout_rng = named_rng(state.base_seed, stage.name, "dropout", i)
        try:
            report = _stage_loss(stage, state, batch, dropout_rng)
            if not math.isfinite(report.total):
                raise NumericsError(f"loss is {report.total}")
            zero_grads(named)
            report.node.backward()
            grads = {name: np.zeros_like(p.data) if p.grad is None else p.grad
                     for name, p in named}
            if stage.grad_clip is not None:
                grad_norm = clip_grads_global_norm(grads, stage.grad_clip)
            else:
                grad_norm = global_grad_norm(grads)
            lr = cosine_lr(stage, i + 1)
            adamw_step(named, grads, state.opt, lr)
            del grads  # not held through the next step's forward and backward
        except (NumericsError, TrainingAbort) as e:
            sink.emit({"event": "abort", "stage": stage.name, "step": i, "error": str(e),
                       "last_checkpoint": str(last_ckpt) if last_ckpt else None})
            raise TrainingAbort(
                f"stage {stage.name} aborted at step {i}: {e}; "
                f"last good checkpoint: {last_ckpt}") from e
        zero_grads(named)
        state.step = i + 1
        wall_ms = (time.perf_counter() - t0) * 1e3
        cpu_ms = (time.process_time() - c0) * 1e3
        tokens = batch.n_tokens
        record = {"step": i, "stage": stage.name, "lr": lr, "total": report.total,
                  "grad_norm": grad_norm, "wall_ms": wall_ms, "cpu_ms": cpu_ms,
                  "tokens": tokens, "width": batch.width,
                  "tokens_per_s": tokens / wall_ms * 1e3}
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
               "fingerprint": params_fingerprint(state.params),
               "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    return state


def run_stages(stages_with_sources, state: TrainState, sink, output_dir=None) -> TrainState:
    """Run stages sequentially; each starts from the previous stage's weights
    and writes ``<stage-name>.m3ck`` at its end when an output dir is given."""
    for stage, source in stages_with_sources:
        state = run_stage(stage, state, source, sink, output_dir=output_dir)
        if output_dir is not None:
            save_checkpoint(state, Path(output_dir) / f"{stage.name}.m3ck")
    return state
