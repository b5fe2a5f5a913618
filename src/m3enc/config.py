"""Run configuration: strict JSON schema with field-level error messages.

Unknown keys are errors (anti-typo), every referenced path must be an
existing file, and every (layer, dim) reference must lie within the model
granularity -- all checked before any compute. An optional key set to JSON
``null`` is the same as an absent key. Relative paths resolve against the
config file's directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .encoder import GranularitySet, ModelConfig
from .errors import ConfigError
from .objectives import build_distill_plan
from .trainer import StageConfig

PRECISIONS = ("float32", "float64")

ABLATION_ARMS = ("base", "-SwiGLU", "-Pre-norm", "-RMSNorm", "+Dropout", "+Bias")


class _Checker:
    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def keys(self, d: dict, path: str, required: dict, optional: dict) -> bool:
        """Check the keys of ``d`` and the types of their values. Optional keys
        holding ``null`` are removed from ``d``: ``null`` means unset."""
        if not isinstance(d, dict):
            self.fail(path, f"expected an object, got {type(d).__name__}")
            return False
        for key in optional:
            if key in d and d[key] is None:
                del d[key]
        ok = True
        for key in d:
            if key not in required and key not in optional:
                self.fail(f"{path}.{key}", "unknown key")
                ok = False
        for key, kind in required.items():
            if key not in d:
                self.fail(f"{path}.{key}", "missing required key")
                ok = False
            elif not self._type_ok(d[key], kind):
                self.fail(f"{path}.{key}", f"expected {self._name(kind)}, "
                                           f"got {type(d[key]).__name__}")
                ok = False
        for key, kind in optional.items():
            if key in d and not self._type_ok(d[key], kind):
                self.fail(f"{path}.{key}", f"expected {self._name(kind)}, "
                                           f"got {type(d[key]).__name__}")
                ok = False
        return ok

    def int_list(self, value, path: str, length: int | None = None) -> tuple[int, ...] | None:
        """``value`` as a tuple of integers, or None after recording why it is not one."""
        if (isinstance(value, list) and all(self._type_ok(v, int) for v in value)
                and length in (None, len(value))):
            return tuple(value)
        what = "integers" if length is None else f"exactly {length} integers"
        self.fail(path, f"expected a list of {what}, got {value!r}")
        return None

    @staticmethod
    def _type_ok(value, kind) -> bool:
        if kind is float:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind is int:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, kind)

    @staticmethod
    def _name(kind) -> str:
        return getattr(kind, "__name__", str(kind))

    def raise_if_failed(self, source: str) -> None:
        if self.errors:
            details = "\n  ".join(self.errors)
            raise ConfigError(f"invalid config {source}:\n  {details}")


@dataclass
class DataRef:
    kind: str  # mono | multi | pairs
    path: Path


@dataclass
class StageSpec:
    stage: StageConfig
    data: DataRef
    seq_len: int
    query_len: int
    doc_len: int
    smoothing: float = 0.7


@dataclass
class EvalSpec:
    name: str
    path: Path
    layer: int
    dim: int
    ks: tuple[int, ...]
    query_len: int | None = None  # None: the model's max_seq
    doc_len: int | None = None


@dataclass
class AblateSpec:
    train: StageSpec
    eval: EvalSpec


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    precision: str
    model: ModelConfig  # vocab field holds the configured cap until a vocab is built
    vocab_corpus: Path | None
    stages: list[StageSpec] = field(default_factory=list)
    ablate: AblateSpec | None = None


_MODEL_REQUIRED = {"n_layers": int, "hidden": int, "n_heads": int, "max_seq": int,
                   "vocab_size": int, "granularity": dict}
_MODEL_OPTIONAL = {"ffn_mult": float, "activation": str, "norm": str,
                   "norm_placement": str, "use_bias": bool, "hidden_dropout": float}

_STAGE_REQUIRED = {"name": str, "stage": str, "data": dict, "steps": int,
                   "batch_size": int, "lr": float}
_STAGE_OPTIONAL = {"warmup_steps": int, "min_lr": float, "granularity": dict,
                   "mask_rate": float, "mask_policy": str, "tau": float, "tile": int,
                   "sft_layer": int, "sft_dims": list, "distill": dict,
                   "checkpoint_every": int, "grad_clip": float, "seq_len": int,
                   "query_len": int, "doc_len": int, "smoothing": float}

# sequence lengths of a stage that sets none; mono/multi stages use seq_len,
# pair stages query_len and doc_len
_STAGE_LENGTHS = {"seq_len": 32, "query_len": 16, "doc_len": 32}

_EVAL_REQUIRED = {"name": str, "data": str, "layer": int, "dim": int, "k": list}
_EVAL_OPTIONAL = {"query_len": int, "doc_len": int}


def _parse_granularity(c: _Checker, d: dict, path: str) -> GranularitySet | None:
    if not c.keys(d, path, {"layers": list, "dims": list}, {}):
        return None
    layers = c.int_list(d["layers"], f"{path}.layers")
    dims = c.int_list(d["dims"], f"{path}.dims")
    if layers is None or dims is None:
        return None
    try:
        return GranularitySet(layers=layers, dims=dims)
    except ConfigError as e:
        c.fail(path, str(e))
        return None


def _check_grid_subset(c: _Checker, gran: GranularitySet, model_gran: GranularitySet,
                       path: str) -> None:
    for l in gran.layers:
        if l not in model_gran.layers:
            c.fail(f"{path}.layers", f"layer {l} not in model granularity "
                                     f"{list(model_gran.layers)}")
    for d in gran.dims:
        if d not in model_gran.dims:
            c.fail(f"{path}.dims", f"dim {d} not in model granularity "
                                   f"{list(model_gran.dims)}")


def _parse_stage(c: _Checker, raw: dict, path: str, model: ModelConfig,
                 base_dir: Path) -> StageSpec | None:
    if not c.keys(raw, path, _STAGE_REQUIRED, _STAGE_OPTIONAL):
        return None
    data_raw = raw["data"]
    if not c.keys(data_raw, f"{path}.data", {"kind": str, "path": str}, {}):
        return None
    if data_raw["kind"] not in ("mono", "multi", "pairs"):
        c.fail(f"{path}.data.kind", f"must be mono, multi, or pairs, got {data_raw['kind']!r}")
        return None
    data_path = base_dir / data_raw["path"]
    if not data_path.is_file():
        c.fail(f"{path}.data.path", f"file does not exist: {data_path}")

    gran = None
    if "granularity" in raw:
        gran = _parse_granularity(c, raw["granularity"], f"{path}.granularity")
        if gran is not None:
            _check_grid_subset(c, gran, model.granularity, f"{path}.granularity")

    sft_dims = None
    if "sft_dims" in raw:
        sft_dims = c.int_list(raw["sft_dims"], f"{path}.sft_dims")
        if sft_dims is None:
            return None
        for i, d in enumerate(sft_dims):
            if d not in model.granularity.dims:
                c.fail(f"{path}.sft_dims[{i}]",
                       f"dim {d} not in model granularity {list(model.granularity.dims)}")
    if "sft_layer" in raw and raw["sft_layer"] not in model.granularity.layers:
        c.fail(f"{path}.sft_layer",
               f"layer {raw['sft_layer']} not in model granularity "
               f"{list(model.granularity.layers)}")

    plan = None
    if "distill" in raw:
        d = raw["distill"]
        if not c.keys(d, f"{path}.distill", {"mode": str, "teacher": list},
                      {"student": list, "lambda_d": float, "tau_d": float}):
            return None
        teacher = c.int_list(d["teacher"], f"{path}.distill.teacher", length=2)
        student = (c.int_list(d["student"], f"{path}.distill.student", length=2)
                   if "student" in d else None)
        if teacher is None or ("student" in d and student is None):
            return None
        try:
            plan = build_distill_plan(d["mode"], teacher, student, gran or model.granularity,
                                      lambda_d=d.get("lambda_d", 1.0),
                                      tau_d=d.get("tau_d", 1.0))
        except ConfigError as e:
            c.fail(f"{path}.distill", str(e))

    expected_kind = {"pretrain_mlm": ("mono", "multi"), "pretrain_contrastive": ("pairs",),
                     "sft": ("pairs",), "sft_mrl": ("pairs",),
                     "distill": ("mono", "multi")}.get(raw["stage"])
    if expected_kind is None:
        c.fail(f"{path}.stage", f"unknown stage kind {raw['stage']!r}")
        return None
    if data_raw["kind"] not in expected_kind:
        c.fail(f"{path}.data.kind",
               f"stage {raw['stage']} expects data kind in {expected_kind}")
    lengths = {key: raw.get(key, default) for key, default in _STAGE_LENGTHS.items()}
    used = ("query_len", "doc_len") if data_raw["kind"] == "pairs" else ("seq_len",)
    for key in used:
        if not (3 <= lengths[key] <= model.max_seq):
            c.fail(f"{path}.{key}", f"{lengths[key]} must be in [3, max_seq={model.max_seq}]")

    try:
        stage = StageConfig(
            name=raw["name"], stage=raw["stage"], steps=raw["steps"],
            batch_size=raw["batch_size"], lr=raw["lr"],
            warmup_steps=raw.get("warmup_steps", 1),
            min_lr=raw.get("min_lr", 0.0), granularity=gran,
            mask_rate=raw.get("mask_rate", 0.15),
            mask_policy=raw.get("mask_policy", "bert_80_10_10"),
            tau=raw.get("tau", 0.05), tile=raw.get("tile"),
            sft_layer=raw.get("sft_layer"), sft_dims=sft_dims,
            distill_plan=plan, checkpoint_every=raw.get("checkpoint_every"),
            grad_clip=raw.get("grad_clip"),
        )
    except ConfigError as e:
        c.fail(path, str(e))
        return None
    return StageSpec(stage=stage, data=DataRef(kind=data_raw["kind"], path=data_path),
                     smoothing=raw.get("smoothing", 0.7), **lengths)


def _parse_eval(c: _Checker, raw: dict, path: str, model: ModelConfig,
                base_dir: Path) -> EvalSpec | None:
    if not c.keys(raw, path, _EVAL_REQUIRED, _EVAL_OPTIONAL):
        return None
    data_path = base_dir / raw["data"]
    if not data_path.is_file():
        c.fail(f"{path}.data", f"file does not exist: {data_path}")
    if raw["layer"] not in model.granularity.layers:
        c.fail(f"{path}.layer", f"layer {raw['layer']} not in model granularity "
                                f"{list(model.granularity.layers)}")
    if raw["dim"] not in model.granularity.dims:
        c.fail(f"{path}.dim", f"dim {raw['dim']} not in model granularity "
                              f"{list(model.granularity.dims)}")
    for key in ("query_len", "doc_len"):
        if key in raw and not (3 <= raw[key] <= model.max_seq):
            c.fail(f"{path}.{key}", f"must be in [3, max_seq={model.max_seq}]")
    ks = c.int_list(raw["k"], f"{path}.k")
    if ks is None:
        return None
    if not ks or min(ks) < 1:
        c.fail(f"{path}.k", "must be a non-empty list of positive integers")
        return None
    return EvalSpec(name=raw["name"], path=data_path, layer=raw["layer"], dim=raw["dim"],
                    ks=tuple(sorted(set(ks))), query_len=raw.get("query_len"),
                    doc_len=raw.get("doc_len"))


def load_run_config(path) -> RunConfig:
    """Parse and validate a run config file; raises ConfigError listing every
    offending field."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    base_dir = path.parent
    c = _Checker()
    c.keys(raw, "config",
           {"seed": int, "output_dir": str, "model": dict},
           {"precision": str, "vocab_corpus": str, "stages": list, "ablate": dict})
    if not isinstance(raw, dict):
        c.raise_if_failed(str(path))

    precision = raw.get("precision", "float32")
    if precision not in PRECISIONS:
        c.fail("config.precision", f"must be one of {PRECISIONS}")

    model = None
    if isinstance(raw.get("model"), dict):
        m = raw["model"]
        if c.keys(m, "config.model", _MODEL_REQUIRED, _MODEL_OPTIONAL):
            gran = _parse_granularity(c, m["granularity"], "config.model.granularity")
            if gran is not None:
                try:
                    model = ModelConfig(
                        n_layers=m["n_layers"], hidden=m["hidden"], n_heads=m["n_heads"],
                        vocab=m["vocab_size"], max_seq=m["max_seq"], granularity=gran,
                        ffn_mult=m.get("ffn_mult", 8.0 / 3.0),
                        activation=m.get("activation", "swiglu"),
                        norm=m.get("norm", "rmsnorm"),
                        norm_placement=m.get("norm_placement", "pre"),
                        use_bias=m.get("use_bias", False),
                        hidden_dropout=m.get("hidden_dropout", 0.0),
                    )
                except ConfigError as e:
                    c.fail("config.model", str(e))
    c.raise_if_failed(str(path))

    vocab_corpus = None
    if "vocab_corpus" in raw:
        vocab_corpus = base_dir / raw["vocab_corpus"]
        if not vocab_corpus.is_file():
            c.fail("config.vocab_corpus", f"file does not exist: {vocab_corpus}")

    stages = []
    for i, s in enumerate(raw.get("stages", [])):
        spec = _parse_stage(c, s, f"config.stages[{i}]", model, base_dir)
        if spec is not None:
            stages.append(spec)
    names = [s.stage.name for s in stages]
    if len(set(names)) != len(names):
        c.fail("config.stages", f"stage names must be unique, got {names}")

    ablate = None
    if "ablate" in raw:
        a = raw["ablate"]
        if c.keys(a, "config.ablate", {"train": dict, "eval": dict}, {}):
            train = _parse_stage(c, a["train"], "config.ablate.train", model, base_dir)
            ev = _parse_eval(c, a["eval"], "config.ablate.eval", model, base_dir)
            if train is not None and ev is not None:
                if train.stage.stage not in ("sft", "sft_mrl"):
                    c.fail("config.ablate.train.stage",
                           "ablation arms train with an sft-style stage")
                ablate = AblateSpec(train=train, eval=ev)

    c.raise_if_failed(str(path))
    return RunConfig(seed=raw["seed"], output_dir=base_dir / raw["output_dir"],
                     precision=precision, model=model, vocab_corpus=vocab_corpus,
                     stages=stages, ablate=ablate)
