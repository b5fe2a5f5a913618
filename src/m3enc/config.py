"""Run configuration: strict JSON schema with field-level error messages.

Unknown keys are errors (anti-typo), every referenced path must be an
existing file, every (layer, dim) reference must lie within the model
granularity, and no size may imply an array larger than physical memory --
all checked before any compute. An ``sft_mrl`` stage's
``sft_layer`` and ``sft_dims`` are the config spelling of its grid: one layer
and strictly increasing dims, parsed into the stage's ``GranularitySet``. An
optional key set to JSON ``null`` is the same as an absent key. Relative paths
resolve against the config file's directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .encoder import GranularitySet, ModelConfig
from .errors import ConfigError
from .objectives import build_distill_plan
from .trainer import StageConfig

PRECISIONS = ("float32", "float64")

# each arm reverts one modernization of the base model: its ModelConfig overrides
ABLATION_ARMS = {
    "base": {},
    "-SwiGLU": {"activation": "gelu", "ffn_mult": 4.0},
    "-Pre-norm": {"norm_placement": "post"},
    "-RMSNorm": {"norm": "layernorm"},
    "+Dropout": {"hidden_dropout": 0.1},
    "+Bias": {"use_bias": True},
}


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
    """A stage plus its data. Lengths are caps: a text is cut to its length,
    and each batch is only as wide as its longest text. Mono/multi stages
    read ``seq_len``, pair stages ``query_len`` and ``doc_len``."""

    stage: StageConfig
    data: DataRef
    seq_len: int = 32
    query_len: int = 16
    doc_len: int = 32
    smoothing: float = 0.7


@dataclass
class EvalSpec:
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
    # of the config file's bytes: where the run came from, not what it runs
    config_sha256: str = field(kw_only=True, compare=False)


_MODEL_REQUIRED = {"n_layers": int, "hidden": int, "n_heads": int, "max_seq": int,
                   "vocab_size": int, "granularity": dict}
_MODEL_OPTIONAL = {"ffn_mult": float, "activation": str, "norm": str,
                   "norm_placement": str, "use_bias": bool, "hidden_dropout": float}

_STAGE_REQUIRED = {"name": str, "stage": str, "data": dict, "steps": int,
                   "batch_size": int, "lr": float}

# the optional keys each stage kind reads; a stage setting any other key is a
# config error, so no key is parsed and then ignored
_COMMON_KEYS = {"warmup_steps": int, "min_lr": float, "checkpoint_every": int,
                "grad_clip": float}
_MLM_KEYS = {**_COMMON_KEYS, "seq_len": int, "mask_rate": float, "mask_policy": str,
             "granularity": dict}
_PAIR_KEYS = {**_COMMON_KEYS, "query_len": int, "doc_len": int, "tau": float, "tile": int}
_STAGE_KEYS = {"pretrain_mlm": _MLM_KEYS, "distill": {**_MLM_KEYS, "distill": dict},
               "pretrain_contrastive": {**_PAIR_KEYS, "granularity": dict},
               "sft_mrl": {**_PAIR_KEYS, "sft_layer": int, "sft_dims": list}}
_MULTI_KEYS = {"smoothing": float}  # read by mlm-style stages on multi data only
_STAGE_OPTIONAL = {key: kind for table in (*_STAGE_KEYS.values(), _MULTI_KEYS)
                   for key, kind in table.items()}
_STAGE_DATA = {"pretrain_mlm": ("mono", "multi"), "distill": ("mono", "multi"),
               "pretrain_contrastive": ("pairs",), "sft_mrl": ("pairs",)}

# StageConfig fields taken from the stage's keys as they are; the grid and the
# distill block are parsed first
_STAGE_FIELDS = tuple(f.name for f in fields(StageConfig)
                      if f.name not in ("granularity", "distill_plan"))

_EVAL_REQUIRED = {"data": str, "layer": int, "dim": int, "k": list}
_EVAL_OPTIONAL = {"query_len": int, "doc_len": int}


def _fits_in_memory(c: _Checker, path: str, value: int, nbytes: int, array: str) -> bool:
    """Whether an array of ``nbytes`` fits in physical memory; records the
    field whose ``value`` implies it when it does not, so an impossible size
    is a config error before anything is allocated."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes <= memory:
        return True
    c.fail(path, f"{value} implies {array} of {nbytes / 2**30:.3g} GiB, more than the "
                 f"{memory / 2**30:.3g} GiB of physical memory")
    return False


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


def _in_model_grid(c: _Checker, layers, dims, model_gran: GranularitySet,
                   layers_path: str, dims_path: str) -> bool:
    """Whether every layer and dim lies in the model grid; records each that does not."""
    ok = True
    for values, allowed, what, path in ((layers, model_gran.layers, "layer", layers_path),
                                        (dims, model_gran.dims, "dim", dims_path)):
        for v in values:
            if v not in allowed:
                c.fail(path, f"{what} {v} not in model granularity {list(allowed)}")
                ok = False
    return ok


def _present(raw: dict, names) -> dict:
    """The entries of ``raw`` named in ``names``: a key left out keeps the
    default of the dataclass it goes to."""
    return {key: raw[key] for key in names if key in raw}


def _parse_stage(c: _Checker, raw: dict, path: str, model: ModelConfig,
                 base_dir: Path) -> StageSpec | None:
    if not c.keys(raw, path, _STAGE_REQUIRED, _STAGE_OPTIONAL):
        return None
    kind = raw["stage"]
    if kind not in _STAGE_KEYS:
        c.fail(f"{path}.stage", f"unknown stage kind {kind!r}, expected one of "
                                f"{tuple(_STAGE_KEYS)}")
        return None
    data_raw = raw["data"]
    if not c.keys(data_raw, f"{path}.data", {"kind": str, "path": str}, {}):
        return None
    if data_raw["kind"] not in ("mono", "multi", "pairs"):
        c.fail(f"{path}.data.kind", f"must be mono, multi, or pairs, got {data_raw['kind']!r}")
        return None
    if data_raw["kind"] not in _STAGE_DATA[kind]:
        c.fail(f"{path}.data.kind", f"stage {kind} expects data kind in {_STAGE_DATA[kind]}")
    data_path = base_dir / data_raw["path"]
    if not data_path.is_file():
        c.fail(f"{path}.data.path", f"file does not exist: {data_path}")
    reads = {**_STAGE_KEYS[kind], **(_MULTI_KEYS if data_raw["kind"] == "multi" else {})}
    unread = [key for key in raw if key not in _STAGE_REQUIRED and key not in reads]
    for key in unread:
        c.fail(f"{path}.{key}", f"not read by a {kind} stage on {data_raw['kind']} data")
    if unread:
        return None

    gran = None
    if "granularity" in raw:
        gran = _parse_granularity(c, raw["granularity"], f"{path}.granularity")
        if gran is not None:
            _in_model_grid(c, gran.layers, gran.dims, model.granularity,
                           f"{path}.granularity.layers", f"{path}.granularity.dims")
    elif "sft_layer" in raw and "sft_dims" in raw:
        # the sft_mrl spelling of a one-layer grid
        dims = c.int_list(raw["sft_dims"], f"{path}.sft_dims")
        if dims is None or not _in_model_grid(c, (raw["sft_layer"],), dims, model.granularity,
                                              f"{path}.sft_layer", f"{path}.sft_dims"):
            return None
        try:
            gran = GranularitySet(layers=(raw["sft_layer"],), dims=dims)
        except ConfigError as e:
            c.fail(f"{path}.sft_dims", str(e))
            return None

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
                                      **_present(d, ("lambda_d", "tau_d")))
        except ConfigError as e:
            c.fail(f"{path}.distill", str(e))

    try:
        stage = StageConfig(granularity=gran, distill_plan=plan,
                            **_present(raw, _STAGE_FIELDS))
    except ConfigError as e:
        c.fail(path, str(e))
        return None
    spec = StageSpec(stage=stage, data=DataRef(kind=data_raw["kind"], path=data_path),
                     **_present(raw, ("seq_len", "query_len", "doc_len", "smoothing")))
    # one row per text at least, in float32 at least, whatever the lengths
    _fits_in_memory(c, f"{path}.batch_size", stage.batch_size,
                    4 * stage.batch_size * model.hidden, "a [batch_size x hidden] hidden state")
    for key in ("query_len", "doc_len") if data_raw["kind"] == "pairs" else ("seq_len",):
        length = getattr(spec, key)
        if not (3 <= length <= model.max_seq):
            c.fail(f"{path}.{key}", f"{length} must be in [3, max_seq={model.max_seq}]")
    return spec


def _parse_eval(c: _Checker, raw: dict, path: str, model: ModelConfig,
                base_dir: Path) -> EvalSpec | None:
    if not c.keys(raw, path, _EVAL_REQUIRED, _EVAL_OPTIONAL):
        return None
    data_path = base_dir / raw["data"]
    if not data_path.is_file():
        c.fail(f"{path}.data", f"file does not exist: {data_path}")
    _in_model_grid(c, (raw["layer"],), (raw["dim"],), model.granularity,
                   f"{path}.layer", f"{path}.dim")
    for key in ("query_len", "doc_len"):
        if key in raw and not (3 <= raw[key] <= model.max_seq):
            c.fail(f"{path}.{key}", f"must be in [3, max_seq={model.max_seq}]")
    ks = c.int_list(raw["k"], f"{path}.k")
    if ks is None:
        return None
    if not ks or min(ks) < 1:
        c.fail(f"{path}.k", "must be a non-empty list of positive integers")
        return None
    return EvalSpec(path=data_path, layer=raw["layer"], dim=raw["dim"],
                    ks=tuple(sorted(set(ks))), **_present(raw, _EVAL_OPTIONAL))


def load_run_config(path) -> RunConfig:
    """Parse and validate a run config file; raises ConfigError listing every
    offending field."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    data = path.read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"))
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
                        **_present(m, _MODEL_OPTIONAL))
                except ConfigError as e:
                    c.fail("config.model", str(e))
    if model is not None:  # initialization draws each weight in float64
        m = model.hidden
        if _fits_in_memory(c, "config.model.hidden", m, 8 * m * m, "a [hidden x hidden] weight"):
            _fits_in_memory(c, "config.model.max_seq", model.max_seq, 8 * model.max_seq * m,
                            "a [max_seq x hidden] position embedding")
            _fits_in_memory(c, "config.model.ffn_mult", model.ffn_mult,
                            8 * m * model.intermediate, "a [hidden x ffn_mult * hidden] weight")
            # training holds each parameter four times: weights, gradients and
            # two AdamW moments; the vocabulary's size is not known yet
            n = model.n_layers * model.block_params
            itemsize = 8 if precision == "float64" else 4
            _fits_in_memory(c, "config.model.n_layers", model.n_layers, 4 * itemsize * n,
                            f"{n:.3g} block parameters, as weights, gradients and two AdamW "
                            "moments,")
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
                if train.stage.stage != "sft_mrl":
                    c.fail("config.ablate.train.stage", "ablation arms train with an sft_mrl stage")
                ablate = AblateSpec(train=train, eval=ev)

    c.raise_if_failed(str(path))
    return RunConfig(seed=raw["seed"], output_dir=base_dir / raw["output_dir"],
                     precision=precision, model=model, vocab_corpus=vocab_corpus,
                     config_sha256=hashlib.sha256(data).hexdigest(),
                     stages=stages, ablate=ablate)
