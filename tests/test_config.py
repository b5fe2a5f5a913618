"""Run-config loader tests: JSON null as "unset", and the loader's contract
that any config yields a RunConfig or a typed ConfigError, nothing else."""

import copy
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3enc import config as C
from m3enc import synth
from m3enc.encoder import GranularitySet, ModelConfig
from m3enc.errors import ConfigError, M3Error
from m3enc.objectives import build_distill_plan
from m3enc.trainer import StageConfig


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    synth.write_text_corpus(root / "mono.txt", synth.generate_mlm_corpus(6, seed=1))
    synth.write_pair_corpus(root / "pairs.tsv", synth.generate_pair_corpus(6, seed=2))
    return root


def full_config():
    """A valid config that uses every section: model, each stage kind with its
    own options, a distillation block and an ablation eval."""
    mono = {"kind": "mono", "path": "mono.txt"}
    pairs = {"kind": "pairs", "path": "pairs.tsv"}
    return {
        "seed": 1, "output_dir": "out", "precision": "float64", "vocab_corpus": "mono.txt",
        "model": {"n_layers": 2, "hidden": 8, "n_heads": 2, "max_seq": 32, "vocab_size": 50,
                  "granularity": {"layers": [1, 2], "dims": [4, 8]},
                  "ffn_mult": 2.0, "activation": "swiglu", "norm": "rmsnorm",
                  "norm_placement": "pre", "use_bias": False, "hidden_dropout": 0.0},
        "stages": [
            {"name": "mlm", "stage": "pretrain_mlm", "data": mono, "steps": 2,
             "batch_size": 2, "lr": 1e-3},
            {"name": "distill", "stage": "distill", "data": mono, "steps": 2,
             "batch_size": 2, "lr": 1e-3, "seq_len": 10, "granularity":
                 {"layers": [1, 2], "dims": [4, 8]},
             "distill": {"mode": "single_pair", "teacher": [2, 8], "student": [1, 4],
                         "lambda_d": 0.5, "tau_d": 2.0}},
            {"name": "con", "stage": "pretrain_contrastive", "data": pairs, "steps": 2,
             "batch_size": 4, "lr": 1e-3, "tau": 0.1, "tile": 2, "query_len": 6,
             "doc_len": 10, "grad_clip": 1.0, "checkpoint_every": 1},
            {"name": "sft", "stage": "sft_mrl", "data": pairs, "steps": 2, "batch_size": 4,
             "lr": 1e-3, "warmup_steps": 1, "min_lr": 0.0, "sft_layer": 2,
             "sft_dims": [4, 8], "query_len": 6, "doc_len": 10},
        ],
        "ablate": {
            "train": {"name": "ab", "stage": "sft_mrl", "data": pairs, "steps": 1,
                      "batch_size": 2, "lr": 1e-3, "sft_layer": 2, "sft_dims": [8],
                      "query_len": 6, "doc_len": 10},
            "eval": {"data": "pairs.tsv", "layer": 2, "dim": 8,
                     "k": [1, 5], "query_len": 6, "doc_len": 10},
        },
    }


def load(root, cfg, name="config.json"):
    path = root / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return C.load_run_config(path)


def test_full_config_loads(root):
    run = load(root, full_config())
    assert [s.stage.stage for s in run.stages] == [
        "pretrain_mlm", "distill", "pretrain_contrastive", "sft_mrl"]
    assert run.stages[1].stage.distill_plan.pairs == (((2, 8), (1, 4)),)
    assert run.ablate.eval.ks == (1, 5)
    assert run.stages[3].stage.granularity == GranularitySet(layers=(2,), dims=(4, 8))


@pytest.mark.parametrize("dims", [[8, 8], [8, 4]], ids=["duplicate", "decreasing"])
def test_sft_dims_must_increase_strictly(root, dims):
    # sft_layer/sft_dims spell a one-layer grid; a repeated dim would count its
    # cell twice in every step total
    cfg = full_config()
    cfg["stages"][3]["sft_dims"] = dims
    with pytest.raises(ConfigError, match=r"config\.stages\[3\]\.sft_dims: "
                                          r"granularity\.dims must be strictly increasing"):
        load(root, cfg)


def test_unknown_stage_kind_lists_the_valid_kinds(root):
    # one-dim fine-tuning is an sft_mrl stage with one dim; there is no sft kind
    cfg = full_config()
    cfg["ablate"]["train"]["stage"] = "sft"
    with pytest.raises(ConfigError, match=r"unknown stage kind 'sft', expected one of "
                                          r"\('pretrain_mlm', 'distill', "
                                          r"'pretrain_contrastive', 'sft_mrl'\)"):
        load(root, cfg)


def test_a_layer_stack_beyond_memory_is_a_config_error(root):
    # every array of it fits, but 1e9 blocks at hidden 8 are 6.6e11 parameters,
    # held four times in float64 for training: about 19,000 GiB
    cfg = full_config()
    cfg["model"]["n_layers"] = 10**9
    with pytest.raises(ConfigError, match=r"config\.model\.n_layers: 1000000000 implies 6\.56e\+11 "
                                          r"block parameters, .* GiB, more than the .* GiB "
                                          r"of physical memory"):
        load(root, cfg)


def test_a_config_is_hashed_as_its_file_bytes(root):
    text = json.dumps(full_config())
    (root / "spaced.json").write_text(text.replace(", ", ",  "), encoding="utf-8")
    runs = [load(root, full_config()), load(root, full_config(), "again.json"),
            C.load_run_config(root / "spaced.json")]
    assert runs[0].config_sha256 == runs[1].config_sha256 == hashlib.sha256(
        text.encode()).hexdigest()
    assert runs[2].config_sha256 != runs[0].config_sha256


def test_config_root_must_be_an_object(root):
    path = root / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="expected an object"):
        C.load_run_config(path)


def test_minimal_config_takes_the_dataclass_defaults(root):
    cfg = full_config()
    model = {k: cfg["model"][k] for k in C._MODEL_REQUIRED}
    stages = [{k: s[k] for k in C._STAGE_REQUIRED} for s in cfg["stages"]]
    stages[1]["distill"] = {"mode": "all_from_top", "teacher": [2, 8]}
    stages[2]["tile"] = 2  # required by pretrain_contrastive
    for s in stages[3:]:
        s.update(sft_layer=2, sft_dims=[8])
    run = load(root, {"seed": 1, "output_dir": "out", "model": model, "stages": stages})
    gran = GranularitySet(layers=(1, 2), dims=(4, 8))
    assert run.model == ModelConfig(n_layers=2, hidden=8, n_heads=2, vocab=50, max_seq=32,
                                    granularity=gran)
    plan = build_distill_plan("all_from_top", (2, 8), None, gran)
    assert (plan.lambda_d, plan.tau_d) == (1.0, 1.0)
    extra = [{}, {"distill_plan": plan}, {"tile": 2},
             {"granularity": GranularitySet(layers=(2,), dims=(8,))}]
    for spec, raw, more in zip(run.stages, stages, extra):
        assert spec.stage == StageConfig(**{k: raw[k] for k in ("name", "stage", "steps",
                                                                "batch_size", "lr")}, **more)
        assert spec == C.StageSpec(stage=spec.stage, data=spec.data)


# (section, key) for every optional key; each section names a place in
# full_config() where leaving the key out is valid
SECTIONS = {
    "config": lambda cfg: cfg,
    "model": lambda cfg: cfg["model"],
    "stage": lambda cfg: cfg["stages"][0],
    "distill": lambda cfg: cfg["stages"][1]["distill"],
    "eval": lambda cfg: cfg["ablate"]["eval"],
}
OPTIONAL = ([("config", k) for k in ("precision", "vocab_corpus", "stages", "ablate")]
            + [("model", k) for k in C._MODEL_OPTIONAL]
            + [("stage", k) for k in C._STAGE_OPTIONAL]
            + [("distill", k) for k in ("student", "lambda_d", "tau_d")]
            + [("eval", k) for k in C._EVAL_OPTIONAL])


@pytest.mark.parametrize("section,key", OPTIONAL, ids=[f"{s}.{k}" for s, k in OPTIONAL])
def test_null_optional_key_means_unset(root, section, key):
    omitted = full_config()
    if section == "distill" and key == "student":
        omitted["stages"][1]["distill"]["mode"] = "all_from_top"
    SECTIONS[section](omitted).pop(key, None)
    nulled = copy.deepcopy(omitted)
    SECTIONS[section](nulled)[key] = None
    assert load(root, nulled, "nulled.json") == load(root, omitted, "omitted.json")


# ---------------------------------------------------------------------------
# property: one replaced value gives a RunConfig or a ConfigError
# ---------------------------------------------------------------------------


def value_paths(node, prefix=()):
    """The path of every value below the root: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from value_paths(child, prefix + (key,))


PATHS = list(value_paths(full_config()))

json_values = st.recursive(
    st.none() | st.booleans()
    | st.sampled_from([0, -1, 1, 2, 10**12, -(10**12)]) | st.integers()
    | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PATHS), json_values)
def test_any_single_value_replacement_loads_or_raises_typed(root, path, value):
    cfg = full_config()
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        load(root, cfg, "fuzz.json")
    except M3Error:
        pass
