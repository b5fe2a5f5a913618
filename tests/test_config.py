"""Run-config loader tests: JSON null as "unset", and the loader's contract
that any config yields a RunConfig or a typed ConfigError, nothing else."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3enc import config as C
from m3enc import synth
from m3enc.errors import ConfigError, M3Error


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
            "train": {"name": "ab", "stage": "sft", "data": pairs, "steps": 1,
                      "batch_size": 2, "lr": 1e-3, "sft_layer": 2, "sft_dims": [8],
                      "query_len": 6, "doc_len": 10},
            "eval": {"name": "ab-eval", "data": "pairs.tsv", "layer": 2, "dim": 8,
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


def test_config_root_must_be_an_object(root):
    path = root / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="expected an object"):
        C.load_run_config(path)


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
