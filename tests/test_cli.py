"""CLI tests: config validation exit codes, staged runs, eval/sweep/ablate."""

import ctypes
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import m3enc
from m3enc import cli, synth
from m3enc import data as D
from m3enc import encoder as enc
from m3enc import trainer as tr
from m3enc.errors import CheckpointError

SRC = str(Path(cli.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic corpora plus a toy run config, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    mono = synth.generate_mlm_corpus(
        80, seed=1, n_topics=6, words_per_topic=10, n_common=12, doc_len=(6, 10))
    multi = synth.generate_multilingual_corpus(
        {"en": 0.7, "xx": 0.3}, 60, seed=2, n_topics=4, words_per_topic=8, n_common=8)
    synth.write_text_corpus(root / "mono.txt", mono)
    synth.write_multilingual_corpus(root / "multi.tsv", multi)
    synth.write_pair_corpus(root / "pairs.tsv", synth.generate_pair_corpus(
        60, seed=3, n_topics=6, words_per_topic=10, n_common=12, doc_len=(6, 10)))
    synth.write_pair_corpus(root / "eval.tsv", synth.generate_pair_corpus(
        30, seed=4, n_topics=6, words_per_topic=10, n_common=12, doc_len=(6, 10)))
    # one vocabulary covering every stage's text
    synth.write_text_corpus(root / "vocab.txt", mono + [t for _, t in multi])
    return root


def base_config(outdir="out", **overrides):
    cfg = {
        "seed": 3,
        "output_dir": outdir,
        "model": {
            "n_layers": 4, "hidden": 16, "n_heads": 2, "max_seq": 14,
            "vocab_size": 400,
            "granularity": {"layers": [2, 4], "dims": [4, 16]},
        },
        "vocab_corpus": "vocab.txt",
        "stages": [
            {"name": "stage1", "stage": "pretrain_mlm",
             "data": {"kind": "mono", "path": "mono.txt"},
             "steps": 4, "batch_size": 4, "lr": 1e-3, "seq_len": 10},
            {"name": "stage2", "stage": "pretrain_mlm",
             "data": {"kind": "multi", "path": "multi.tsv"},
             "steps": 3, "batch_size": 4, "lr": 1e-3, "seq_len": 10, "smoothing": 0.7},
            {"name": "stage3", "stage": "pretrain_contrastive",
             "data": {"kind": "pairs", "path": "pairs.tsv"},
             "steps": 3, "batch_size": 4, "lr": 1e-3, "tau": 0.05, "tile": 2,
             "query_len": 8, "doc_len": 10},
        ],
    }
    cfg.update(overrides)
    return cfg


def write_config(workdir, cfg, name="config.json"):
    path = workdir / name
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_unknown_key_exits_2(workdir, capsys):
    cfg = base_config()
    cfg["model"]["n_headz"] = 2
    path = write_config(workdir, cfg, "bad1.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "n_headz" in err and "unknown key" in err


def test_ablate_eval_name_is_an_unknown_key_exits_2(workdir, capsys):
    cfg = ablate_config("ab-name")
    cfg["ablate"]["eval"]["name"] = "ab-eval"
    path = write_config(workdir, cfg, "ablate-name.json")
    assert cli.main(["ablate", "--config", str(path)]) == 2
    assert "config.ablate.eval.name: unknown key" in capsys.readouterr().err
    assert not (workdir / "ab-name").exists()


def test_invalid_granularity_reference_exits_2(workdir, capsys):
    cfg = base_config()
    cfg["stages"].append({
        "name": "sftx", "stage": "sft_mrl", "data": {"kind": "pairs", "path": "pairs.tsv"},
        "steps": 1, "batch_size": 2, "lr": 1e-3, "sft_layer": 3, "sft_dims": [4]})
    path = write_config(workdir, cfg, "bad2.json")
    assert cli.main(["sft", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "sft_layer" in err and "3" in err


def test_missing_data_path_exits_2(workdir, capsys):
    cfg = base_config()
    cfg["stages"][0]["data"]["path"] = "nope.txt"
    path = write_config(workdir, cfg, "bad3.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_data_path_naming_a_directory_exits_2(workdir, capsys):
    cfg = base_config(outdir="dir-data")
    cfg["stages"][0]["data"]["path"] = "."
    path = write_config(workdir, cfg, "dir-data.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 2
    assert "config.stages[0].data.path" in capsys.readouterr().err
    assert not (workdir / "dir-data").exists()


def test_config_not_json_exits_2(workdir, capsys):
    path = workdir / "bad4.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["pretrain", "--config", str(path)]) == 2


def test_top_level_eval_key_is_unknown(workdir, capsys):
    path = write_config(workdir, base_config(outdir="eval-key", eval=[]), "eval-key.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config.eval" in err and "unknown key" in err


@pytest.mark.parametrize("key,value", [
    ("tile", 0), ("grad_clip", -1.0), ("grad_clip", 0.0), ("checkpoint_every", -1),
    ("checkpoint_every", 0), ("tau", 0), ("tau", -0.05), ("mask_rate", 2.0),
    ("mask_rate", -0.1), ("lr", 0), ("lr", -1e-3), ("min_lr", -1e-4), ("min_lr", 1e308),
    ("warmup_steps", 0), ("mask_policy", "bogus"),
], ids=["tile-zero", "grad_clip-negative", "grad_clip-zero", "checkpoint_every-negative",
        "checkpoint_every-zero", "tau-zero", "tau-negative", "mask_rate-above-1",
        "mask_rate-negative", "lr-zero", "lr-negative", "min_lr-negative", "min_lr-above-lr",
        "warmup_steps-zero", "mask_policy-unknown"])
def test_stage_value_out_of_range_exits_2(workdir, capsys, key, value):
    cfg = base_config(outdir=f"range-{key}-{value}")
    i = 0 if key.startswith("mask_") else 2  # masking keys are read by mlm stages only
    cfg["stages"][i][key] = value
    path = write_config(workdir, cfg, "range-bad.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config.stages[{i}]" in err and key in err
    assert not (workdir / cfg["output_dir"] / "metrics.jsonl").exists()


# a type-valid value for each optional stage key, and (kind, key) pairs where
# the stage kind never reads the key
KEY_VALUES = {"tau": 0.05, "tile": 2, "query_len": 8, "doc_len": 10, "seq_len": 10,
              "smoothing": 0.7, "sft_layer": 2, "sft_dims": [4], "mask_rate": 0.15,
              "mask_policy": "bert_80_10_10", "granularity": {"layers": [2, 4], "dims": [4, 16]},
              "distill": {"mode": "all_from_top", "teacher": [4, 16]}}
UNREAD = ([("pretrain_mlm", k) for k in ("tau", "tile", "query_len", "doc_len", "smoothing",
                                         "sft_layer", "sft_dims", "distill")]
          + [("distill", k) for k in ("tau", "query_len", "smoothing")]
          + [("pretrain_contrastive", k) for k in ("seq_len", "mask_rate", "mask_policy",
                                                   "smoothing", "sft_layer", "distill")]
          + [("sft_mrl", k) for k in ("granularity", "mask_rate", "mask_policy", "seq_len",
                                      "smoothing", "distill")])


@pytest.mark.parametrize("kind,key", UNREAD, ids=[f"{k}-{key}" for k, key in UNREAD])
def test_stage_key_its_kind_never_reads_exits_2(workdir, capsys, kind, key):
    stage = {"pretrain_mlm": lambda: base_config()["stages"][0], "distill": distill_stage,
             "pretrain_contrastive": lambda: base_config()["stages"][2],
             "sft_mrl": lambda: sft_config("x")["stages"][0]}[kind]()
    stage[key] = KEY_VALUES[key]
    cfg = base_config(outdir=f"unread-{kind}-{key}", stages=[stage])
    path = write_config(workdir, cfg, "unread.json")
    command = {"pretrain_mlm": "pretrain", "pretrain_contrastive": "pretrain",
               "distill": "distill"}.get(kind, "sft")
    assert cli.main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config.stages[0].{key}: not read by a {kind} stage" in err
    assert not (workdir / cfg["output_dir"] / "metrics.jsonl").exists()


def distill_stage(**distill):
    return {"name": "d1", "stage": "distill", "data": {"kind": "mono", "path": "mono.txt"},
            "steps": 1, "batch_size": 2, "lr": 1e-3, "seq_len": 10,
            "distill": {"mode": "single_pair", "teacher": [4, 16], "student": [2, 4],
                        **distill}}


@pytest.mark.parametrize("edit,field", [
    (lambda cfg: cfg["model"]["granularity"].update(layers=["x", 4]),
     "config.model.granularity.layers"),
    (lambda cfg: cfg["model"]["granularity"].update(layers=[1.5, 4]),
     "config.model.granularity.layers"),
    (lambda cfg: cfg["stages"][0].update(granularity={"layers": [2], "dims": [4.0]}),
     "config.stages[0].granularity.dims"),
    (lambda cfg: cfg["stages"].append(distill_stage(teacher=["x", 16])),
     "config.stages[3].distill.teacher"),
    (lambda cfg: cfg["stages"].append(distill_stage(teacher=[2])),
     "config.stages[3].distill.teacher"),
    (lambda cfg: cfg["stages"].append(distill_stage(student=[2, 4, 4])),
     "config.stages[3].distill.student"),
    (lambda cfg: cfg["stages"].append({
        "name": "s1", "stage": "sft_mrl", "data": {"kind": "pairs", "path": "pairs.tsv"},
        "steps": 1, "batch_size": 2, "lr": 1e-3, "sft_layer": 2, "sft_dims": [4, "16"],
        "query_len": 8, "doc_len": 10}),
     "config.stages[3].sft_dims"),
], ids=["layers-str", "layers-float", "stage-dims-float", "teacher-str", "teacher-short",
        "student-long", "sft_dims-str"])
def test_config_list_entries_must_be_integers(workdir, capsys, edit, field):
    cfg = base_config(outdir="list-bad")
    edit(cfg)
    path = write_config(workdir, cfg, "list-bad.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{field}: expected a list of" in err


# ---------------------------------------------------------------------------
# pretraining pipeline
# ---------------------------------------------------------------------------


def test_pretrain_zero_steps_equals_initialization(workdir):
    path = write_config(workdir, base_config(outdir="out0"), "zero.json")
    assert cli.main(["pretrain", "--config", str(path), "--steps", "0"]) == 0
    state = tr.load_checkpoint(workdir / "out0" / "final.m3ck")
    fresh = enc.init_parameters(state.config, seed=3, dtype=np.float32)
    for (n, a), (_, b) in zip(state.params.named(), fresh.named()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=n)


def test_pretrain_three_stages_single_invocation(workdir):
    path = write_config(workdir, base_config(outdir="out1"), "run1.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 0
    out = workdir / "out1"
    for stage in ("stage1", "stage2", "stage3"):
        assert (out / f"{stage}.m3ck").exists()
    records = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    events = [r for r in records if r.get("event") in ("stage_start", "stage_end")]
    # stage N+1 starts from stage N's parameters
    assert events[2]["fingerprint"] == events[1]["fingerprint"]
    assert events[4]["fingerprint"] == events[3]["fingerprint"]
    steps = [r for r in records if "total" in r]
    assert len(steps) == 10
    assert any("L2-D4" in r for r in steps)


def test_two_runs_into_one_directory_keep_their_records_apart(workdir):
    # metrics.jsonl is appended to: each run's records carry its own run id,
    # after a run_start header, and the log moves no checkpoint bit
    cfg = base_config("two-runs")
    cfg["stages"] = cfg["stages"][:1]
    path = write_config(workdir, cfg, "two-runs.json")
    out = workdir / "two-runs"
    finals = []
    for _ in range(2):
        assert cli.main(["pretrain", "--config", str(path)]) == 0
        finals.append((out / "final.m3ck").read_bytes())
    assert finals[0] == finals[1]
    records = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    ids = [r["run_id"] for r in records]
    first, second = ids[0], ids[-1]
    n = ids.index(second)  # the first run's record count
    assert first != second and ids == [first] * n + [second] * (len(ids) - n)
    starts = [r for r in records if r.get("event") == "run_start"]
    assert starts == [records[0], records[n]]
    params = tr.load_checkpoint(out / "final.m3ck").params
    blas = "{name} {version}".format(**np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    for header, run_id in zip(starts, (first, second)):
        assert header == {"event": "run_start", "run_id": run_id, "seed": 3,
                          "precision": "float32", "param_count": params.count(),
                          "config_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                          "m3enc": m3enc.__version__, "numpy": np.__version__, "blas": blas,
                          "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    assert [r.get("event") for r in records].count("stage_end") == 2


def test_stage_end_records_the_peak_rss(workdir):
    path = write_config(workdir, base_config(outdir="out-rss"), "rss.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 0
    lines = (workdir / "out-rss" / "metrics.jsonl").read_text().splitlines()
    records = [json.loads(l) for l in lines]
    peaks = [r["max_rss_mb"] for r in records if r.get("event") == "stage_end"]
    assert len(peaks) == 3
    # the process's peak so far: positive, and never falling
    assert all(p > 0 for p in peaks) and peaks == sorted(peaks)


def test_pretrain_bit_reproducible(workdir):
    p1 = write_config(workdir, base_config(outdir="outA"), "runA.json")
    p2 = write_config(workdir, base_config(outdir="outB"), "runB.json")
    assert cli.main(["pretrain", "--config", str(p1), "--threads", "1"]) == 0
    assert cli.main(["pretrain", "--config", str(p2), "--threads", "1"]) == 0
    a = (workdir / "outA" / "final.m3ck").read_bytes()
    b = (workdir / "outB" / "final.m3ck").read_bytes()
    assert a == b


def test_threads_after_numpy_leaves_the_environment_alone(workdir, monkeypatch, caplog):
    # numpy is loaded, so BLAS has read its thread count: --threads says it has
    # no effect and changes no variable of the calling process
    blas_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas_env:
        monkeypatch.delenv(var, raising=False)
    path = write_config(workdir, base_config(outdir="outT"), "runT.json")
    with caplog.at_level(logging.INFO, logger="m3enc"):
        assert cli.main(["pretrain", "--config", str(path), "--steps", "1",
                         "--threads", "1"]) == 0
    assert [os.environ.get(var) for var in blas_env] == [None, None, None]
    assert "--threads has no effect" in caplog.text


@pytest.mark.parametrize("libc", ["missing", "without-mallopt", "with-mallopt"])
def test_pretrain_runs_whatever_the_c_library_offers(workdir, monkeypatch, libc):
    # the CLI raises glibc's heap trim and mmap thresholds where the C library
    # has mallopt, and runs the same without it
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def lookup(name):
        if libc == "missing":
            raise OSError("no C library")
        return SimpleNamespace(mallopt=mallopt) if libc == "with-mallopt" else object()

    monkeypatch.setattr(ctypes, "CDLL", lookup)
    path = write_config(workdir, base_config(outdir=f"libc-{libc}"), f"libc-{libc}.json")
    assert cli.main(["pretrain", "--config", str(path), "--steps", "1"]) == 0
    assert (workdir / f"libc-{libc}" / "final.m3ck").exists()
    assert calls == ([(-3, 32 << 20), (-1, 1 << 30), (-8, 1)] if libc == "with-mallopt" else [])


def test_pretrain_bit_reproducible_across_processes(workdir):
    # two processes, two hash seeds: nothing in a --threads 1 run may depend
    # on the process (set iteration order, object ids)
    path = write_config(workdir, base_config(outdir="outP"), "runP.json")
    outputs = []
    for hash_seed in ("0", "1"):
        out = workdir / f"outP{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "m3enc.cli", "pretrain", "--config", str(path),
                        "--output", str(out), "--threads", "1"],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append((out / "final.m3ck").read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# sft and distill from a checkpoint
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pretrained(workdir):
    path = write_config(workdir, base_config(outdir="pre"), "pre.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 0
    return workdir / "pre" / "final.m3ck"


def test_sft_mrl_logs_per_dim_losses(workdir, pretrained):
    cfg = base_config(outdir="sft-out")
    cfg["stages"] = [{
        "name": "sft1", "stage": "sft_mrl", "data": {"kind": "pairs", "path": "pairs.tsv"},
        "steps": 3, "batch_size": 4, "lr": 1e-3, "tau": 0.05,
        "sft_layer": 2, "sft_dims": [4, 16], "query_len": 8, "doc_len": 10}]
    path = write_config(workdir, cfg, "sft.json")
    assert cli.main(["sft", "--config", str(path), "--resume", str(pretrained)]) == 0
    records = [json.loads(l) for l in
               (workdir / "sft-out" / "metrics.jsonl").read_text().splitlines()]
    steps = [r for r in records if "total" in r]
    assert steps and all("L2-D4" in r and "L2-D16" in r for r in steps)
    for r in steps:  # each side is cut to its longest real row, under its cap
        q_width, d_width = r["width"]
        assert 3 <= q_width <= 8 and 3 <= d_width <= 10
        assert 4 * 3 * 2 <= r["tokens"] <= 4 * (q_width + d_width)
        assert r["tokens_per_s"] == pytest.approx(r["tokens"] / r["wall_ms"] * 1e3)


def test_distill_stage_runs_from_checkpoint(workdir, pretrained):
    cfg = base_config(outdir="distill-out")
    cfg["stages"] = [{
        "name": "distill1", "stage": "distill",
        "data": {"kind": "mono", "path": "mono.txt"},
        "steps": 2, "batch_size": 4, "lr": 1e-3, "seq_len": 10,
        "distill": {"mode": "single_pair", "teacher": [4, 16], "student": [2, 4],
                    "lambda_d": 1.0, "tau_d": 1.0}}]
    path = write_config(workdir, cfg, "distill.json")
    assert cli.main(["distill", "--config", str(path), "--resume", str(pretrained)]) == 0
    records = [json.loads(l) for l in
               (workdir / "distill-out" / "metrics.jsonl").read_text().splitlines()]
    steps = [r for r in records if "total" in r]
    assert steps and all("aux" in r and r["aux"] >= 0.0 for r in steps)


def test_wrong_command_for_config_exits_2(workdir, capsys):
    path = write_config(workdir, base_config(outdir="x"), "pre2.json")
    assert cli.main(["sft", "--config", str(path)]) == 2
    assert "no stage of kind" in capsys.readouterr().err


def test_update_to_nonfinite_weights_exits_1_and_saves_nothing(workdir, capsys):
    cfg = base_config(outdir="huge-lr")
    cfg["stages"] = [dict(cfg["stages"][0], name="mlm", steps=1, lr=1e300, checkpoint_every=1)]
    path = write_config(workdir, cfg, "huge-lr.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 1
    assert "stage mlm aborted at step 0: non-finite parameter" in capsys.readouterr().err
    assert not list((workdir / "huge-lr").glob("*.m3ck*"))
    last = json.loads((workdir / "huge-lr" / "metrics.jsonl").read_text().splitlines()[-1])
    assert last["event"] == "abort" and last["last_checkpoint"] is None


# ---------------------------------------------------------------------------
# eval and sweep
# ---------------------------------------------------------------------------


def test_eval_deterministic_and_files(workdir, pretrained, capsys):
    out1 = workdir / "ev1"
    out2 = workdir / "ev2"
    for out in (out1, out2):
        assert cli.main(["eval", str(pretrained), str(workdir / "eval.tsv"),
                         "--layer", "2", "--dim", "16", "--k", "1,5",
                         "--output", str(out)]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["recalls"] == r2["recalls"]
    assert (out1 / "report.csv").read_text().splitlines()[0] == "k,recall"


def test_eval_dim_too_large_exits_2(workdir, pretrained, capsys):
    assert cli.main(["eval", str(pretrained), str(workdir / "eval.tsv"),
                     "--layer", "2", "--dim", "99"]) == 2
    assert "--dim" in capsys.readouterr().err


def test_version_1_checkpoint_is_refused(workdir, pretrained, capsys, monkeypatch):
    # version 1 stored separate q/k/v and gate/up projection tensors
    state = tr.load_checkpoint(pretrained)
    old = workdir / "v1.m3ck"
    with monkeypatch.context() as m:
        m.setattr(tr, "CHECKPOINT_VERSION", 1)
        tr.save_checkpoint(state, old)
    with pytest.raises(CheckpointError, match="version 1 unsupported"):
        tr.load_checkpoint(old)
    assert cli.main(["eval", str(old), str(workdir / "eval.tsv"),
                     "--layer", "2", "--dim", "16", "--output", str(workdir / "v1-eval")]) == 1
    assert "version 1 unsupported" in capsys.readouterr().err


def test_sweep_emits_csv_points(workdir, pretrained):
    out = workdir / "sw"
    assert cli.main(["sweep", str(pretrained), str(workdir / "eval.tsv"),
                     "--axis", "dim", "--values", "2,4,8,16", "--layer", "2",
                     "--k", "5", "--output", str(out)]) == 0
    lines = (out / "sweep-dim.csv").read_text().splitlines()
    assert lines[0] == "axis_value,K,recall,cost_proxy"
    assert len(lines) == 5
    assert [int(l.split(",")[0]) for l in lines[1:]] == [2, 4, 8, 16]


def test_sweep_matches_library_eval(workdir, pretrained):
    out = workdir / "sw2"
    assert cli.main(["sweep", str(pretrained), str(workdir / "eval.tsv"),
                     "--axis", "dim", "--values", "16", "--layer", "2",
                     "--k", "5", "--output", str(out)]) == 0
    csv_recall = float((out / "sweep-dim.csv").read_text().splitlines()[1].split(",")[2])
    from m3enc import evalkit as ek
    state = tr.load_checkpoint(pretrained)
    queries, docs, truth = ek.read_eval_pairs(workdir / "eval.tsv")
    [rep] = ek.evaluate(state.params, state.config, state.vocab, queries, docs, truth,
                        cells=[(2, 16)], ks=[5])
    assert csv_recall == rep.recalls[5]


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------


# runs the CLI, then prints the names of the threads still alive; a first
# argument "numpy-first" loads the tape (and numpy) before the CLI runs
THREAD_PROBE = ("import json, sys, threading\n"
                "if sys.argv[1] == 'numpy-first': import m3enc.tensor\n"
                "from m3enc import cli\n"
                "rc = cli.main(sys.argv[2:])\n"
                "print(rc, json.dumps([t.name for t in threading.enumerate()]))")
CPUS = len(os.sched_getaffinity(0))
# case: (OPENBLAS_NUM_THREADS as the process starts, CLI --threads, numpy-first)
PROBE_CASES = {
    "eval": ("1", None, False), "sweep": ("1", None, False),
    "pretrain-blas-on-every-cpu": (str(CPUS), None, False),
    "pretrain-blas-two-threads": ("2", None, False),
    "pretrain-blas-unset": (None, None, False),
    "pretrain-blas-one-thread": ("1", None, False),
    "pretrain-threads-1": (None, "1", False),
    "pretrain-threads-1-after-numpy": (None, "1", True),
}
WORKER_CASES = {"pretrain-blas-one-thread", "pretrain-threads-1"}


@pytest.mark.parametrize("case", list(PROBE_CASES))
def test_the_tape_worker_starts_only_where_blas_runs_on_one_thread(workdir, pretrained, case):
    # the worker starts at a backward, and only when BLAS ran on one thread
    # from the moment numpy loaded and a second CPU is usable: eval and sweep
    # run no backward, and --threads 1 after numpy loaded leaves BLAS on
    # every CPU
    if case in WORKER_CASES and CPUS < 2:
        pytest.skip("one usable CPU: no second CPU for the worker")
    blas, threads, numpy_first = PROBE_CASES[case]
    out = workdir / f"probe-{case}"
    if case == "eval":
        argv = ["eval", str(pretrained), str(workdir / "eval.tsv"), "--layer", "2", "--dim", "16"]
    elif case == "sweep":
        argv = ["sweep", str(pretrained), str(workdir / "eval.tsv"), "--axis", "dim",
                "--values", "4,16", "--layer", "2"]
    else:
        argv = ["pretrain", "--config", str(write_config(workdir, base_config(), "probe.json")),
                "--steps", "1"]
    argv += ["--output", str(out)] + (["--threads", threads] if threads else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    proc = subprocess.run([sys.executable, "-c", THREAD_PROBE,
                           "numpy-first" if numpy_first else "cli-first", *argv],
                          env=env, check=True, capture_output=True, text=True, timeout=300)
    rc, names = proc.stdout.strip().splitlines()[-1].split(" ", 1)
    assert rc == "0"
    workers = [n for n in json.loads(names) if n.startswith("m3enc-tape")]
    assert len(workers) == (1 if case in WORKER_CASES else 0), names


def ablate_config(outdir):
    cfg = base_config(outdir=outdir)
    cfg["stages"] = []
    cfg["ablate"] = {
        "train": {"name": "ab-train", "stage": "sft_mrl",
                  "data": {"kind": "pairs", "path": "pairs.tsv"},
                  "steps": 2, "batch_size": 4, "lr": 1e-3, "tau": 0.05,
                  "sft_layer": 2, "sft_dims": [16], "query_len": 8, "doc_len": 10},
        "eval": {"data": "eval.tsv", "layer": 2, "dim": 16,
                 "k": [1, 5], "query_len": 8, "doc_len": 10},
    }
    return cfg


def test_ablate_emits_six_rows_with_param_deltas(workdir):
    path = write_config(workdir, ablate_config("ab-out"), "ablate.json")
    assert cli.main(["ablate", "--config", str(path)]) == 0
    lines = (workdir / "ab-out" / "ablation.csv").read_text().splitlines()
    assert lines[0] == "arm,param_count,recall@1,recall@5"
    rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    assert list(rows) == ["base", "-SwiGLU", "-Pre-norm", "-RMSNorm", "+Dropout", "+Bias"]

    # analytic parameter-count deltas vs the base arm
    m, f, n = 16, round(8 / 3 * 16), 4
    base = int(rows["base"][1])
    assert int(rows["+Dropout"][1]) == base
    assert int(rows["+Bias"][1]) - base == n * (4 * m + 2 * f + m)
    assert int(rows["-RMSNorm"][1]) - base == n * 2 * m + m
    assert int(rows["-Pre-norm"][1]) - base == -m
    f_gelu = 4 * 16
    assert int(rows["-SwiGLU"][1]) - base == n * (2 * m * f_gelu - 3 * m * f)


def test_ablate_base_arm_matches_plain_pipeline(workdir):
    # same seed, same stage name: the base arm must reproduce sft + eval bit-for-bit
    path = write_config(workdir, ablate_config("ab-out2"), "ablate2.json")
    assert cli.main(["ablate", "--config", str(path)]) == 0
    lines = (workdir / "ab-out2" / "ablation.csv").read_text().splitlines()
    base_row = lines[1].split(",")

    sft_cfg = base_config(outdir="ab-plain")
    sft_cfg["stages"] = [dict(ablate_config("x")["ablate"]["train"])]
    path2 = write_config(workdir, sft_cfg, "ablate-plain.json")
    assert cli.main(["sft", "--config", str(path2)]) == 0
    out = workdir / "ab-plain"
    # evaluated at the eval spec's query_len/doc_len, as the ablation does
    from m3enc import evalkit as ek
    plain_state = tr.load_checkpoint(out / "final.m3ck")
    queries, docs, truth = ek.read_eval_pairs(workdir / "eval.tsv")
    [report] = ek.evaluate(plain_state.params, plain_state.config, plain_state.vocab, queries,
                           docs, truth, cells=[(2, 16)], ks=[1, 5], query_len=8, doc_len=10)
    assert float(base_row[2]) == report.recalls[1]
    assert float(base_row[3]) == report.recalls[5]
    # and the trained weights themselves agree
    arm_state = tr.load_checkpoint(workdir / "ab-out2" / "ablate-base.m3ck")
    for (n1, a), (_, b) in zip(arm_state.params.named(), plain_state.params.named()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=n1)


def test_ablate_eval_lengths_reach_encode_corpus(workdir, monkeypatch):
    from m3enc import config
    from m3enc import evalkit as ek
    seen = []
    real = ek.encode_corpus

    def spy(*args, **kwargs):
        seen.append((args[3], kwargs["seq_len"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(ek, "encode_corpus", spy)
    monkeypatch.setattr(config, "ABLATION_ARMS", {"base": {}})
    path = write_config(workdir, ablate_config("ab-len"), "ablate-len.json")
    assert cli.main(["ablate", "--config", str(path)]) == 0
    queries, docs, _ = ek.read_eval_pairs(workdir / "eval.tsv")
    assert seen == [(docs, 10), (queries, 8)]


def test_config_eval_length_beyond_max_seq_exits_2(workdir, capsys):
    cfg = ablate_config("ab-bad")
    cfg["ablate"]["eval"]["doc_len"] = 15
    path = write_config(workdir, cfg, "ablate-bad.json")
    assert cli.main(["ablate", "--config", str(path)]) == 2
    assert "doc_len" in capsys.readouterr().err


# sizes whose largest implied array is beyond any machine's memory: batch
# 1e20 failed in numpy's sampling, max_seq 1e9 at initialization
IMPOSSIBLE_SIZE = {
    "batch_size": ("stages", "config.stages[0].batch_size", 10**20),
    "max_seq": ("model", "config.model.max_seq", 10**12),
    "hidden": ("model", "config.model.hidden", 10**7),
    "ffn_mult": ("model", "config.model.ffn_mult", 1e12),
    # each array fits; the 3.1e12 parameters of the stack, four times over, do not
    "n_layers": ("model", "config.model.n_layers", 10**9),
}


@pytest.mark.parametrize("key", list(IMPOSSIBLE_SIZE))
def test_impossible_size_exits_2_before_allocating(workdir, capsys, monkeypatch, key):
    def no_init(*args, **kwargs):  # a size that got through fails here, unallocated
        raise AssertionError("parameters initialized for an impossible size")

    monkeypatch.setattr(enc, "init_parameters", no_init)
    entry, field, value = IMPOSSIBLE_SIZE[key]
    cfg = base_config(f"size-{key}")
    (cfg["stages"][0] if entry == "stages" else cfg["model"])[key] = value
    path = write_config(workdir, cfg, f"size-{key}.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert re.search(f"^  {re.escape(field)}: {value} implies .* GiB, more than the .* GiB "
                     "of physical memory$", err, re.M)
    assert not (workdir / f"size-{key}").exists()


def test_config_stage_length_beyond_max_seq_exits_2(workdir, capsys):
    # the pair stage's default query_len/doc_len (16/32) exceed max_seq 14; the
    # mono stage's default query_len/doc_len are unused and so not checked
    cfg = base_config("len-bad")
    del cfg["stages"][2]["query_len"], cfg["stages"][2]["doc_len"]
    cfg["stages"][0]["seq_len"] = 2
    path = write_config(workdir, cfg, "stage-len-bad.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "stages[0].seq_len" in err
    assert "stages[2].query_len" in err and "stages[2].doc_len" in err
    assert "stages[0].query_len" not in err and "stages[1]" not in err
    assert not (workdir / "len-bad").exists()


def sft_config(outdir):
    cfg = base_config(outdir=outdir)
    cfg["stages"] = [{
        "name": "sft1", "stage": "sft_mrl", "data": {"kind": "pairs", "path": "pairs.tsv"},
        "steps": 3, "batch_size": 4, "lr": 1e-3, "tau": 0.05,
        "sft_layer": 2, "sft_dims": [4, 16], "query_len": 8, "doc_len": 10}]
    return cfg


@pytest.mark.parametrize("edit,field", [
    (lambda cfg: cfg["model"].update(n_heads=4), "model.n_heads"),
    (lambda cfg: cfg["model"]["granularity"].update(dims=[4, 8, 16]), "model.granularity"),
    (lambda cfg: cfg["model"].update(vocab_size=20), "model.vocab_size"),
    (lambda cfg: cfg.update(precision="float64"), "precision"),
], ids=["model-field", "granularity", "vocab-over-cap", "dtype"])
def test_resume_mismatched_checkpoint_exits_2(workdir, pretrained, capsys, edit, field):
    cfg = sft_config("resume-bad")
    edit(cfg)
    path = write_config(workdir, cfg, "resume-bad.json")
    assert cli.main(["sft", "--config", str(path), "--resume", str(pretrained)]) == 2
    err = capsys.readouterr().err
    assert field in err and "does not match the config" in err
    assert not (workdir / "resume-bad").exists()


@pytest.fixture(scope="module")
def mid_sft(workdir, pretrained):
    """A checkpoint taken after step 1 of the 3-step sft1 stage."""
    cfg = sft_config("sft-mid")
    cfg["stages"][0]["checkpoint_every"] = 1
    path = write_config(workdir, cfg, "sft-mid.json")
    assert cli.main(["sft", "--config", str(path), "--resume", str(pretrained)]) == 0
    return workdir / "sft-mid" / "sft1-step1.m3ck"


def test_mid_stage_resume_under_another_seed_exits_2(workdir, mid_sft, capsys):
    cfg = sft_config("resume-seed")
    cfg["seed"] += 1
    path = write_config(workdir, cfg, "resume-seed.json")
    assert cli.main(["sft", "--config", str(path), "--resume", str(mid_sft)]) == 2
    err = capsys.readouterr().err
    assert "seed: checkpoint 3, config 4" in err and "does not match the config" in err
    assert not (workdir / "resume-seed").exists()


def test_resume_takes_the_config_seed_only_at_a_stage_boundary(workdir, pretrained, mid_sft):
    # the pretrained checkpoint ended its last stage, so sft1 starts afresh
    other_seed = sft_config("boundary-seed")
    other_seed["seed"] += 1
    path = write_config(workdir, other_seed, "boundary-seed.json")
    assert cli.main(["sft", "--config", str(path), "--resume", str(pretrained)]) == 0
    path = write_config(workdir, sft_config("mid-same-seed"), "mid-same-seed.json")
    assert cli.main(["sft", "--config", str(path), "--resume", str(mid_sft)]) == 0


def exit_code(argv):
    """``cli.main``'s return value, or the code of the SystemExit it raised."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("command", ["pretrain", "ablate"])
def test_negative_steps_override_exits_2(workdir, capsys, command):
    outdir = f"neg-steps-{command}"
    cfg = base_config(outdir=outdir) if command == "pretrain" else ablate_config(outdir)
    path = write_config(workdir, cfg, "neg-steps.json")
    assert cli.main([command, "--config", str(path), "--steps", "-2"]) == 2
    assert "steps must be >= 0" in capsys.readouterr().err
    assert not (workdir / outdir).exists()


def eval_argv(command, ckpt, data, *flags):
    """An ``eval``/``sweep`` command line that writes under the test's tmp dir."""
    return [command, str(ckpt), str(data), *flags, "--output", str(data.parent / "cli-out")]


MISSING_FILE = {
    "eval-checkpoint": lambda w, ckpt: eval_argv("eval", w / "nope.m3ck", w / "eval.tsv",
                                                 "--layer", "2", "--dim", "16"),
    "sweep-checkpoint": lambda w, ckpt: eval_argv("sweep", w / "nope.m3ck", w / "eval.tsv",
                                                  "--axis", "dim", "--values", "4",
                                                  "--layer", "2"),
    "resume-checkpoint": lambda w, ckpt: [
        "sft", "--config", str(write_config(w, sft_config("cli-out"), "missing.json")),
        "--resume", str(w / "nope.m3ck")],
    "eval-pairs": lambda w, ckpt: eval_argv("eval", ckpt, w / "nope.tsv",
                                            "--layer", "2", "--dim", "16"),
}


@pytest.mark.parametrize("case", list(MISSING_FILE))
def test_missing_input_file_exits_1(workdir, pretrained, capsys, case):
    assert cli.main(MISSING_FILE[case](workdir, pretrained)) == 1
    err = capsys.readouterr().err
    assert "nope." in err and "cannot read" in err
    assert not (workdir / "cli-out").exists()


def blocked(w):
    """A path whose parent is a regular file, so nothing can be written there."""
    (w / "blocker").write_text("not a directory\n", encoding="utf-8")
    return w / "blocker" / "out"


UNWRITABLE_OUTPUT = {
    "gen-data": lambda w, ckpt: ["gen-data", "--kind", "mono", "--n", "5",
                                 "--out", str(blocked(w) / "x.txt")],
    "pretrain": lambda w, ckpt: ["pretrain", "--config", str(write_config(
        w, base_config("unused"), "blocked.json")), "--output", str(blocked(w))],
    "ablate": lambda w, ckpt: ["ablate", "--config", str(write_config(
        w, ablate_config("unused"), "blocked.json")), "--output", str(blocked(w))],
    "eval": lambda w, ckpt: ["eval", str(ckpt), str(w / "eval.tsv"), "--layer", "2",
                             "--dim", "16", "--output", str(blocked(w))],
    "sweep": lambda w, ckpt: ["sweep", str(ckpt), str(w / "eval.tsv"), "--axis", "dim",
                              "--values", "4", "--layer", "2", "--output", str(blocked(w))],
}


@pytest.mark.parametrize("case", list(UNWRITABLE_OUTPUT))
def test_unwritable_output_exits_1(workdir, pretrained, capsys, case):
    assert cli.main(UNWRITABLE_OUTPUT[case](workdir, pretrained)) == 1
    err = capsys.readouterr().err
    assert str(workdir / "blocker" / "out") in err and "cannot write output" in err
    assert not (workdir / "unused").exists()


NOT_UTF8 = b"caf\xe9 \xff\xfe au lait\n"


def mono_stage(path):
    return {"name": "damaged", "stage": "pretrain_mlm", "data": {"kind": "mono", "path": path},
            "steps": 1, "batch_size": 4, "lr": 1e-3, "seq_len": 10}


def pair_stage(path):
    return {"name": "damaged", "stage": "pretrain_contrastive",
            "data": {"kind": "pairs", "path": path}, "steps": 1, "batch_size": 4,
            "lr": 1e-3, "tile": 2, "query_len": 8, "doc_len": 10}


# the damaged file's name and bytes, the config that reads it from that name
# (None: the damaged file is the config) and the exit code
DAMAGED_INPUT = {
    "mono-not-utf8": ("bad-mono.txt", NOT_UTF8,
                      lambda f: base_config(stages=[mono_stage(f)]), 1),
    "pairs-not-utf8": ("bad-pairs.tsv", b"a query\t" + NOT_UTF8,
                       lambda f: base_config(stages=[pair_stage(f)]), 1),
    "vocab-not-utf8": ("bad-vocab.txt", NOT_UTF8,
                       lambda f: base_config(vocab_corpus=f, stages=[mono_stage("mono.txt")]), 1),
    "mono-empty": ("empty-mono.txt", b"", lambda f: base_config(stages=[mono_stage(f)]), 1),
    "pairs-empty": ("empty-pairs.tsv", b"", lambda f: base_config(stages=[pair_stage(f)]), 1),
    "pairs-one-column": ("one-column.tsv", b"a query\nanother query\n",
                         lambda f: base_config(stages=[pair_stage(f)]), 1),
    "config-not-json": ("not-json.json", b"{not json", None, 2),
    "config-binary": ("binary.json", bytes(range(256)), None, 2),
}


@pytest.mark.parametrize("case", list(DAMAGED_INPUT))
def test_damaged_input_exits_with_a_typed_error(workdir, capsys, case):
    name, content, config, code = DAMAGED_INPUT[case]
    damaged = workdir / name
    damaged.write_bytes(content)
    path = damaged if config is None else write_config(workdir, config(name), f"{case}.json")
    out = workdir / f"damaged-{case}"
    assert cli.main(["pretrain", "--config", str(path), "--output", str(out)]) == code
    err = capsys.readouterr().err
    assert str(damaged) in err and "Traceback" not in err


def test_corpus_spelling_only_special_tokens_trains(workdir, capsys):
    # the vocabulary corpus lacks these words: each is <unk> in the text, so
    # every document has a position to mask
    (workdir / "specials.txt").write_text("<sep>\n<pad> <cls>\n<mask> <unk> <sep>\n",
                                          encoding="utf-8")
    path = write_config(workdir, base_config(stages=[mono_stage("specials.txt")]),
                        "specials.json")
    out = workdir / "specials-out"
    assert cli.main(["pretrain", "--config", str(path), "--output", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert tr.load_checkpoint(out / "damaged.m3ck").step == 1


@pytest.mark.parametrize("case", [c for c, v in DAMAGED_INPUT.items() if v[2] is not None])
def test_damaged_corpus_leaves_no_metrics_file(workdir, case):
    name, content, config, code = DAMAGED_INPUT[case]
    (workdir / name).write_bytes(content)
    path = write_config(workdir, config(name), f"no-metrics-{case}.json")
    out = workdir / f"no-metrics-{case}"
    assert cli.main(["pretrain", "--config", str(path), "--output", str(out)]) == code
    assert not (out / "metrics.jsonl").exists()


def truncated(raw):
    return raw[:-7]


def payload_byte_flipped(raw):
    pos = raw.index(b"\n", 8) + 1 + 5  # a byte of the first tensor
    return raw[:pos] + bytes([raw[pos] ^ 0x5A]) + raw[pos + 1:]


def vocab_set(value):
    def edit(raw):
        nl = raw.index(b"\n", 8)
        manifest = json.loads(raw[8:nl])
        manifest["vocab"] = value(manifest["vocab"])
        return raw[:8] + json.dumps(manifest).encode() + raw[nl:]
    return edit


def version_2(raw):
    return raw[:4] + bytes([2]) + raw[5:]


def mlm_head_as_f8(raw):
    """The file with ``param/mlm_head_w`` stored as float64, its table's
    offsets, byte counts and checksums fixed to match."""
    nl = raw.index(b"\n", 8)
    manifest, payload = json.loads(raw[8:nl]), raw[nl + 1:]
    chunks, offset = [], 0
    for t in manifest["tensors"]:
        chunk = payload[t["offset"]:t["offset"] + t["nbytes"]]
        if t["name"] == "param/mlm_head_w":
            chunk = np.frombuffer(chunk, dtype=t["dtype"]).astype("<f8").tobytes()
            t["dtype"] = "<f8"
        t.update(offset=offset, nbytes=len(chunk), crc32=zlib.crc32(chunk))
        chunks.append(chunk)
        offset += len(chunk)
    return raw[:8] + json.dumps(manifest).encode() + b"\n" + b"".join(chunks)


DAMAGED_CHECKPOINT = {
    "truncated": (truncated, r"payload is \d+ bytes, manifest declares \d+"),
    "byte-flipped": (payload_byte_flipped, r"checksum mismatch for tensor \S+"),
    "vocab-cut": (vocab_set(lambda v: v[:7]), r"vocabulary has 7 tokens for \d+ embedding rows"),
    "vocab-null": (vocab_set(lambda v: None), "vocabulary must be a list of strings"),
    "version-2": (version_2, r"format version 2 unsupported \(expected 3\)"),
    "mixed-dtype": (mlm_head_as_f8,
                    "tensor param/mlm_head_w is <f8, but param/token_embedding is <f4"),
}

CHECKPOINT_READERS = {
    "eval": lambda w, ckpt: eval_argv("eval", ckpt, w / "eval.tsv", "--layer", "2",
                                      "--dim", "16"),
    "sweep": lambda w, ckpt: eval_argv("sweep", ckpt, w / "eval.tsv", "--axis", "dim",
                                       "--values", "4", "--layer", "2"),
    "pretrain-resume": lambda w, ckpt: [
        "pretrain", "--config", str(write_config(w, base_config("cli-out"), "resume-dmg.json")),
        "--resume", str(ckpt)],
}


@pytest.mark.parametrize("damage", list(DAMAGED_CHECKPOINT))
@pytest.mark.parametrize("command", list(CHECKPOINT_READERS))
def test_damaged_checkpoint_exits_1(workdir, pretrained, capsys, command, damage):
    edit, message = DAMAGED_CHECKPOINT[damage]
    ckpt = workdir / f"damaged-{damage}.m3ck"
    ckpt.write_bytes(edit(pretrained.read_bytes()))
    assert cli.main(CHECKPOINT_READERS[command](workdir, ckpt)) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {re.escape(str(ckpt))}: {message}.*\n", err)
    assert not (workdir / "cli-out").exists()


def distill_config(outdir):
    cfg = base_config(outdir=outdir)
    cfg["stages"] = [distill_stage()]
    return cfg


# command, config, the checkpoint whose path is a directory, and a checkpoint
# of an earlier run that the failed run must leave as it was (None when the
# blocked one is the last to be written)
UNWRITABLE_CHECKPOINT = {
    "pretrain-stage": ("pretrain", base_config, "stage1.m3ck", "final.m3ck"),
    "pretrain-final": ("pretrain", base_config, "final.m3ck", None),
    "sft-stage": ("sft", sft_config, "sft1.m3ck", "final.m3ck"),
    "distill-final": ("distill", distill_config, "final.m3ck", None),
    "ablate": ("ablate", ablate_config, "ablate-base.m3ck", "ablate-+Bias.m3ck"),
}


@pytest.mark.parametrize("case", list(UNWRITABLE_CHECKPOINT))
def test_unwritable_checkpoint_exits_1(workdir, pretrained, capsys, case):
    command, config, blocked_name, kept_name = UNWRITABLE_CHECKPOINT[case]
    out = workdir / f"ckpt-{case}"
    (out / blocked_name).mkdir(parents=True)
    (out / blocked_name / "keep").write_text("kept\n", encoding="utf-8")
    if kept_name is not None:
        (out / kept_name).write_bytes(pretrained.read_bytes())
    path = write_config(workdir, config(str(out)), "ckpt-blocked.json")
    assert cli.main([command, "--config", str(path), "--steps", "1"]) == 1
    err = capsys.readouterr().err
    assert f"{out / blocked_name}: cannot write output" in err
    assert (out / blocked_name / "keep").read_text(encoding="utf-8") == "kept\n"
    if kept_name is not None:
        assert (out / kept_name).read_bytes() == pretrained.read_bytes()
    assert not list(out.glob("*.tmp"))


OUT_OF_RANGE = {
    "eval-k-negative": lambda w, ckpt: eval_argv("eval", ckpt, w / "eval.tsv", "--layer", "2",
                                                 "--dim", "16", "--k=-1,5"),
    "sweep-k-zero": lambda w, ckpt: eval_argv("sweep", ckpt, w / "eval.tsv", "--axis", "dim",
                                              "--values", "4", "--layer", "2", "--k", "0,5"),
    "sweep-values-zero": lambda w, ckpt: eval_argv("sweep", ckpt, w / "eval.tsv", "--axis",
                                                   "layer", "--values", "0,2", "--dim", "16"),
    "sweep-layer-on-layer-axis": lambda w, ckpt: eval_argv(
        "sweep", ckpt, w / "eval.tsv", "--axis", "layer", "--values", "2,4", "--dim", "16",
        "--layer", "2"),
    "sweep-dim-on-dim-axis": lambda w, ckpt: eval_argv(
        "sweep", ckpt, w / "eval.tsv", "--axis", "dim", "--values", "4,16", "--layer", "2",
        "--dim", "16"),
    "sweep-dim-axis-without-layer": lambda w, ckpt: eval_argv(
        "sweep", ckpt, w / "eval.tsv", "--axis", "dim", "--values", "4,16"),
    "sweep-values-decreasing": lambda w, ckpt: eval_argv(
        "sweep", ckpt, w / "eval.tsv", "--axis", "dim", "--values", "16,4", "--layer", "2"),
    "sweep-values-repeated": lambda w, ckpt: eval_argv(
        "sweep", ckpt, w / "eval.tsv", "--axis", "layer", "--values", "2,2", "--dim", "16"),
    "eval-threads-negative": lambda w, ckpt: eval_argv("eval", ckpt, w / "eval.tsv", "--layer",
                                                       "2", "--dim", "16", "--threads=-1"),
    "pretrain-threads-zero": lambda w, ckpt: ["pretrain", "--config", "unused.json",
                                              "--threads", "0"],
    "gen-data-n-negative": lambda w, ckpt: ["gen-data", "--kind", "mono",
                                            "--out", str(w / "cli-out" / "m.txt"), "--n", "-3"],
    # an --n whose word arrays exceed physical memory is refused before any is allocated
    "gen-data-n-beyond-memory": lambda w, ckpt: ["gen-data", "--kind", "mono",
                                                 "--out", str(w / "cli-out" / "m.txt"),
                                                 "--n", "1000000000000000000"],
}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_out_of_range_cli_value_exits_2(workdir, pretrained, case):
    # each value is refused before any work starts: no thread count is set
    # and nothing is written
    assert exit_code(OUT_OF_RANGE[case](workdir, pretrained)) == 2
    assert not (workdir / "cli-out").exists()


HUGE_K = "99999999999999999999"  # beyond sys.maxsize


@pytest.mark.parametrize("command,flags", [
    ("eval", ["--layer", "2", "--dim", "16"]),
    ("sweep", ["--axis", "dim", "--values", "4,16", "--layer", "2"]),
], ids=["eval", "sweep"])
def test_k_beyond_the_pool_ranks_the_whole_pool(workdir, pretrained, capsys, command, flags):
    out = workdir / f"huge-k-{command}"
    assert exit_code([command, str(pretrained), str(workdir / "eval.tsv"), *flags,
                      "--k", f"5,{HUGE_K}", "--output", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    if command == "eval":
        report = json.loads((out / "report.json").read_text())
        assert report["clamped_k"]
        recalls = [report["recalls"][HUGE_K]]
    else:
        rows = [line.split(",") for line in (out / "sweep-dim.csv").read_text().splitlines()]
        recalls = [float(recall) for _, k, recall, _ in rows[1:] if k == HUGE_K]
    # every positive is in the pool, and each ranking holds the whole pool
    assert recalls and all(r == 1.0 for r in recalls)


@pytest.mark.parametrize("flag", ["layer", "dim"])
def test_sweep_names_the_flag_its_axis_does_not_read(workdir, pretrained, capsys, flag):
    assert exit_code(OUT_OF_RANGE[f"sweep-{flag}-on-{flag}-axis"](workdir, pretrained)) == 2
    assert f"no --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("case,flag", [("sweep-values-decreasing", "--values"),
                                       ("sweep-values-repeated", "--values"),
                                       ("gen-data-n-beyond-memory", "--n")])
def test_refused_value_names_its_flag(workdir, pretrained, capsys, case, flag):
    assert exit_code(OUT_OF_RANGE[case](workdir, pretrained)) == 2
    assert f"config error: {flag}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_gen_data_writes_corpora(tmp_path):
    for kind, name in (("mono", "m.txt"), ("multi", "ml.tsv"), ("pairs", "p.tsv")):
        assert cli.main(["gen-data", "--kind", kind, "--out", str(tmp_path / name),
                         "--seed", "1", "--n", "20"]) == 0
        assert (tmp_path / name).exists()
    docs = D.read_text_corpus(tmp_path / "m.txt")
    assert len(docs) == 20
    store = D.ingest_pairs(tmp_path / "p.tsv")
    assert len(store) == 20


def test_invalid_m3_log_rejected(workdir, monkeypatch):
    monkeypatch.setenv("M3_LOG", "chatty")
    with pytest.raises(SystemExit):
        cli.main(["gen-data", "--kind", "mono", "--out", str(workdir / "zz.txt")])
    monkeypatch.setenv("M3_LOG", "info")
    assert cli.main(["gen-data", "--kind", "mono", "--out", str(workdir / "zz.txt"),
                     "--n", "5"]) == 0


def test_invalid_m3_log_exits_2(workdir, monkeypatch, capsys):
    monkeypatch.setenv("M3_LOG", "bogus")
    assert exit_code(["gen-data", "--kind", "mono", "--out", str(workdir / "log.txt")]) == 2
    assert "M3_LOG" in capsys.readouterr().err
    assert not (workdir / "log.txt").exists()
