"""CLI tests: config validation exit codes, staged runs, eval/sweep/ablate."""

import json

import numpy as np
import pytest

from m3enc import cli, synth
from m3enc import data as D
from m3enc import encoder as enc
from m3enc import trainer as tr


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


def test_invalid_granularity_reference_exits_2(workdir, capsys):
    cfg = base_config()
    cfg["stages"].append({
        "name": "sftx", "stage": "sft", "data": {"kind": "pairs", "path": "pairs.tsv"},
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
    ("checkpoint_every", 0),
], ids=["tile-zero", "grad_clip-negative", "grad_clip-zero", "checkpoint_every-negative",
        "checkpoint_every-zero"])
def test_stage_value_out_of_range_exits_2(workdir, capsys, key, value):
    cfg = base_config(outdir=f"range-{key}-{value}")
    cfg["stages"][2][key] = value
    path = write_config(workdir, cfg, "range-bad.json")
    assert cli.main(["pretrain", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config.stages[2]" in err and key in err
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


def test_pretrain_bit_reproducible(workdir):
    p1 = write_config(workdir, base_config(outdir="outA"), "runA.json")
    p2 = write_config(workdir, base_config(outdir="outB"), "runB.json")
    assert cli.main(["pretrain", "--config", str(p1), "--threads", "1"]) == 0
    assert cli.main(["pretrain", "--config", str(p2), "--threads", "1"]) == 0
    a = (workdir / "outA" / "final.m3ck").read_bytes()
    b = (workdir / "outB" / "final.m3ck").read_bytes()
    assert a == b


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
    queries, docs, truth, doc_ids = cli._load_eval_pairs(workdir / "eval.tsv")
    rep = ek.evaluate(state.params, state.config, state.vocab, queries, docs, truth,
                      layer=2, dim=16, ks=[5], doc_ids=doc_ids)
    assert csv_recall == rep.recalls[5]


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------


def ablate_config(outdir):
    cfg = base_config(outdir=outdir)
    cfg["stages"] = []
    cfg["ablate"] = {
        "train": {"name": "ab-train", "stage": "sft",
                  "data": {"kind": "pairs", "path": "pairs.tsv"},
                  "steps": 2, "batch_size": 4, "lr": 1e-3, "tau": 0.05,
                  "sft_layer": 2, "sft_dims": [16], "query_len": 8, "doc_len": 10},
        "eval": {"name": "ab-eval", "data": "eval.tsv", "layer": 2, "dim": 16,
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
    queries, docs, truth, doc_ids = cli._load_eval_pairs(workdir / "eval.tsv")
    report = ek.evaluate(plain_state.params, plain_state.config, plain_state.vocab, queries,
                         docs, truth, layer=2, dim=16, ks=[1, 5], doc_ids=doc_ids,
                         query_len=8, doc_len=10)
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
        seen.append((kwargs["ids"][0][0], kwargs["seq_len"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(ek, "encode_corpus", spy)
    monkeypatch.setattr(config, "ABLATION_ARMS", ("base",))
    path = write_config(workdir, ablate_config("ab-len"), "ablate-len.json")
    assert cli.main(["ablate", "--config", str(path)]) == 0
    assert seen == [("d", 10), ("q", 8)]


def test_config_eval_length_beyond_max_seq_exits_2(workdir, capsys):
    cfg = ablate_config("ab-bad")
    cfg["ablate"]["eval"]["doc_len"] = 15
    path = write_config(workdir, cfg, "ablate-bad.json")
    assert cli.main(["ablate", "--config", str(path)]) == 2
    assert "doc_len" in capsys.readouterr().err


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
