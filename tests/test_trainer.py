"""Trainer tests: AdamW algebra, schedule boundaries, stage runs,
checkpoint integrity, resume equivalence."""

import copy
import dataclasses
import json
import math
import os
import re
import stat
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3enc import data as D
from m3enc import encoder as enc
from m3enc import objectives as obj
from m3enc import synth
from m3enc import tensor as T
from m3enc import trainer as tr
from m3enc.config import ABLATION_ARMS
from m3enc.errors import CheckpointError, ConfigError, M3Error, TrainingAbort
from m3enc.rng import named_rng
from m3enc.tensor import Tensor


class ListSink(list):
    """A metric sink that keeps the records in memory."""

    def emit(self, record: dict) -> None:
        self.append(record)

    def close(self) -> None:
        pass


def make_params(seed=0, shape=(4, 3)):
    p = Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)
    return [("w", p)]


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def test_adamw_zero_lr_is_identity():
    named = make_params(0)
    before = named[0][1].data.copy()
    state = tr.OptimizerState.init(named)
    grads = {"w": np.ones_like(before)}
    tr.adamw_step(named, grads, state, lr=0.0)
    np.testing.assert_array_equal(named[0][1].data, before)
    assert state.t == 1


def test_adamw_pure_decay_closed_form():
    named = make_params(1)
    before = named[0][1].data.copy()
    state = tr.OptimizerState.init(named)
    grads = {"w": np.zeros_like(before)}
    tr.adamw_step(named, grads, state, lr=0.1)
    np.testing.assert_allclose(named[0][1].data, 0.999 * before, rtol=1e-12)


def test_adamw_first_step_is_sign_update():
    # bias correction makes m_hat / sqrt(v_hat) = g / |g| at t=1, whatever
    # the gradient's scale: only eps and the decay keep it from sign(g)
    for scale in (0.5, 1.0, 2.0, 10.0):
        named = make_params(2)
        before = named[0][1].data.copy()
        g = np.random.default_rng(3).normal(size=before.shape) * scale
        state = tr.OptimizerState.init(named)
        tr.adamw_step(named, {"w": g}, state, lr=0.05)
        update = named[0][1].data - before
        expected = -0.05 * (g / (np.abs(g) + tr.ADAM_EPS) + tr.WEIGHT_DECAY * before)
        np.testing.assert_allclose(update, expected, rtol=1e-10, atol=1e-15)


def test_adamw_rejects_nonfinite_gradient():
    named = make_params(4)
    state = tr.OptimizerState.init(named)
    bad = np.ones_like(named[0][1].data)
    bad[0, 0] = np.nan
    with pytest.raises(TrainingAbort, match="w"):
        tr.adamw_step(named, {"w": bad}, state, lr=0.1)


def test_adamw_rejects_an_update_that_leaves_a_parameter_nonfinite():
    named = [("w", Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True))]
    state = tr.OptimizerState.init(named)
    with pytest.raises(TrainingAbort, match="non-finite parameter w at optimizer step 1"):
        tr.adamw_step(named, {"w": np.ones((4, 3), dtype=np.float32)}, state, lr=1e300)


def test_adamw_rejects_an_update_that_leaves_a_moment_nonfinite():
    # g*g overflows float32 where g, m and the updated parameter stay finite
    named = [("w", Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True))]
    state = tr.OptimizerState.init(named)
    with pytest.raises(TrainingAbort,
                       match="non-finite optimizer moment opt.v/w at optimizer step 1"):
        tr.adamw_step(named, {"w": np.full((4, 3), 1e20, dtype=np.float32)}, state, lr=1e-3)


def test_adamw_rejects_gradient_of_wrong_shape():
    named = make_params(5)
    before = named[0][1].data.copy()
    state = tr.OptimizerState.init(named)
    with pytest.raises(ConfigError, match="w"):
        tr.adamw_step(named, {"w": np.ones((3, 4))}, state, lr=0.1)
    np.testing.assert_array_equal(named[0][1].data, before)
    assert state.t == 0


def test_grad_clip_global_norm():
    g = np.full((3, 4), 2.0)
    rec = {"w": g}
    norm = tr.clip_grads_global_norm(rec, max_norm=1.0)
    np.testing.assert_allclose(norm, math.sqrt(48.0))
    np.testing.assert_allclose(np.sqrt((rec["w"] ** 2).sum()), 1.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def schedule(lr, warmup_steps, steps, min_lr=0.0):
    return tr.StageConfig(name="s", stage="pretrain_mlm", steps=steps, batch_size=1, lr=lr,
                          warmup_steps=warmup_steps, min_lr=min_lr)


def test_cosine_lr_boundaries_and_midpoint():
    s = schedule(lr=1e-3, warmup_steps=100, steps=1100, min_lr=1e-5)
    assert tr.cosine_lr(s, 0) == 0.0
    assert tr.cosine_lr(s, 100) == 1e-3
    assert tr.cosine_lr(s, 1100) == 1e-5
    assert tr.cosine_lr(s, 5000) == 1e-5  # clamps past the end
    mid = tr.cosine_lr(s, 100 + 500)
    np.testing.assert_allclose(mid, (1e-3 + 1e-5) / 2, rtol=1e-12)


def test_cosine_lr_continuous_and_monotone():
    s = schedule(lr=2e-4, warmup_steps=10, steps=200)
    values = [tr.cosine_lr(s, t) for t in range(0, 201)]
    np.testing.assert_allclose(values[10], 2e-4, rtol=1e-12)
    assert abs(values[11] - values[10]) < 2e-4 * 0.01  # no jump at the boundary
    for a, b in zip(values[10:], values[11:]):
        assert b <= a + 1e-18
    for a, b in zip(values[:10], values[1:11]):
        assert b >= a


def test_schedule_validation():
    with pytest.raises(ConfigError):
        schedule(lr=1e-3, warmup_steps=0, steps=10)
    # a stage no longer than its warmup decays to min_lr one step after it
    s = schedule(lr=1e-3, warmup_steps=10, steps=10, min_lr=1e-5)
    assert tr.cosine_lr(s, 10) == 1e-3
    assert tr.cosine_lr(s, 11) == 1e-5
    assert tr.cosine_lr(schedule(lr=1e-3, warmup_steps=1, steps=3, min_lr=1e-3), 3) == 1e-3
    with pytest.raises(ConfigError, match="min_lr"):
        schedule(lr=1e-3, warmup_steps=1, steps=3, min_lr=1e308)


def test_stage_config_validation():
    with pytest.raises(ConfigError):
        tr.StageConfig(name="x", stage="nope", steps=1, batch_size=1, lr=1e-3)
    with pytest.raises(ConfigError):
        tr.StageConfig(name="x", stage="sft_mrl", steps=1, batch_size=1, lr=1e-3)
    with pytest.raises(ConfigError):
        tr.StageConfig(name="x", stage="distill", steps=1, batch_size=1, lr=1e-3)
    with pytest.raises(ConfigError):
        tr.StageConfig(name="x", stage="pretrain_contrastive", steps=1, batch_size=1,
                       lr=1e-3)


# ---------------------------------------------------------------------------
# stage runs
# ---------------------------------------------------------------------------


def tiny_docs(n_docs=60):
    return synth.generate_mlm_corpus(n_docs, seed=123, n_topics=6, words_per_topic=10,
                                     n_common=12, doc_len=(8, 12))


def tiny_setup(seed=0, n_docs=60):
    docs = tiny_docs(n_docs)
    vocab = D.build_vocab(docs, max_size=96)
    cfg = enc.ModelConfig(
        n_layers=4, hidden=32, n_heads=4, vocab=vocab.size, max_seq=16,
        granularity=enc.GranularitySet(layers=(2, 4), dims=(8, 32)),
    )
    params = enc.init_parameters(cfg, seed=seed)
    state = tr.TrainState(config=cfg, params=params, opt=None, step=0,
                          stage="", base_seed=seed, vocab=vocab)
    source = D.MlmSource(vocab, docs, seq_len=14, mask_rate=0.15)
    return state, source


def mlm_stage(steps, **overrides):
    base = dict(name="s1", stage="pretrain_mlm", steps=steps, batch_size=8,
                lr=3e-3, warmup_steps=5)
    base.update(overrides)
    return tr.StageConfig(**base)


def test_run_stage_zero_steps_keeps_params():
    state, source = tiny_setup()
    before = {n: t.data.copy() for n, t in state.params.named()}
    sink = ListSink()
    tr.run_stage(mlm_stage(0), state, source, sink)
    for n, t in state.params.named():
        np.testing.assert_array_equal(t.data, before[n])


def test_run_stage_deterministic_across_runs():
    final = []
    for _ in range(2):
        state, source = tiny_setup(seed=5)
        tr.run_stage(mlm_stage(8), state, source, ListSink())
        final.append({n: t.data.copy() for n, t in state.params.named()})
    for n in final[0]:
        np.testing.assert_array_equal(final[0][n], final[1][n])


def test_run_stage_loss_decreases_majority_of_seeds():
    wins = 0
    for seed in (0, 1, 2):
        state, source = tiny_setup(seed=seed)
        sink = ListSink()
        tr.run_stage(mlm_stage(200), state, source, sink)
        steps = [r for r in sink if "total" in r]
        first = np.mean([r["total"] for r in steps[:10]])
        last = np.mean([r["total"] for r in steps[-10:]])
        if last < first:
            wins += 1
    assert wins >= 2


def test_run_stage_metric_records():
    state, source = tiny_setup()
    sink = ListSink()
    tr.run_stage(mlm_stage(3), state, source, sink)
    steps = [r for r in sink if "total" in r]
    assert len(steps) == 3
    for r in steps:
        assert {"step", "stage", "lr", "total", "wall_ms"} <= set(r)
        assert "L2-D8" in r and "L4-D32" in r
        # batches are pure functions of (seed, stage, step): replay each one
        batch = source.batch(named_rng(state.base_seed, "s1", "batch", r["step"]), 8)
        assert r["tokens"] == batch.ids.size == batch.lengths.sum()
        assert r["width"] == batch.lengths.max() <= source.seq_len
        assert r["tokens_per_s"] == pytest.approx(r["tokens"] / r["wall_ms"] * 1e3)
    starts = [r for r in sink if r.get("event") == "stage_start"]
    ends = [r for r in sink if r.get("event") == "stage_end"]
    assert len(starts) == 1 and len(ends) == 1
    assert starts[0]["fingerprint"] != ends[0]["fingerprint"]
    # the global gradient norm is logged without grad_clip too, read-only: a
    # clip that never binds logs the same norms and trains the same bits
    clipped_state, _ = tiny_setup()
    clipped = ListSink()
    tr.run_stage(mlm_stage(3, grad_clip=1e30), clipped_state, source, clipped)
    norms = [r["grad_norm"] for r in steps]
    assert all(math.isfinite(n) and n > 0 for n in norms)
    assert norms == [r["grad_norm"] for r in clipped if "total" in r]
    assert clipped[-1]["fingerprint"] == ends[0]["fingerprint"]


def test_step_records_carry_cpu_time(tmp_path):
    # every line of metrics.jsonl parses, and each step record carries the
    # step's process CPU time next to its wall time
    state, source = tiny_setup()
    sink = tr.JsonlSink(tmp_path / "metrics.jsonl")
    tr.run_stage(mlm_stage(3), state, source, sink)
    sink.close()
    records = [json.loads(line) for line in
               (tmp_path / "metrics.jsonl").read_text(encoding="utf-8").splitlines()]
    steps = [r for r in records if "total" in r]
    assert len(steps) == 3
    for r in steps:
        assert isinstance(r["cpu_ms"], float) and r["cpu_ms"] >= 0.0


def fresh_stage(kind, steps):
    """A fresh state, and a ``steps``-step stage of ``kind`` with its source."""
    state, source = tiny_setup()
    plan = obj.build_distill_plan("all_from_top", (4, 32), None, state.config.granularity)
    return (state, *every_kind_stages(state, source, plan, steps)[kind])


def traced_peak(kind, steps):
    """The tracemalloc peak of a fresh ``steps``-step stage of ``kind``. An
    untraced one-step stage runs first, so one-time work (lazy imports,
    caches) counts in neither peak."""
    state, stage, src = fresh_stage(kind, 1)
    tr.run_stage(stage, state, src, ListSink())
    state, stage, src = fresh_stage(kind, steps)
    tracemalloc.start()
    try:
        tr.run_stage(stage, state, src, ListSink())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# params_fingerprint after two steps of each stage kind from fresh_stage
PINNED_FINGERPRINTS = {
    "pretrain_mlm": "399457055923d7f8",
    "distill": "5034aa9ab09b6f3e",
    "pretrain_contrastive": "76c9f77c043ad58a",
    "sft_mrl": "b65f8d93dc3682b2",
    "pretrain_contrastive+dropout": "2921dae52968a3ea",
    "pretrain_mlm+multi": "08c6afb7f944da6b",
}


@pytest.mark.parametrize("kind", PINNED_FINGERPRINTS)
def test_two_steps_of_each_stage_kind_train_pinned_bits(kind):
    """A bit gate for changes that must not move arithmetic: two steps of each
    stage kind at toy sizes, and of a pair stage with hidden_dropout=0.1,
    give the pinned parameter fingerprints, as do two MLM steps over
    ``tiny_docs`` split unevenly between two languages.

    The fingerprints pin the installed numpy/BLAS build as well as the code.
    A numpy or BLAS upgrade re-baselines them, and the re-baseline is recorded
    in CHANGES.md."""
    state, stage, src = fresh_stage(kind.split("+")[0], 2)
    if kind.endswith("+dropout"):
        state.config = dataclasses.replace(state.config, hidden_dropout=0.1)
    if kind.endswith("+multi"):
        docs = tiny_docs()
        src = D.MultilingualMlmSource(state.vocab, {"de": docs[40:], "en": docs[:40]},
                                      seq_len=14, mask_rate=0.15, smoothing=0.7)
    tr.run_stage(stage, state, src, ListSink())
    assert tr.params_fingerprint(state.params) == PINNED_FINGERPRINTS[kind]


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("kind", tr.STAGE_KINDS)
def test_the_tape_worker_moves_no_checkpoint_bit(kind, dropout, monkeypatch, tape_worker,
                                                 tmp_path):
    # two steps with the weight products in the walk, then on the worker
    ckpts = []
    for worker in (None, tape_worker):
        monkeypatch.setattr(T, "_worker", worker)
        state, stage, src = fresh_stage(kind, 2)
        state.config = dataclasses.replace(state.config, hidden_dropout=dropout)
        tr.run_stage(stage, state, src, ListSink())
        path = tmp_path / f"{worker is None}.m3ck"
        tr.save_checkpoint(state, path)
        ckpts.append(path.read_bytes())
    assert tape_worker.futures
    assert ckpts[0] == ckpts[1]


def test_a_step_holds_one_graph():
    # each step's backward frees its tape, so the next step's forward does not
    # peak on top of the last graph: three steps peak where one does, in
    # every stage kind
    for kind in tr.STAGE_KINDS:
        assert traced_peak(kind, 3) <= 1.15 * traced_peak(kind, 1), kind


def every_kind_stages(state, source, plan, steps=2):
    """A ``steps``-step stage of each kind with its source: {kind: (stage, source)}."""
    recs = [D.PairRecord(query=q, doc=d) for q, d in synth.generate_pair_corpus(
        20, seed=4, n_topics=6, words_per_topic=10, n_common=12, doc_len=(8, 12))]
    pairs = D.PairSource(state.vocab, recs, query_len=8, doc_len=14)
    return {
        "pretrain_mlm": (mlm_stage(steps), source),
        "distill": (mlm_stage(steps, name="d", stage="distill", distill_plan=plan), source),
        "pretrain_contrastive": (mlm_stage(steps, name="c", stage="pretrain_contrastive",
                                           tile=3), pairs),
        "sft_mrl": (mlm_stage(steps, name="s", stage="sft_mrl",
                              granularity=enc.GranularitySet(layers=(4,), dims=(8, 32))), pairs),
    }


def test_step_total_is_its_cells_plus_weighted_aux_for_every_kind():
    # LossReport's contract as logged: total = sum of the L*-D* entries
    # + lambda_d * aux, and only a distill stage logs aux
    state, source = tiny_setup()
    plan = obj.build_distill_plan("all_from_top", (4, 32), None, state.config.granularity,
                                  lambda_d=0.5)
    stages = every_kind_stages(state, source, plan)
    for kind, (stage, src) in stages.items():
        sink = ListSink()
        tr.run_stage(stage, state, src, sink)
        steps = [r for r in sink if "total" in r]
        assert len(steps) == 2
        for r in steps:
            cells = [v for key, v in r.items() if re.fullmatch(r"L\d+-D\d+", key)]
            assert len(cells) == len((stage.granularity or state.config.granularity).grid)
            weighted = plan.lambda_d * r["aux"] if kind == "distill" else 0.0
            assert ("aux" in r) == (kind == "distill"), kind
            assert r["total"] == pytest.approx(sum(cells) + weighted, rel=1e-6), kind


def test_every_stage_kind_runs_one_encoder_forward_per_step(monkeypatch):
    # pair stages encode queries and documents as one batch, and distillation
    # reads the teacher from the same forward as the students
    state, source = tiny_setup()
    plan = obj.build_distill_plan("all_from_top", (4, 32), None, state.config.granularity)
    calls = []
    forward = enc.forward

    def counting_forward(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    monkeypatch.setattr(enc, "forward", counting_forward)
    for kind, (stage, src) in every_kind_stages(state, source, plan).items():
        calls.clear()
        tr.run_stage(stage, state, src, ListSink())
        assert len(calls) == stage.steps, kind


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["param/token_embedding", "opt.m/mlm_head_w",
                                  "opt.v/layers.0.ffn_down"])
def test_checkpoint_with_a_nonfinite_tensor_names_it(tmp_path, name):
    state, source = tiny_setup()
    tr.run_stage(mlm_stage(1), state, source, ListSink())
    kind, tensor = name.split("/")
    arrays = {"param": {n: p.data for n, p in state.params.named()},
              "opt.m": state.opt.m, "opt.v": state.opt.v}[kind]
    arrays[tensor][0, 0] = np.inf
    path = tmp_path / "inf.m3ck"
    tr.save_checkpoint(state, path)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: tensor {name} holds non-finite")):
        tr.load_checkpoint(path)


def test_checkpoint_roundtrip_bytes(tmp_path):
    state, source = tiny_setup()
    tr.run_stage(mlm_stage(4), state, source, ListSink())
    p1 = tmp_path / "a.m3ck"
    p2 = tmp_path / "b.m3ck"
    tr.save_checkpoint(state, p1)
    loaded = tr.load_checkpoint(p1)
    tr.save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for (n1, t1), (n2, t2) in zip(state.params.named(), loaded.params.named()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)
    assert loaded.step == state.step and loaded.stage == state.stage
    assert loaded.vocab.id_to_token == state.vocab.id_to_token
    np.testing.assert_array_equal(loaded.opt.m["mlm_head_w"], state.opt.m["mlm_head_w"])


def test_checkpoint_detects_corruption(tmp_path):
    state, _ = tiny_setup()
    path = tmp_path / "c.m3ck"
    tr.save_checkpoint(state, path)
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF  # flip one payload byte
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        tr.load_checkpoint(path)


def test_checkpoint_detects_truncation(tmp_path):
    state, _ = tiny_setup()
    path = tmp_path / "t.m3ck"
    tr.save_checkpoint(state, path)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(CheckpointError, match="payload"):
        tr.load_checkpoint(path)


def test_checkpoint_version_check(tmp_path):
    state, _ = tiny_setup()
    path = tmp_path / "v.m3ck"
    tr.save_checkpoint(state, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        tr.load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "g.m3ck"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        tr.load_checkpoint(path)


# the manifest's model entry as checkpoints of earlier versions wrote it
MANIFEST_MODEL = {
    "base": '{"activation":"swiglu","ffn_mult":2.6666666666666665,"granularity":{"dims":[4,8],'
            '"layers":[1,2]},"hidden":8,"hidden_dropout":0.0,"max_seq":16,"n_heads":2,'
            '"n_layers":2,"norm":"rmsnorm","norm_placement":"pre","use_bias":false,"vocab":50}',
    "-SwiGLU": '{"activation":"gelu","ffn_mult":4.0,"granularity":{"dims":[4,8],'
               '"layers":[1,2]},"hidden":8,"hidden_dropout":0.0,"max_seq":16,"n_heads":2,'
               '"n_layers":2,"norm":"rmsnorm","norm_placement":"pre","use_bias":false,'
               '"vocab":50}',
}


@pytest.mark.parametrize("arm", list(MANIFEST_MODEL))
def test_checkpoint_manifest_model_entry_is_unchanged(arm):
    cfg = dataclasses.replace(
        enc.ModelConfig(n_layers=2, hidden=8, n_heads=2, vocab=50, max_seq=16,
                        granularity=enc.GranularitySet(layers=(1, 2), dims=(4, 8))),
        **ABLATION_ARMS[arm])
    vocab = D.Vocab(D.SPECIAL_TOKENS + tuple(f"w{i}" for i in range(cfg.vocab - 5)))
    state = tr.TrainState(config=cfg, params=enc.init_parameters(cfg, seed=0), opt=None,
                          step=0, stage="", base_seed=0, vocab=vocab)
    manifest = tr._serialize(state)[2]
    assert b'"model":' + MANIFEST_MODEL[arm].encode() + b"," in manifest
    assert enc.config_from_dict(json.loads(MANIFEST_MODEL[arm])) == cfg


def test_each_checkpoint_state_is_serialized_once(tmp_path, monkeypatch):
    calls = {"serialize": 0, "fsync": 0}
    real_serialize, real_fsync = tr._serialize, tr.os.fsync

    def serialize(state):
        calls["serialize"] += 1
        return real_serialize(state)

    def fsync(fd):  # counts the synced files; directory syncs are not writes
        calls["fsync"] += stat.S_ISREG(os.fstat(fd).st_mode)
        real_fsync(fd)

    monkeypatch.setattr(tr, "_serialize", serialize)
    monkeypatch.setattr(tr.os, "fsync", fsync)
    state, source = tiny_setup()
    state = tr.run_stages([(mlm_stage(4, checkpoint_every=2), source)], state, ListSink(),
                          output_dir=tmp_path)
    tr.save_checkpoint(state, tmp_path / "final.m3ck")
    # step 2 and step 4 are two states; s1.m3ck and final.m3ck repeat step 4
    assert calls == {"serialize": 2, "fsync": 2}
    same = [(tmp_path / n).read_bytes() for n in ("s1-step4.m3ck", "s1.m3ck", "final.m3ck")]
    assert same[0] == same[1] == same[2]
    assert same[0] != (tmp_path / "s1-step2.m3ck").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "final.m3ck", "s1-step2.m3ck", "s1-step4.m3ck", "s1.m3ck"]
    np.testing.assert_array_equal(tr.load_checkpoint(tmp_path / "final.m3ck").opt.v["mlm_head_w"],
                                  state.opt.v["mlm_head_w"])
    # where no hard link can be made, the bytes are copied (and synced)
    def no_link(src, dst):
        raise OSError("links not supported")

    monkeypatch.setattr(tr.os, "link", no_link)
    tr.save_checkpoint(state, tmp_path / "copy.m3ck")
    assert calls == {"serialize": 2, "fsync": 3}
    assert (tmp_path / "copy.m3ck").read_bytes() == same[0]
    # a file changed since it was written is not reused: the state is written anew
    (tmp_path / "copy.m3ck").write_bytes(b"stale")
    tr.save_checkpoint(state, tmp_path / "again.m3ck")
    assert calls["serialize"] == 3
    assert (tmp_path / "again.m3ck").read_bytes() == same[0]


def test_checkpoint_directory_is_synced_after_the_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = tr.os.fsync, tr.os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", "dir" if stat.S_ISDIR(st.st_mode) else "file", st.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(tr.os, "fsync", fsync)
    monkeypatch.setattr(tr.os, "replace", replace)
    state, _ = tiny_setup()
    tr.save_checkpoint(state, tmp_path / "a.m3ck")
    tr.save_checkpoint(state, tmp_path / "b.m3ck")  # the same state: a hard link, no file write
    written = (tmp_path / "a.m3ck").stat().st_ino
    directory = ("fsync", "dir", tmp_path.stat().st_ino)
    assert events == [("fsync", "file", written), ("replace", "a.m3ck"), directory,
                      ("replace", "b.m3ck"), directory]


def test_load_checkpoint_draws_no_initialization(tmp_path, monkeypatch):
    state, _ = tiny_setup()
    path = tmp_path / "n.m3ck"
    tr.save_checkpoint(state, path)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a random initialization")

    monkeypatch.setattr(enc, "_trunc_normal", no_draw)
    loaded = tr.load_checkpoint(path)
    assert tr.params_fingerprint(loaded.params) == tr.params_fingerprint(state.params)
    assert all(t.requires_grad for _, t in loaded.params.named())


def test_checkpoint_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    state, source = tiny_setup()
    path = tmp_path / "k.m3ck"
    tr.save_checkpoint(state, path)
    before = path.read_bytes()
    tr.run_stage(mlm_stage(2), state, source, ListSink())
    real_open = open

    class FailingFile:
        """Writes through until 1,000 bytes have gone out, then fails."""

        def __init__(self, f):
            self.f, self.written = f, 0

        def write(self, b):
            if self.written >= 1000:
                raise OSError("disk full")
            self.written += self.f.write(b)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    monkeypatch.setattr(tr, "open", lambda *a, **k: FailingFile(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="disk full"):
        tr.save_checkpoint(state, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["k.m3ck"]


def rewrite_manifest(path, edit):
    raw = path.read_bytes()
    nl = raw.index(b"\n", 8)
    manifest = json.loads(raw[8:nl])
    edit(manifest)
    path.write_bytes(raw[:8] + json.dumps(manifest).encode() + raw[nl:])


def edit_first_grid_entry(manifest, axis, change):
    entries = manifest["model"]["granularity"][axis]
    entries[0] = change(entries[0])


@pytest.mark.parametrize("edit", [
    lambda m: m.pop("tensors"),
    lambda m: m["tensors"][0].pop("shape"),
    lambda m: m["tensors"][0].update(nbytes=str(m["tensors"][0]["nbytes"])),
    lambda m: m["tensors"][0].update(nbytes=1.5),
    lambda m: m["tensors"][0].update(dtype="<f"),
    lambda m: m["tensors"][0].update(shape=[1, 2, 3]),
    lambda m: m["tensors"][1].pop("name"),
    lambda m: m.update(tensors={}),
    lambda m: m["model"].pop("granularity"),
    lambda m: m["model"].update(hidden=0),
    lambda m: m["rng"].pop("base_seed"),
    lambda m: m.update(vocab=7),
    lambda m: m["model"].update(ffn_mult=float("inf")),
    lambda m: m["model"].update(ffn_mult=1e300),
    lambda m: m["model"].update(n_layers=3),
    lambda m: m["model"].update(hidden=float(m["model"]["hidden"])),
    lambda m: m.update(step="2"),
    lambda m: m.update(step=2.5),
    lambda m: m.update(step=-1),
    lambda m: m.update(stage=3),
    lambda m: m["rng"].update(base_seed="0"),
    lambda m: m["optimizer"].update(t="1"),
    lambda m: m["optimizer"].update(t=-1),
    lambda m: m.update(vocab=[m["vocab"][1], m["vocab"][0], *m["vocab"][2:]]),
    lambda m: m["vocab"].__setitem__(-1, m["vocab"][-2]),
    lambda m: m.update(vocab=m["vocab"][:7]),
    lambda m: m["model"].pop("norm"),
    # a zero-size tensor passes the length and checksum checks; nothing reads it
    lambda m: m["tensors"].append({"name": "param/extra", "shape": [0], "dtype": "<f4",
                                   "offset": 0, "nbytes": 0, "crc32": 0}),
    lambda m: m.update(optimizer=None),  # the moments stay in the table
    # int() would read both as the entries they came from
    lambda m: edit_first_grid_entry(m, "layers", lambda v: v + 0.9),
    lambda m: edit_first_grid_entry(m, "dims", str),
], ids=["no-tensors", "no-shape", "str-nbytes", "float-nbytes", "bad-dtype",
        "shape-vs-nbytes", "no-name", "table-not-list", "no-granularity", "zero-hidden", "no-seed",
        "vocab-not-list", "inf-ffn_mult", "huge-ffn_mult", "more-layers",
        "float-hidden", "str-step", "float-step", "negative-step", "int-stage", "str-seed",
        "str-t", "negative-t", "vocab-specials-moved", "vocab-repeats", "vocab-size-vs-model",
        "no-norm", "extra-tensor", "null-optimizer", "float-layer", "str-dim"])
def test_checkpoint_malformed_manifest_is_typed(tmp_path, edit):
    state, source = tiny_setup()
    tr.run_stage(mlm_stage(1), state, source, ListSink())
    path = tmp_path / "m.m3ck"
    tr.save_checkpoint(state, path)
    rewrite_manifest(path, edit)
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: "):
        tr.load_checkpoint(path)


def stored_as_f8(raw, names):
    """A checkpoint's bytes with the tensors ``names`` stored as float64, its
    table's offsets, byte counts and checksums fixed to match."""
    nl = raw.index(b"\n", 8)
    manifest, payload = json.loads(raw[8:nl]), raw[nl + 1:]
    chunks, offset = [], 0
    for t in manifest["tensors"]:
        chunk = payload[t["offset"]:t["offset"] + t["nbytes"]]
        if t["name"] in names:
            chunk = np.frombuffer(chunk, dtype=t["dtype"]).astype("<f8").tobytes()
            t["dtype"] = "<f8"
        t.update(offset=offset, nbytes=len(chunk), crc32=zlib.crc32(chunk))
        chunks.append(chunk)
        offset += len(chunk)
    return raw[:8] + json.dumps(manifest).encode() + b"\n" + b"".join(chunks)


@pytest.mark.parametrize("kinds,first", [(("param/mlm_head_w",), "param/mlm_head_w"),
                                         (("opt.m/", "opt.v/"), "opt.m/token_embedding")],
                         ids=["float64-head", "float64-moments"])
def test_checkpoint_of_mixed_dtypes_is_refused(tmp_path, kinds, first):
    # a float64 head failed at the first forward; float64 moments resumed
    # AdamW in float64 over float32 parameters
    state, source = tiny_setup()
    tr.run_stage(mlm_stage(1), state, source, ListSink())
    path = tmp_path / "mixed.m3ck"
    tr.save_checkpoint(state, path)
    raw = path.read_bytes()
    nl = raw.index(b"\n", 8)
    names = {t["name"] for t in json.loads(raw[8:nl])["tensors"] if t["name"].startswith(kinds)}
    path.write_bytes(stored_as_f8(raw, names))
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: tensor {first} is "
                                              "<f8, but param/token_embedding is <f4$"):
        tr.load_checkpoint(path)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """The bytes of a tiny float64 checkpoint with optimizer state, and the
    offset of its manifest's end."""
    vocab = D.build_vocab(["a b c d e f g"], max_size=12)
    cfg = enc.ModelConfig(n_layers=2, hidden=8, n_heads=2, vocab=vocab.size, max_seq=6,
                          granularity=enc.GranularitySet(layers=(1, 2), dims=(4, 8)))
    params = enc.init_parameters(cfg, seed=0, dtype=np.float64)
    state = tr.TrainState(config=cfg, params=params, opt=tr.OptimizerState.init(params.named()),
                          step=3, stage="s1", base_seed=0, vocab=vocab)
    path = tmp_path_factory.mktemp("ckpt") / "tiny.m3ck"
    tr.save_checkpoint(state, path)
    raw = path.read_bytes()
    return raw, raw.index(b"\n", 8)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_checkpoint_loads_or_raises_typed(tmp_path_factory, tiny_checkpoint, data):
    raw, manifest_end = tiny_checkpoint
    # half the draws land in the header and manifest, where parsing happens
    pos = data.draw(st.integers(0, manifest_end) | st.integers(0, len(raw) - 1))
    if data.draw(st.booleans()):
        damaged = raw[:pos]
    else:
        damaged = raw[:pos] + bytes([raw[pos] ^ data.draw(st.integers(1, 255))]) + raw[pos + 1:]
    path = tmp_path_factory.getbasetemp() / "damaged.m3ck"
    path.write_bytes(damaged)
    try:
        tr.load_checkpoint(path)
    except M3Error:
        pass


# every key of a manifest with optimizer state, as (entry, key); None is the top level
MANIFEST_KEYS = ([(None, k) for k in ("model", "vocab", "step", "stage", "rng", "optimizer",
                                      "tensors")]
                 + [("rng", "base_seed"), ("optimizer", "t")]
                 + [("model", f.name) for f in dataclasses.fields(enc.ModelConfig)])


def test_checkpoint_manifest_holds_these_keys(tiny_checkpoint):
    raw, manifest_end = tiny_checkpoint
    manifest = json.loads(raw[8:manifest_end])
    keys = [(None, k) for k in manifest] + [(e, k) for e in ("rng", "optimizer", "model")
                                            for k in manifest[e]]
    assert sorted(keys, key=str) == sorted(MANIFEST_KEYS, key=str)


@pytest.mark.parametrize("entry,key", MANIFEST_KEYS,
                         ids=[k if e is None else f"{e}.{k}" for e, k in MANIFEST_KEYS])
def test_checkpoint_without_a_manifest_key_is_refused(tmp_path, tiny_checkpoint, entry, key):
    # load_checkpoint reads every key: none is left to a default or ignored
    path = tmp_path / "k.m3ck"
    path.write_bytes(tiny_checkpoint[0])
    tr.load_checkpoint(path)
    rewrite_manifest(path, lambda m: (m if entry is None else m[entry]).pop(key))
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: "):
        tr.load_checkpoint(path)


def test_resume_matches_unbroken_run(tmp_path):
    # unbroken: 12 steps straight
    state_a, source_a = tiny_setup(seed=9)
    sink_a = ListSink()
    tr.run_stage(mlm_stage(12), state_a, source_a, sink_a)

    # broken: 12 steps with a checkpoint at 6, reloaded and continued
    state_b, source_b = tiny_setup(seed=9)
    sink_b1 = ListSink()
    tr.run_stage(mlm_stage(12, checkpoint_every=6), state_b, source_b, sink_b1,
                 output_dir=tmp_path)
    # the run above completed; simulate the break by reloading step 6
    resumed = tr.load_checkpoint(tmp_path / "s1-step6.m3ck")
    assert resumed.step == 6
    sink_b2 = ListSink()
    tr.run_stage(mlm_stage(12), resumed, source_b, sink_b2)

    losses_a = [r["total"] for r in sink_a if "total" in r]
    losses_b = [r["total"] for r in sink_b2 if "total" in r]
    np.testing.assert_allclose(losses_a[6:], losses_b, rtol=1e-12)
    for (n, ta), (_, tb) in zip(state_a.params.named(), resumed.params.named()):
        np.testing.assert_array_equal(ta.data, tb.data)


def test_run_stages_chains_fingerprints(tmp_path):
    state, source = tiny_setup()
    sink = ListSink()
    stages = [(mlm_stage(3, name="s1"), source), (mlm_stage(3, name="s2"), source)]
    tr.run_stages(stages, state, sink, output_dir=tmp_path)
    events = [r for r in sink if r.get("event") in ("stage_start", "stage_end")]
    assert [e["event"] for e in events] == ["stage_start", "stage_end"] * 2
    # second stage starts exactly where the first ended
    assert events[2]["fingerprint"] == events[1]["fingerprint"]
    assert (tmp_path / "s1.m3ck").exists() and (tmp_path / "s2.m3ck").exists()
