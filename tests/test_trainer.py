"""Trainer tests: AdamW algebra, schedule boundaries, stage runs,
checkpoint integrity, resume equivalence."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3enc import data as D
from m3enc import encoder as enc
from m3enc import synth
from m3enc import trainer as tr
from m3enc.errors import CheckpointError, ConfigError, M3Error, TrainingAbort
from m3enc.tensor import GradientRecord, Tensor


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
    grads = GradientRecord({"w": np.ones_like(before)})
    tr.adamw_step(named, grads, state, lr=0.0)
    np.testing.assert_array_equal(named[0][1].data, before)
    assert state.t == 1


def test_adamw_pure_decay_closed_form():
    named = make_params(1)
    before = named[0][1].data.copy()
    state = tr.OptimizerState.init(named, weight_decay=0.01)
    grads = GradientRecord({"w": np.zeros_like(before)})
    tr.adamw_step(named, grads, state, lr=0.1)
    np.testing.assert_allclose(named[0][1].data, 0.999 * before, rtol=1e-12)


def test_adamw_first_step_is_sign_update():
    # bias correction makes m_hat / sqrt(v_hat) = sign(g) at t=1 as eps -> 0
    for scale in (0.5, 1.0, 2.0, 10.0):
        named = make_params(2)
        before = named[0][1].data.copy()
        g = np.random.default_rng(3).normal(size=before.shape)
        state = tr.OptimizerState.init(named, eps=1e-12, weight_decay=0.0)
        tr.adamw_step(named, GradientRecord({"w": g * scale}), state, lr=0.05)
        update = named[0][1].data - before
        np.testing.assert_allclose(update, -0.05 * np.sign(g), atol=1e-6)


def test_adamw_rejects_nonfinite_gradient():
    named = make_params(4)
    state = tr.OptimizerState.init(named)
    bad = np.ones_like(named[0][1].data)
    bad[0, 0] = np.nan
    with pytest.raises(TrainingAbort, match="w"):
        tr.adamw_step(named, GradientRecord({"w": bad}), state, lr=0.1)


def test_grad_clip_global_norm():
    g = np.full((3, 4), 2.0)
    rec = GradientRecord({"w": g})
    norm = tr.clip_grads_global_norm(rec, max_norm=1.0)
    np.testing.assert_allclose(norm, math.sqrt(48.0))
    np.testing.assert_allclose(np.sqrt((rec["w"] ** 2).sum()), 1.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_cosine_lr_boundaries_and_midpoint():
    s = tr.Schedule(peak_lr=1e-3, warmup_steps=100, total_steps=1100, min_lr=1e-5)
    assert tr.cosine_lr(s, 0) == 0.0
    assert tr.cosine_lr(s, 100) == 1e-3
    assert tr.cosine_lr(s, 1100) == 1e-5
    assert tr.cosine_lr(s, 5000) == 1e-5  # clamps past the end
    mid = tr.cosine_lr(s, 100 + 500)
    np.testing.assert_allclose(mid, (1e-3 + 1e-5) / 2, rtol=1e-12)


def test_cosine_lr_continuous_and_monotone():
    s = tr.Schedule(peak_lr=2e-4, warmup_steps=10, total_steps=200)
    values = [tr.cosine_lr(s, t) for t in range(0, 201)]
    np.testing.assert_allclose(values[10], 2e-4, rtol=1e-12)
    assert abs(values[11] - values[10]) < 2e-4 * 0.01  # no jump at the boundary
    for a, b in zip(values[10:], values[11:]):
        assert b <= a + 1e-18
    for a, b in zip(values[:10], values[1:11]):
        assert b >= a


def test_schedule_validation():
    with pytest.raises(ConfigError):
        tr.Schedule(peak_lr=1e-3, warmup_steps=0, total_steps=10)
    with pytest.raises(ConfigError):
        tr.Schedule(peak_lr=1e-3, warmup_steps=10, total_steps=10)


def test_stage_config_validation():
    with pytest.raises(ConfigError):
        tr.StageConfig(name="x", stage="nope", steps=1, batch_size=1, lr=1e-3)
    with pytest.raises(ConfigError):
        tr.StageConfig(name="x", stage="sft", steps=1, batch_size=1, lr=1e-3)
    with pytest.raises(ConfigError):
        tr.StageConfig(name="x", stage="sft", steps=1, batch_size=1, lr=1e-3,
                       sft_layer=2, sft_dims=(4, 8))
    with pytest.raises(ConfigError):
        tr.StageConfig(name="x", stage="pretrain_mlm", steps=1, batch_size=1, lr=1e-3,
                       sft_layer=2)
    with pytest.raises(ConfigError):
        tr.StageConfig(name="x", stage="distill", steps=1, batch_size=1, lr=1e-3)
    with pytest.raises(ConfigError):
        tr.StageConfig(name="x", stage="pretrain_contrastive", steps=1, batch_size=1,
                       lr=1e-3)


# ---------------------------------------------------------------------------
# stage runs
# ---------------------------------------------------------------------------


def tiny_setup(seed=0, n_docs=60):
    docs = synth.generate_mlm_corpus(n_docs, seed=123, n_topics=6, words_per_topic=10,
                                     n_common=12, doc_len=(8, 12))
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
    sink = tr.ListSink()
    tr.run_stage(mlm_stage(0), state, source, sink)
    for n, t in state.params.named():
        np.testing.assert_array_equal(t.data, before[n])


def test_run_stage_deterministic_across_runs():
    final = []
    for _ in range(2):
        state, source = tiny_setup(seed=5)
        tr.run_stage(mlm_stage(8), state, source, tr.ListSink())
        final.append({n: t.data.copy() for n, t in state.params.named()})
    for n in final[0]:
        np.testing.assert_array_equal(final[0][n], final[1][n])


def test_run_stage_loss_decreases_majority_of_seeds():
    wins = 0
    for seed in (0, 1, 2):
        state, source = tiny_setup(seed=seed)
        sink = tr.ListSink()
        tr.run_stage(mlm_stage(200), state, source, sink)
        steps = [r for r in sink if "total" in r]
        first = np.mean([r["total"] for r in steps[:10]])
        last = np.mean([r["total"] for r in steps[-10:]])
        if last < first:
            wins += 1
    assert wins >= 2


def test_run_stage_metric_records():
    state, source = tiny_setup()
    sink = tr.ListSink()
    tr.run_stage(mlm_stage(3), state, source, sink)
    steps = [r for r in sink if "total" in r]
    assert len(steps) == 3
    for r in steps:
        assert {"step", "stage", "lr", "total", "wall_ms"} <= set(r)
        assert "L2-D8" in r and "L4-D32" in r
    starts = [r for r in sink if r.get("event") == "stage_start"]
    ends = [r for r in sink if r.get("event") == "stage_end"]
    assert len(starts) == 1 and len(ends) == 1
    assert starts[0]["fingerprint"] != ends[0]["fingerprint"]


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bytes(tmp_path):
    state, source = tiny_setup()
    tr.run_stage(mlm_stage(4), state, source, tr.ListSink())
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


def test_checkpoint_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    state, source = tiny_setup()
    path = tmp_path / "k.m3ck"
    tr.save_checkpoint(state, path)
    before = path.read_bytes()
    tr.run_stage(mlm_stage(2), state, source, tr.ListSink())
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
    lambda m: m["optimizer"].pop("beta1"),
    lambda m: m.update(vocab=7),
    lambda m: m["model"].update(ffn_mult=float("inf")),
    lambda m: m["model"].update(ffn_mult=1e300),
    lambda m: m["model"].update(n_layers=3),
], ids=["no-tensors", "no-shape", "str-nbytes", "float-nbytes", "bad-dtype",
        "shape-vs-nbytes", "no-name", "table-not-list", "no-granularity", "zero-hidden", "no-seed",
        "no-beta1", "vocab-not-list", "inf-ffn_mult", "huge-ffn_mult", "more-layers"])
def test_checkpoint_malformed_manifest_is_typed(tmp_path, edit):
    state, source = tiny_setup()
    tr.run_stage(mlm_stage(1), state, source, tr.ListSink())
    path = tmp_path / "m.m3ck"
    tr.save_checkpoint(state, path)
    rewrite_manifest(path, edit)
    with pytest.raises(CheckpointError):
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


def test_resume_matches_unbroken_run(tmp_path):
    # unbroken: 12 steps straight
    state_a, source_a = tiny_setup(seed=9)
    sink_a = tr.ListSink()
    tr.run_stage(mlm_stage(12), state_a, source_a, sink_a)

    # broken: 12 steps with a checkpoint at 6, reloaded and continued
    state_b, source_b = tiny_setup(seed=9)
    sink_b1 = tr.ListSink()
    tr.run_stage(mlm_stage(12, checkpoint_every=6), state_b, source_b, sink_b1,
                 output_dir=tmp_path)
    # the run above completed; simulate the break by reloading step 6
    resumed = tr.load_checkpoint(tmp_path / "s1-step6.m3ck")
    assert resumed.step == 6
    sink_b2 = tr.ListSink()
    tr.run_stage(mlm_stage(12), resumed, source_b, sink_b2)

    losses_a = [r["total"] for r in sink_a if "total" in r]
    losses_b = [r["total"] for r in sink_b2 if "total" in r]
    np.testing.assert_allclose(losses_a[6:], losses_b, rtol=1e-12)
    for (n, ta), (_, tb) in zip(state_a.params.named(), resumed.params.named()):
        np.testing.assert_array_equal(ta.data, tb.data)


def test_run_stages_chains_fingerprints(tmp_path):
    state, source = tiny_setup()
    sink = tr.ListSink()
    stages = [(mlm_stage(3, name="s1"), source), (mlm_stage(3, name="s2"), source)]
    tr.run_stages(stages, state, sink, output_dir=tmp_path)
    events = [r for r in sink if r.get("event") in ("stage_start", "stage_end")]
    assert [e["event"] for e in events] == ["stage_start", "stage_end"] * 2
    # second stage starts exactly where the first ended
    assert events[2]["fingerprint"] == events[1]["fingerprint"]
    assert (tmp_path / "s1.m3ck").exists() and (tmp_path / "s2.m3ck").exists()
