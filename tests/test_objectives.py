"""Objective tests: per-cell oracles, reductions, tiling equivalence,
distillation semantics."""

import copy
import math

import numpy as np
import pytest

from m3enc import encoder as enc
from m3enc import objectives as obj
from m3enc import tensor as T
from m3enc.data import IGNORE_INDEX, MlmBatch, PairBatch
from m3enc.errors import ConfigError, ContractError
from m3enc.tensor import Tensor


def toy_config(**overrides):
    base = dict(
        n_layers=4, hidden=16, n_heads=2, vocab=23, max_seq=12,
        granularity=enc.GranularitySet(layers=(2, 4), dims=(4, 8, 16)),
    )
    base.update(overrides)
    return enc.ModelConfig(**base)


def mlm_batch(config, seed=0, bsz=3, s=9, n_masked=2):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(5, config.vocab, size=(bsz, s))
    attn = np.ones((bsz, s), dtype=bool)
    attn[:, -1] = False
    labels = np.full((bsz, s), IGNORE_INDEX, dtype=np.int64)
    mask_pos = np.zeros((bsz, s), dtype=bool)
    for i in range(bsz):
        cols = rng.choice(s - 1, size=n_masked, replace=False)
        mask_pos[i, cols] = True
        labels[i, cols] = tokens[i, cols]
    return MlmBatch(tokens=tokens, attn_mask=attn, labels=labels, mask_positions=mask_pos)


def pair_batch(config, seed=0, bsz=4, s=8):
    rng = np.random.default_rng(seed)
    mk = lambda: (rng.integers(5, config.vocab, size=(bsz, s)), np.ones((bsz, s), dtype=bool))
    qt, qm = mk()
    dt, dm = mk()
    return PairBatch(query_tokens=qt, query_mask=qm, doc_tokens=dt, doc_mask=dm,
                     pair_ids=tuple(f"p{i}" for i in range(bsz)))


def zeroed_params(config):
    """All weights zero except norm gains: every head cell is exactly uniform."""
    params = enc.init_parameters(config, seed=0, dtype=np.float64)
    for name, t in params.named():
        if not (name.endswith(("norm1_w", "norm2_w")) or name == "final_norm_w"):
            t.data[...] = 0.0
    return params


def unit_rows(shape, seed):
    x = np.random.default_rng(seed).normal(size=shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def infonce_from_scores(scores):
    """Mean over queries of -log softmax on an already temperature-scaled
    square score matrix whose diagonal holds the positives."""
    b = scores.shape[0]
    lse = T.logsumexp_rows(scores)
    diag = T.gather_last(scores, np.arange(b))
    return T.tmean(T.add(lse, T.scale(diag, -1.0)))


def naive_contrastive(q_emb, d_emb, tau):
    """The contrastive loss from the full B x B score matrix: the oracle for
    the tiled op."""
    scores = T.scale(T.matmul(q_emb, T.transpose(d_emb, (1, 0))), 1.0 / tau)
    return infonce_from_scores(scores)


# ---------------------------------------------------------------------------
# multigranular MLM
# ---------------------------------------------------------------------------


def test_mlm_uniform_init_gives_log_v_per_cell():
    cfg = toy_config()
    params = zeroed_params(cfg)
    report = obj.matryoshka_mlm_loss(params, cfg, mlm_batch(cfg))
    assert len(report.per_pair) == 6
    for value in report.per_pair.values():
        np.testing.assert_allclose(value, math.log(cfg.vocab), rtol=1e-12)
    np.testing.assert_allclose(report.total, 6 * math.log(cfg.vocab), rtol=1e-12)


def test_mlm_singleton_grid_reduces_to_plain_mlm():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=1, dtype=np.float64)
    batch = mlm_batch(cfg, seed=1)
    single = enc.GranularitySet(layers=(cfg.n_layers,), dims=(cfg.hidden,))
    report = obj.matryoshka_mlm_loss(params, cfg, batch, granularity=single)
    # independent plain path: full-state head projection, then the masked mean
    out = enc.forward(params, cfg, batch.tokens, batch.attn_mask, taps=(cfg.n_layers,))
    logits = enc.mlm_logits(params, out[cfg.n_layers], cfg.hidden)
    safe = np.where(batch.mask_positions, batch.labels, 0)
    plain = T.masked_cross_entropy(logits, safe, batch.mask_positions)
    np.testing.assert_allclose(report.total, float(plain), rtol=1e-12)
    assert report.per_pair == {(cfg.n_layers, cfg.hidden): report.total}


def test_mlm_per_pair_recomputation_oracle():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=2, dtype=np.float64)
    batch = mlm_batch(cfg, seed=2)
    report = obj.matryoshka_mlm_loss(params, cfg, batch)
    recomputed_sum = 0.0
    for (l, d), value in report.per_pair.items():
        out = enc.forward(params, cfg, batch.tokens, batch.attn_mask, taps=(l,))
        logits = enc.mlm_logits(params, out[l], d)
        safe = np.where(batch.mask_positions, batch.labels, 0)
        cell = float(T.masked_cross_entropy(logits, safe, batch.mask_positions))
        np.testing.assert_allclose(value, cell, rtol=1e-9)
        recomputed_sum += cell
    np.testing.assert_allclose(report.total, recomputed_sum, rtol=1e-9)
    np.testing.assert_allclose(report.total, sum(report.per_pair.values()), rtol=1e-12)


def test_mlm_requires_masked_positions():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    batch = mlm_batch(cfg)
    batch.mask_positions[0, :] = False
    batch.labels[0, :] = IGNORE_INDEX
    with pytest.raises(ContractError):
        obj.matryoshka_mlm_loss(params, cfg, batch)


def test_mlm_grad_check():
    cfg = toy_config(n_layers=2, granularity=enc.GranularitySet(layers=(1, 2), dims=(4, 16)))
    params = enc.init_parameters(cfg, seed=3, dtype=np.float64)
    batch = mlm_batch(cfg, seed=3, bsz=2, s=7)

    def f():
        return obj.matryoshka_mlm_loss(params, cfg, batch).node

    assert T.grad_check(f, params.named(), max_coords=220) < 1e-4


# ---------------------------------------------------------------------------
# contrastive loss, one tile (tile=None)
# ---------------------------------------------------------------------------


def test_contrastive_single_pair_is_zero():
    q = Tensor(unit_rows((1, 6), seed=4))
    d = Tensor(unit_rows((1, 6), seed=5))
    assert float(obj.tiled_contrastive_loss(q, d, tau=0.05, tile=None)) == 0.0


def test_contrastive_all_equal_scores_ln_b():
    b, dim = 5, 8
    row = unit_rows((1, dim), seed=6)
    q = Tensor(np.tile(row, (b, 1)))
    d = Tensor(np.tile(row, (b, 1)))
    np.testing.assert_allclose(float(obj.tiled_contrastive_loss(q, d, tau=0.05, tile=None)),
                               math.log(b), rtol=1e-12)


def test_contrastive_closed_form_margin():
    # orthogonal positives: s(q, d+) = 1, s(q, d-) = 0, tau = 0.05
    q = Tensor(np.eye(2))
    d = Tensor(np.eye(2))
    loss = float(obj.tiled_contrastive_loss(q, d, tau=0.05, tile=None))
    expected = math.log(1.0 + math.exp(-20.0))
    # the log-sum-exp path resolves this to ~1e-15 absolute (eps * 20)
    np.testing.assert_allclose(loss, expected, atol=2e-15)
    np.testing.assert_allclose(loss, 2.061e-9, rtol=1e-3)


def test_contrastive_rejects_unnormalized():
    q = Tensor(unit_rows((3, 4), seed=7) * 1.01)
    d = Tensor(unit_rows((3, 4), seed=8))
    with pytest.raises(ContractError):
        obj.tiled_contrastive_loss(q, d, tau=0.05, tile=None)


def test_contrastive_scale_path_consistency():
    # the loss depends on raw scores only through scores/tau
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(6, 6))
    tau = 0.05
    a = float(infonce_from_scores(Tensor(raw / tau)))
    b = float(infonce_from_scores(Tensor((raw / 2.0) / (tau / 2.0))))
    assert a == b


def test_contrastive_grad_check():
    q = Tensor(unit_rows((4, 5), seed=10), requires_grad=True)
    d = Tensor(unit_rows((4, 5), seed=11), requires_grad=True)

    def f():
        qn = T.l2_normalize_rows(q)
        dn = T.l2_normalize_rows(d)
        return obj.tiled_contrastive_loss(qn, dn, tau=0.1, tile=None)

    assert T.grad_check(f, [("q", q), ("d", d)]) < 1e-6


# ---------------------------------------------------------------------------
# tiled contrastive loss
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tile", [1, 2, 7, 31, 32, 64])
def test_tiled_matches_naive_value_and_grads(tile):
    b, dim = 32, 12
    q = Tensor(unit_rows((b, dim), seed=12), requires_grad=True)
    d = Tensor(unit_rows((b, dim), seed=13), requires_grad=True)
    naive = naive_contrastive(q, d, tau=0.05)
    naive.backward()
    gq, gd = q.grad.copy(), d.grad.copy()
    T.zero_grads([("q", q), ("d", d)])
    tiled = obj.tiled_contrastive_loss(q, d, tau=0.05, tile=tile)
    tiled.backward()
    np.testing.assert_allclose(float(tiled), float(naive), rtol=1e-9)
    np.testing.assert_allclose(q.grad, gq, rtol=1e-7, atol=1e-12)
    np.testing.assert_allclose(d.grad, gd, rtol=1e-7, atol=1e-12)


def test_tiled_never_materializes_full_matrix():
    b, dim, tile = 32, 8, 4
    q = Tensor(unit_rows((b, dim), seed=14), requires_grad=True)
    d = Tensor(unit_rows((b, dim), seed=15), requires_grad=True)
    probe: list = []
    loss = obj.tiled_contrastive_loss(q, d, tau=0.05, tile=tile, shape_probe=probe)
    loss.backward()
    assert probe, "probe should record temporaries"
    for shape in probe:
        assert np.prod(shape) <= b * tile, f"temporary too large: {shape}"
        assert shape != (b, b)


def test_tiled_invariant_to_tile_size():
    b = 32
    q = Tensor(unit_rows((b, 10), seed=16))
    d = Tensor(unit_rows((b, 10), seed=17))
    values = [float(obj.tiled_contrastive_loss(q, d, tau=0.05, tile=t))
              for t in (1, 2, 7, b - 1, b, 2 * b)]
    for v in values[1:]:
        np.testing.assert_allclose(v, values[0], rtol=1e-9)


# ---------------------------------------------------------------------------
# MRL SFT
# ---------------------------------------------------------------------------


def test_mrl_singleton_equals_sft():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=4, dtype=np.float64)
    batch = pair_batch(cfg, seed=4)
    report = obj.mrl_sft_loss(params, cfg, batch, dims=(8,), layer=2, tau=0.05)
    q_out = enc.forward(params, cfg, batch.query_tokens, batch.query_mask, taps=(2,))
    d_out = enc.forward(params, cfg, batch.doc_tokens, batch.doc_mask, taps=(2,))
    direct = naive_contrastive(enc.pool(q_out[2], batch.query_mask, 8),
                               enc.pool(d_out[2], batch.doc_mask, 8), tau=0.05)
    np.testing.assert_allclose(report.total, float(direct), rtol=1e-12)


def test_mrl_per_dim_oracle():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=5, dtype=np.float64)
    batch = pair_batch(cfg, seed=5)
    dims = (4, 8, 16)
    report = obj.mrl_sft_loss(params, cfg, batch, dims=dims, layer=4, tau=0.05)
    total = 0.0
    for d in dims:
        cell = obj.mrl_sft_loss(params, cfg, batch, dims=(d,), layer=4, tau=0.05)
        np.testing.assert_allclose(report.per_pair[(4, d)], cell.total, rtol=1e-9)
        total += cell.total
    np.testing.assert_allclose(report.total, total, rtol=1e-9)


def test_mrl_identical_encoders_single_pair_zero():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=6, dtype=np.float64)
    rng = np.random.default_rng(6)
    tokens = rng.integers(5, cfg.vocab, size=(1, 7))
    mask = np.ones((1, 7), dtype=bool)
    batch = PairBatch(query_tokens=tokens, query_mask=mask,
                      doc_tokens=tokens.copy(), doc_mask=mask.copy(), pair_ids=("p0",))
    report = obj.mrl_sft_loss(params, cfg, batch, dims=(8,), layer=2, tau=0.05)
    assert report.total == 0.0


def test_mrl_dim_validation():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    with pytest.raises(ConfigError):
        obj.mrl_sft_loss(params, cfg, pair_batch(cfg), dims=(32,), layer=2, tau=0.05)
    with pytest.raises(ConfigError):
        obj.mrl_sft_loss(params, cfg, pair_batch(cfg), dims=(), layer=2, tau=0.05)


def test_mrl_grad_check():
    cfg = toy_config(n_layers=2, granularity=enc.GranularitySet(layers=(1, 2), dims=(4, 16)))
    params = enc.init_parameters(cfg, seed=7, dtype=np.float64)
    batch = pair_batch(cfg, seed=7, bsz=3, s=6)

    def f():
        return obj.mrl_sft_loss(params, cfg, batch, dims=(4, 16), layer=2, tau=0.1).node

    assert T.grad_check(f, params.named(), max_coords=220) < 1e-4


def test_matryoshka_contrastive_grid_and_tiling():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=8, dtype=np.float64)
    batch = pair_batch(cfg, seed=8, bsz=6)
    report = obj.matryoshka_contrastive_loss(params, cfg, batch, tau=0.05, tile=2)
    assert set(report.per_pair) == set(cfg.granularity.grid)
    np.testing.assert_allclose(report.total, sum(report.per_pair.values()), rtol=1e-9)
    for (l, d), value in report.per_pair.items():
        cell = obj.mrl_sft_loss(params, cfg, batch, dims=(d,), layer=l, tau=0.05)
        np.testing.assert_allclose(value, cell.total, rtol=1e-9)


# ---------------------------------------------------------------------------
# distillation
# ---------------------------------------------------------------------------


def test_build_plan_all_from_top_excludes_teacher():
    grid = enc.GranularitySet(layers=(4, 8, 12), dims=(32, 64, 128, 768))
    plan = obj.build_distill_plan("all_from_top", (12, 768), None, grid)
    assert len(plan.pairs) == 11
    assert all(s != (12, 768) for _, s in plan.pairs)
    assert all(t == (12, 768) for t, _ in plan.pairs)


def test_build_plan_single_pair():
    grid = enc.GranularitySet(layers=(4, 8, 12), dims=(32, 64, 128, 768))
    plan = obj.build_distill_plan("single_pair", (12, 64), (4, 64), grid)
    assert plan.pairs == (((12, 64), (4, 64)),)
    with pytest.raises(ConfigError):
        obj.build_distill_plan("single_pair", (12, 64), None, grid)
    with pytest.raises(ConfigError):
        obj.build_distill_plan("single_pair", (12, 64), (12, 64), grid)
    with pytest.raises(ConfigError):
        obj.build_distill_plan("all_from_top", (3, 64), None, grid)


def test_distill_zero_when_teacher_equals_student():
    # all-zero weights make every cell's distribution identical
    cfg = toy_config()
    params = zeroed_params(cfg)
    batch = mlm_batch(cfg, seed=9)
    plan = obj.build_distill_plan("all_from_top", (4, 16), None, cfg.granularity)
    report = obj.distill_loss(params, cfg, batch, plan)
    assert report.aux == 0.0
    np.testing.assert_allclose(report.total, sum(report.per_pair.values()), rtol=1e-12)


def test_distill_lambda_zero_is_plain_mrl():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=10, dtype=np.float64)
    batch = mlm_batch(cfg, seed=10)
    plan = obj.build_distill_plan("single_pair", (4, 16), (2, 4), cfg.granularity,
                                  lambda_d=0.0)
    with_plan = obj.distill_loss(params, cfg, batch, plan)
    plain = obj.matryoshka_mlm_loss(params, cfg, batch)
    assert with_plan.total == plain.total
    assert with_plan.per_pair == plain.per_pair


def test_distill_positive_when_distributions_differ():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=11, dtype=np.float64)
    batch = mlm_batch(cfg, seed=11)
    plan = obj.build_distill_plan("single_pair", (4, 16), (2, 4), cfg.granularity)
    report = obj.distill_loss(params, cfg, batch, plan)
    assert report.aux > 0.0
    np.testing.assert_allclose(
        report.total, sum(report.per_pair.values()) + plan.lambda_d * report.aux,
        rtol=1e-9)


def test_distill_direct_summation_oracle():
    # tiny vocabulary; recompute the mean KL with plain loops
    cfg = toy_config(vocab=8)
    params = enc.init_parameters(cfg, seed=12, dtype=np.float64)
    batch = mlm_batch(cfg, seed=12, bsz=2, s=6, n_masked=1)
    plan = obj.build_distill_plan("single_pair", (4, 16), (2, 8), cfg.granularity,
                                  lambda_d=1.0, tau_d=1.0)
    report = obj.distill_loss(params, cfg, batch, plan)

    def cell_probs(l, d):
        out = enc.forward(params, cfg, batch.tokens, batch.attn_mask, taps=(l,))
        h = out[l].data[batch.mask_positions]
        z = h[:, :d] @ params.mlm_head_w.data[:d, :] / plan.tau_d
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    p_t = cell_probs(4, 16)
    p_s = cell_probs(2, 8)
    expected = 0.0
    for i in range(p_s.shape[0]):
        for v in range(cfg.vocab):
            expected += p_s[i, v] * math.log(p_s[i, v] / p_t[i, v])
    expected /= p_s.shape[0]
    np.testing.assert_allclose(report.aux, expected, atol=1e-12)


def test_distill_teacher_stop_gradient():
    # gradient of the distillation term vanishes on teacher-only layers and
    # on head rows above the student's dim
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=13, dtype=np.float64)
    batch = mlm_batch(cfg, seed=13)
    single = enc.GranularitySet(layers=(2, 4), dims=(4, 16))
    plan = obj.build_distill_plan("single_pair", (4, 16), (2, 4), single, lambda_d=1.0)

    def grads_of(fn):
        T.zero_grads(params.named())
        fn().backward()
        return {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in params.named()}

    g_with = grads_of(lambda: obj.distill_loss(params, cfg, batch, plan,
                                               granularity=single).node)
    g_without = grads_of(lambda: obj.matryoshka_mlm_loss(params, cfg, batch,
                                                         granularity=single).node)
    # layers 3 and 4 feed only the (4, *) MLM cells and the teacher branch;
    # the distillation term adds nothing there
    for name in g_with:
        if name.startswith(("layers.2.", "layers.3.")):
            np.testing.assert_allclose(g_with[name], g_without[name], atol=1e-12)
    # head rows beyond the student's dim 4 see only MLM and teacher paths
    np.testing.assert_allclose(g_with["mlm_head_w"][4:], g_without["mlm_head_w"][4:],
                               atol=1e-12)
    diff = np.abs(g_with["mlm_head_w"][:4] - g_without["mlm_head_w"][:4]).max()
    assert diff > 0.0


def test_distill_grad_check_with_frozen_teacher():
    cfg = toy_config(n_layers=2, granularity=enc.GranularitySet(layers=(1, 2), dims=(4, 16)))
    params = enc.init_parameters(cfg, seed=14, dtype=np.float64)
    frozen = copy.deepcopy(params)
    batch = mlm_batch(cfg, seed=14, bsz=2, s=6)
    plan = obj.build_distill_plan("all_from_top", (2, 16), None, cfg.granularity)

    def f():
        return obj.distill_loss(params, cfg, batch, plan, teacher_params=frozen).node

    assert T.grad_check(f, params.named(), max_coords=220) < 1e-4


def test_distill_rejects_cells_outside_grid():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    batch = mlm_batch(cfg)
    plan = obj.DistillPlan(pairs=(((4, 16), (3, 4)),))
    with pytest.raises(ConfigError):
        obj.distill_loss(params, cfg, batch, plan)
