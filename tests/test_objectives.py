"""Objective tests: per-cell oracles, reductions, tiling equivalence,
distillation semantics."""

import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from m3enc import encoder as enc
from m3enc import objectives as obj
from m3enc import tensor as T
from m3enc.config import ABLATION_ARMS
from m3enc.data import IGNORE_INDEX, MlmBatch, PairBatch
from m3enc.errors import ConfigError, ContractError
from m3enc.tensor import Tensor
from oracle_ops import packed, slice_rows, transpose


def toy_config(**overrides):
    base = dict(
        n_layers=4, hidden=16, n_heads=2, vocab=23, max_seq=12,
        granularity=enc.GranularitySet(layers=(2, 4), dims=(4, 8, 16)),
    )
    base.update(overrides)
    return enc.ModelConfig(**base)


def plain_head_logits(params, h, d):
    """The plain-head oracle: h[..., :d] @ W[:d, :] + b as one projection."""
    return T.add(T.matmul(T.slice_last(h, 0, d), slice_rows(params.mlm_head_w, 0, d)),
                 params.mlm_head_b)


def masked_rows(x, batch):
    """The [n x V] rows of a packed [N x V] tensor at the batch's masked positions."""
    return T.take_rows(x, np.flatnonzero(batch.labels != IGNORE_INDEX))


def mlm_batch(config, seed=0, bsz=3, s=9, n_masked=2):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(5, config.vocab, size=(bsz, s))
    attn = np.ones((bsz, s), dtype=bool)
    attn[:, -1] = False
    labels = np.full((bsz, s), IGNORE_INDEX, dtype=np.int64)
    for i in range(bsz):
        cols = rng.choice(s - 1, size=n_masked, replace=False)
        labels[i, cols] = tokens[i, cols]
    ids, lengths = packed(tokens, attn)
    return MlmBatch(ids=ids, lengths=lengths, labels=labels[attn])


def pair_batch(config, seed=0, bsz=4, s=8):
    rng = np.random.default_rng(seed)
    mk = lambda: (rng.integers(5, config.vocab, size=(bsz, s)), np.ones((bsz, s), dtype=bool))
    (qi, ql), (di, dl) = packed(*mk()), packed(*mk())
    return PairBatch(query_ids=qi, query_lengths=ql, doc_ids=di, doc_lengths=dl)


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
    return T.masked_cross_entropy(scores, np.arange(scores.shape[0]))


def naive_contrastive(q_emb, d_emb, tau):
    """The contrastive loss from the full B x B score matrix: the oracle for
    the tiled op."""
    scores = T.scale(T.matmul(q_emb, transpose(d_emb, (1, 0))), 1.0 / tau)
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
    out = enc.forward(params, cfg, batch.ids, batch.lengths, taps=(cfg.n_layers,))
    logits = plain_head_logits(params, out[cfg.n_layers], cfg.hidden)
    plain = T.masked_cross_entropy(masked_rows(logits, batch), batch.labels[batch.labels != IGNORE_INDEX])
    np.testing.assert_allclose(report.total, float(plain), rtol=1e-12)
    assert report.per_pair == {(cfg.n_layers, cfg.hidden): report.total}


def test_mlm_per_pair_recomputation_oracle():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=2, dtype=np.float64)
    batch = mlm_batch(cfg, seed=2)
    report = obj.matryoshka_mlm_loss(params, cfg, batch)
    recomputed_sum = 0.0
    for (l, d), value in report.per_pair.items():
        out = enc.forward(params, cfg, batch.ids, batch.lengths, taps=(l,))
        logits = plain_head_logits(params, out[l], d)
        cell = float(T.masked_cross_entropy(masked_rows(logits, batch),
                                            batch.labels[batch.labels != IGNORE_INDEX]))
        np.testing.assert_allclose(value, cell, rtol=1e-9)
        recomputed_sum += cell
    np.testing.assert_allclose(report.total, recomputed_sum, rtol=1e-9)
    np.testing.assert_allclose(report.total, sum(report.per_pair.values()), rtol=1e-12)


def test_segmented_head_matches_plain_head_oracle():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=4, dtype=np.float64)
    batch = mlm_batch(cfg, seed=4)
    products = obj._head_products(params, cfg, batch, cfg.granularity)
    out = enc.forward(params, cfg, batch.ids, batch.lengths)
    w = params.mlm_head_w
    for l in cfg.granularity.layers:
        h = masked_rows(out[l], batch)
        # the first segment is the plain projection itself; later ones add partial products
        first = T.matmul(T.slice_last(h, 0, 4), slice_rows(w, 0, 4))
        np.testing.assert_array_equal(products[(l, 4)].data, first.data)
        for d in (8, 16):
            oracle = h.data[:, :d] @ w.data[:d, :]
            np.testing.assert_allclose(products[(l, d)].data, oracle, atol=1e-12, rtol=0.0)


def test_mlm_requires_masked_positions():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    batch = mlm_batch(cfg)
    batch.labels[:batch.lengths[0]] = IGNORE_INDEX
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


def stacked(q, d, requires_grad=False):
    """One [2B x d] leaf holding the queries above the documents."""
    return Tensor(np.concatenate([q, d]), requires_grad=requires_grad)


def test_contrastive_single_pair_is_zero():
    x = stacked(unit_rows((1, 6), seed=4), unit_rows((1, 6), seed=5))
    assert float(obj.tiled_contrastive_loss(x, tau=0.05, tile=None)) == 0.0


def test_contrastive_all_equal_scores_ln_b():
    b, dim = 5, 8
    row = unit_rows((1, dim), seed=6)
    x = stacked(np.tile(row, (b, 1)), np.tile(row, (b, 1)))
    np.testing.assert_allclose(float(obj.tiled_contrastive_loss(x, tau=0.05, tile=None)),
                               math.log(b), rtol=1e-12)


def test_contrastive_closed_form_margin():
    # orthogonal positives: s(q, d+) = 1, s(q, d-) = 0, tau = 0.05
    x = stacked(np.eye(2), np.eye(2))
    loss = float(obj.tiled_contrastive_loss(x, tau=0.05, tile=None))
    expected = math.log(1.0 + math.exp(-20.0))
    # the log-sum-exp path resolves this to ~1e-15 absolute (eps * 20)
    np.testing.assert_allclose(loss, expected, atol=2e-15)
    np.testing.assert_allclose(loss, 2.061e-9, rtol=1e-3)


def test_contrastive_rejects_unnormalized():
    x = stacked(unit_rows((3, 4), seed=7) * 1.01, unit_rows((3, 4), seed=8))
    with pytest.raises(ContractError):
        obj.tiled_contrastive_loss(x, tau=0.05, tile=None)


def test_contrastive_scale_path_consistency():
    # the loss depends on raw scores only through scores/tau
    rng = np.random.default_rng(9)
    raw = rng.normal(size=(6, 6))
    tau = 0.05
    a = float(infonce_from_scores(Tensor(raw / tau)))
    b = float(infonce_from_scores(Tensor((raw / 2.0) / (tau / 2.0))))
    assert a == b


def test_contrastive_grad_check():
    x = stacked(unit_rows((4, 5), seed=10), unit_rows((4, 5), seed=11), requires_grad=True)

    def f():
        return obj.tiled_contrastive_loss(T.l2_normalize_rows(x), tau=0.1, tile=None)

    assert T.grad_check(f, [("x", x)]) < 1e-6


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
    x = stacked(q.data, d.data, requires_grad=True)
    tiled = obj.tiled_contrastive_loss(x, tau=0.05, tile=tile)
    tiled.backward()
    np.testing.assert_allclose(float(tiled), float(naive), rtol=1e-9)
    np.testing.assert_allclose(x.grad[:b], q.grad, rtol=1e-7, atol=1e-12)
    np.testing.assert_allclose(x.grad[b:], d.grad, rtol=1e-7, atol=1e-12)


def test_tiled_never_materializes_full_matrix():
    # every allocation of the forward and backward pass counts, so the peak
    # stays far below one B x B score matrix (B^2 * itemsize bytes)
    b, dim, tile = 1024, 8, 4
    x = stacked(unit_rows((b, dim), seed=14), unit_rows((b, dim), seed=15), requires_grad=True)
    tracemalloc.start()
    try:
        obj.tiled_contrastive_loss(x, tau=0.05, tile=tile).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad is not None
    assert peak < b * b * x.dtype.itemsize / 8, f"peak allocation {peak} bytes"


def test_tiled_invariant_to_tile_size():
    b = 32
    x = stacked(unit_rows((b, 10), seed=16), unit_rows((b, 10), seed=17))
    values = [float(obj.tiled_contrastive_loss(x, tau=0.05, tile=t))
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
    report = obj.matryoshka_contrastive_loss(params, cfg, batch, 0.05, None,
                                             enc.GranularitySet((2,), (8,)))
    q_out = enc.forward(params, cfg, batch.query_ids, batch.query_lengths, taps=(2,))
    d_out = enc.forward(params, cfg, batch.doc_ids, batch.doc_lengths, taps=(2,))
    direct = naive_contrastive(enc.cell_embedding(enc.pool(q_out[2], batch.query_lengths), 8),
                               enc.cell_embedding(enc.pool(d_out[2], batch.doc_lengths), 8),
                               tau=0.05)
    np.testing.assert_allclose(report.total, float(direct), rtol=1e-12)


def test_mrl_per_dim_oracle():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=5, dtype=np.float64)
    batch = pair_batch(cfg, seed=5)
    dims = (4, 8, 16)
    report = obj.matryoshka_contrastive_loss(params, cfg, batch, 0.05, None,
                                             enc.GranularitySet((4,), dims))
    total = 0.0
    for d in dims:
        cell = obj.matryoshka_contrastive_loss(params, cfg, batch, 0.05, None,
                                               enc.GranularitySet((4,), (d,)))
        np.testing.assert_allclose(report.per_pair[(4, d)], cell.total, rtol=1e-9)
        total += cell.total
    np.testing.assert_allclose(report.total, total, rtol=1e-9)


def test_mrl_identical_encoders_single_pair_zero():
    # exactly 0 by construction, in either precision: the diagonal score is
    # the one entry of the log-sum-exp, not a second sum of the same products
    cfg = toy_config()
    rng = np.random.default_rng(6)
    ids = rng.integers(5, cfg.vocab, size=7)
    batch = PairBatch(query_ids=ids, query_lengths=np.array([7]),
                      doc_ids=ids.copy(), doc_lengths=np.array([7]))
    for dtype in (np.float64, np.float32):
        params = enc.init_parameters(cfg, seed=6, dtype=dtype)
        report = obj.matryoshka_contrastive_loss(params, cfg, batch, 0.05, None,
                                                 enc.GranularitySet((2,), (8,)))
        assert report.total == 0.0, dtype


def test_mrl_dim_validation():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    with pytest.raises(ConfigError):
        obj.matryoshka_contrastive_loss(params, cfg, pair_batch(cfg), 0.05, None,
                                        enc.GranularitySet((2,), (32,)))
    with pytest.raises(ConfigError):
        obj.matryoshka_contrastive_loss(params, cfg, pair_batch(cfg), 0.05, None,
                                        enc.GranularitySet((2,), ()))


def test_mrl_grad_check():
    cfg = toy_config(n_layers=2, granularity=enc.GranularitySet(layers=(1, 2), dims=(4, 16)))
    params = enc.init_parameters(cfg, seed=7, dtype=np.float64)
    batch = pair_batch(cfg, seed=7, bsz=3, s=6)

    def f():
        return obj.matryoshka_contrastive_loss(params, cfg, batch, 0.1, None,
                                               enc.GranularitySet((2,), (4, 16))).node

    assert T.grad_check(f, params.named(), max_coords=220) < 1e-4


def test_matryoshka_contrastive_grid_and_tiling():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=8, dtype=np.float64)
    batch = pair_batch(cfg, seed=8, bsz=6)
    report = obj.matryoshka_contrastive_loss(params, cfg, batch, tau=0.05, tile=2)
    assert set(report.per_pair) == set(cfg.granularity.grid)
    np.testing.assert_allclose(report.total, sum(report.per_pair.values()), rtol=1e-9)
    for (l, d), value in report.per_pair.items():
        cell = obj.matryoshka_contrastive_loss(params, cfg, batch, 0.05, None,
                                               enc.GranularitySet((l,), (d,)))
        np.testing.assert_allclose(value, cell.total, rtol=1e-9)


def test_contrastive_step_is_one_forward_over_both_sides():
    cfg = toy_config(n_layers=3, granularity=enc.GranularitySet(layers=(1, 3),
                                                                dims=(4, 8, 16)))
    params = enc.init_parameters(cfg, seed=9, dtype=np.float64)
    ops = tape_ops(obj.matryoshka_contrastive_loss(params, cfg, pair_batch(cfg, seed=9),
                                                   0.1, 2).node)
    gran = cfg.granularity
    assert ops["attention"] == max(gran.layers)
    assert ops["pool"] == len(gran.layers)
    assert ops["l2_normalize_rows"] == ops["tiled_contrastive_loss"] == len(gran.grid)


@pytest.mark.parametrize("q_width,d_width", [(5, 9), (9, 5)])
def test_stacked_sides_match_two_forwards(q_width, d_width):
    # the loss encodes the queries and the documents as one packed batch;
    # the oracle encodes each side alone
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=10, dtype=np.float64)
    rng = np.random.default_rng(10)
    b = 5

    def side(width):
        mask = np.arange(width) < rng.integers(1, width + 1, size=(b, 1))
        return rng.integers(5, cfg.vocab, size=(b, width)), mask

    (qi, ql), (di, dl) = packed(*side(q_width)), packed(*side(d_width))
    batch = PairBatch(query_ids=qi, query_lengths=ql, doc_ids=di, doc_lengths=dl)

    def grads_of(node):
        T.zero_grads(params.named())
        node.backward()
        return {n: t.grad.copy() for n, t in params.named() if t.grad is not None}

    report = obj.matryoshka_contrastive_loss(params, cfg, batch, 0.1, 2)
    got = grads_of(report.node)
    q_states = enc.forward(params, cfg, qi, ql, taps=cfg.granularity.layers)
    d_states = enc.forward(params, cfg, di, dl, taps=cfg.granularity.layers)
    total = None
    for l, d in cfg.granularity.grid:
        cell = naive_contrastive(enc.cell_embedding(enc.pool(q_states[l], ql), d),
                                 enc.cell_embedding(enc.pool(d_states[l], dl), d), tau=0.1)
        np.testing.assert_allclose(report.per_pair[(l, d)], float(cell), rtol=1e-12)
        total = cell if total is None else T.add(total, cell)
    want = grads_of(total)
    assert set(got) == set(want)
    for name, g in want.items():
        np.testing.assert_allclose(got[name], g, rtol=1e-9, atol=1e-12 * np.abs(g).max(),
                                   err_msg=name)


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
    report = obj.matryoshka_mlm_loss(params, cfg, batch, plan=plan)
    assert report.aux == 0.0
    np.testing.assert_allclose(report.total, sum(report.per_pair.values()), rtol=1e-12)


def test_distill_lambda_zero_is_plain_mrl():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=10, dtype=np.float64)
    batch = mlm_batch(cfg, seed=10)
    plan = obj.build_distill_plan("single_pair", (4, 16), (2, 4), cfg.granularity,
                                  lambda_d=0.0)
    with_plan = obj.matryoshka_mlm_loss(params, cfg, batch, plan=plan)
    plain = obj.matryoshka_mlm_loss(params, cfg, batch)
    assert with_plan.total == plain.total
    assert with_plan.per_pair == plain.per_pair


def test_distill_positive_when_distributions_differ():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=11, dtype=np.float64)
    batch = mlm_batch(cfg, seed=11)
    plan = obj.build_distill_plan("single_pair", (4, 16), (2, 4), cfg.granularity)
    report = obj.matryoshka_mlm_loss(params, cfg, batch, plan=plan)
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
    report = obj.matryoshka_mlm_loss(params, cfg, batch, plan=plan)

    def cell_probs(l, d):
        out = enc.forward(params, cfg, batch.ids, batch.lengths, taps=(l,))
        h = out[l].data[batch.labels != IGNORE_INDEX]
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

    g_with = grads_of(lambda: obj.matryoshka_mlm_loss(params, cfg, batch, single,
                                                      plan).node)
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


def tape_nodes(tensor):
    """The distinct op nodes of the graph under ``tensor``."""
    nodes, stack = {}, [tensor._node]
    while stack:
        t = stack.pop()
        if type(t) is T._Node and id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t.parents)
    return list(nodes.values())


def tape_ops(node):
    """Op name -> number of distinct tape nodes reachable from ``node``."""
    return Counter(t.backward_fn.__qualname__.split(".")[0] for t in tape_nodes(node))


@pytest.mark.parametrize("arm", ABLATION_ARMS)
def test_no_backward_closure_holds_a_tensor(arm):
    # closures save arrays (or shapes) only, so a tensor the forward drops is
    # freed: checked over both grid objectives, distillation, pooling and
    # every ablation arm's ops (dropout's mul included)
    cfg = dataclasses.replace(toy_config(n_layers=2, granularity=enc.GranularitySet(
        layers=(1, 2), dims=(4, 16))), **ABLATION_ARMS[arm])
    params = enc.init_parameters(cfg, seed=15, dtype=np.float64)
    plan = obj.build_distill_plan("all_from_top", (2, 16), None, cfg.granularity)
    rng = np.random.default_rng(15)
    for report in (obj.matryoshka_mlm_loss(params, cfg, mlm_batch(cfg, seed=15), plan=plan,
                                           dropout_rng=rng),
                   obj.matryoshka_contrastive_loss(params, cfg, pair_batch(cfg), 0.05, 2,
                                                   dropout_rng=rng)):
        nodes = tape_nodes(report.node)
        assert len(nodes) > 30
        for t in nodes:
            assert not any(isinstance(c.cell_contents, Tensor)
                           for c in t.backward_fn.__closure__ or ()), t.backward_fn


def test_one_tape_node_per_loss_term():
    cfg = toy_config(n_layers=2, granularity=enc.GranularitySet(layers=(1, 2), dims=(4, 16)))
    params = enc.init_parameters(cfg, seed=15, dtype=np.float64)
    batch = mlm_batch(cfg, seed=15, bsz=2, s=7)
    plan = obj.build_distill_plan("all_from_top", (2, 16), None, cfg.granularity)
    n_cells, n_pairs = len(cfg.granularity.grid), len(plan.pairs)
    mlm = tape_ops(obj.matryoshka_mlm_loss(params, cfg, batch).node)
    distill = tape_ops(obj.matryoshka_mlm_loss(params, cfg, batch, plan=plan).node)
    assert mlm["masked_cross_entropy"] == n_cells
    assert distill["masked_cross_entropy"] == n_cells
    # each pair scales its student cell's head product by 1/tau_d (no second
    # projection), adds one KL node and one add into the sum; lambda_d adds
    # one scale and one add
    assert distill - mlm == Counter({"scale": n_pairs + 1, "kl_rows": n_pairs,
                                     "add": n_pairs})


def test_head_weight_segments_are_cut_once_per_step():
    cfg = toy_config(n_layers=3, granularity=enc.GranularitySet(layers=(1, 2, 3),
                                                                dims=(4, 8, 16)))
    params = enc.init_parameters(cfg, seed=16, dtype=np.float64)
    batch = mlm_batch(cfg, seed=16)
    ops = tape_ops(obj.matryoshka_mlm_loss(params, cfg, batch).node)
    # one cut of mlm_head_w per dim, shared by the layers, plus each tapped
    # layer's gather of its masked rows and the two embedding lookups
    assert ops["take_rows"] == len(cfg.granularity.dims) + len(cfg.granularity.layers) + 2
    # (each layer's fourth weight, ffn_down, multiplies inside its swiglu node)
    assert ops["matmul"] - 3 * cfg.n_layers == len(cfg.granularity.grid)


def test_distill_rejects_cells_outside_grid():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    batch = mlm_batch(cfg)
    plan = obj.DistillPlan(pairs=(((4, 16), (3, 4)),))
    with pytest.raises(ConfigError):
        obj.matryoshka_mlm_loss(params, cfg, batch, plan=plan)
