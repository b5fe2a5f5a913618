"""Encoder tests: taps, early exit, head truncation, pooling, counts."""

import copy

import numpy as np
import pytest

from m3enc import encoder as enc
from m3enc import tensor as T
from m3enc.errors import ConfigError, ContractError, ShapeError
from m3enc.tensor import Tensor


def toy_config(**overrides):
    base = dict(
        n_layers=6, hidden=32, n_heads=4, vocab=50, max_seq=16,
        granularity=enc.GranularitySet(layers=(2, 4, 6), dims=(4, 8, 32)),
    )
    base.update(overrides)
    return enc.ModelConfig(**base)


def toy_batch(config, seed=0, bsz=2, s=10, n_pad=2):
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, config.vocab, size=(bsz, s))
    mask = np.ones((bsz, s), dtype=bool)
    if n_pad:
        mask[:, -n_pad:] = False
    return tokens, mask


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_granularity_validation():
    with pytest.raises(ConfigError):
        enc.GranularitySet(layers=(), dims=(4,))
    with pytest.raises(ConfigError):
        enc.GranularitySet(layers=(2, 2), dims=(4,))
    with pytest.raises(ConfigError):
        enc.GranularitySet(layers=(3, 1), dims=(4,))
    with pytest.raises(ConfigError):
        enc.GranularitySet(layers=(0,), dims=(4,))
    g = enc.GranularitySet(layers=(2, 4), dims=(8, 16))
    assert len(g) == 4 and g.grid == [(2, 8), (2, 16), (4, 8), (4, 16)]


def test_config_validation():
    with pytest.raises(ConfigError):
        toy_config(n_heads=5)  # does not divide hidden
    with pytest.raises(ConfigError):
        toy_config(granularity=enc.GranularitySet(layers=(7,), dims=(4,)))
    with pytest.raises(ConfigError):
        toy_config(granularity=enc.GranularitySet(layers=(2,), dims=(64,)))
    with pytest.raises(ConfigError):
        toy_config(activation="relu")
    with pytest.raises(ConfigError):
        toy_config(hidden_dropout=1.0)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_deterministic():
    cfg = toy_config()
    a = enc.init_parameters(cfg, seed=7)
    b = enc.init_parameters(cfg, seed=7)
    for (na, ta), (nb, tb) in zip(a.named(), b.named()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    c = enc.init_parameters(cfg, seed=8)
    assert any(not np.array_equal(ta.data, tc.data)
               for (_, ta), (_, tc) in zip(a.named(), c.named()))


def test_init_norm_weights_are_one():
    params = enc.init_parameters(toy_config(), seed=0)
    for name, t in params.named():
        if name.endswith(("norm1_w", "norm2_w")) or name == "final_norm_w":
            np.testing.assert_array_equal(t.data, np.ones_like(t.data))


def test_init_embedding_std_in_band():
    cfg = toy_config(vocab=400, hidden=32)  # 12800 entries
    params = enc.init_parameters(cfg, seed=1, dtype=np.float64)
    std = params.token_embedding.data.std()
    assert 0.015 <= std <= 0.025


def test_init_truncation_bound():
    params = enc.init_parameters(toy_config(), seed=3, dtype=np.float64)
    assert np.abs(params.token_embedding.data).max() <= 2.0 * enc.INIT_STD + 1e-12


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def test_final_norm_applies_only_to_top_tap():
    # rms_norm is linear in its gain: doubling the final norm weight doubles
    # the top tap exactly and leaves every lower tap alone
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    tokens, mask = toy_batch(cfg)
    out = enc.forward(params, cfg, tokens, mask, taps=(4, 6))
    params.final_norm_w.data *= 2.0
    doubled = enc.forward(params, cfg, tokens, mask, taps=(4, 6))
    np.testing.assert_array_equal(doubled[4].data, out[4].data)
    np.testing.assert_array_equal(doubled[6].data, 2.0 * out[6].data)


def test_forward_tap_shapes():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    tokens, mask = toy_batch(cfg, bsz=3, s=9)
    out = enc.forward(params, cfg, tokens, mask, taps=(2, 4, 6))
    assert set(out) == {2, 4, 6}
    for t in out.values():
        assert t.shape == (3, 9, cfg.hidden)


def test_forward_single_sequence_shape():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    tokens = np.arange(8) % cfg.vocab
    out = enc.forward(params, cfg, tokens)
    assert out[6].shape == (8, cfg.hidden)


@pytest.mark.parametrize("placement,norm", [("pre", "rmsnorm"), ("post", "layernorm"),
                                            ("pre", "layernorm"), ("post", "rmsnorm")])
def test_prefix_forward_bit_identical(placement, norm):
    # the forward stops at the deepest tap: layers above it (and the final
    # norm) may hold non-finite weights without touching the tapped state
    cfg = toy_config(norm_placement=placement, norm=norm)
    params = enc.init_parameters(cfg, seed=5)
    tokens, mask = toy_batch(cfg, seed=5)
    full = enc.forward(params, cfg, tokens, mask, taps=(2, 4, 6))
    for l in (2, 4):
        poisoned = copy.deepcopy(params)
        for name, t in poisoned.named():
            if name.startswith("final_norm") or (
                    name.startswith("layers.") and int(name.split(".")[1]) >= l):
                t.data[...] = np.nan
        lite = enc.forward(poisoned, cfg, tokens, mask, taps=(l,))
        assert set(lite) == {l}
        np.testing.assert_array_equal(lite[l].data, full[l].data)


def test_masked_positions_get_zero_attention():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=2)
    tokens, mask = toy_batch(cfg, seed=2, bsz=1, s=10, n_pad=3)
    out_a = enc.forward(params, cfg, tokens, mask, taps=(2, 6))
    perturbed = tokens.copy()
    perturbed[0, -1] = (perturbed[0, -1] + 17) % cfg.vocab
    perturbed[0, -2] = (perturbed[0, -2] + 5) % cfg.vocab
    out_b = enc.forward(params, cfg, perturbed, mask, taps=(2, 6))
    live = mask[0]
    for l in (2, 6):
        np.testing.assert_array_equal(out_a[l].data[0, live], out_b[l].data[0, live])


def unfused_attention(x, lp, config, key_bias):
    """The encoder's attention as one tape node per step, as an oracle for the
    fused ``T.attention`` node."""
    bsz, s, m = x.shape
    h, dh = config.n_heads, config.head_dim

    def split_heads(t):
        return T.transpose(T.reshape(t, (bsz, s, h, dh)), (0, 2, 1, 3))

    q = split_heads(enc._linear(x, lp.attn_q, lp.attn_q_b))
    k = split_heads(enc._linear(x, lp.attn_k, lp.attn_k_b))
    v = split_heads(enc._linear(x, lp.attn_v, lp.attn_v_b))
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = T.softmax_rows(T.add(scores, Tensor(key_bias[:, None, None, :])))
    ctx = T.reshape(T.transpose(T.matmul(attn, v), (0, 2, 1, 3)), (bsz, s, m))
    return enc._linear(ctx, lp.attn_o, lp.attn_o_b)


def test_fused_attention_matches_unfused_encoder(monkeypatch):
    cfg = toy_config(n_layers=2, granularity=enc.GranularitySet(layers=(1, 2), dims=(8, 32)))
    params = enc.init_parameters(cfg, seed=4, dtype=np.float64)
    tokens, mask = toy_batch(cfg, seed=4, bsz=3, s=9, n_pad=0)
    mask[0, 6:] = False  # a different padding per row, so the key bias must
    mask[2, 3:] = False  # follow each row's own mask
    results = []
    for attention in (enc._attention, unfused_attention):
        monkeypatch.setattr(enc, "_attention", attention)
        T.zero_grads(params.named())
        out = enc.forward(params, cfg, tokens, mask)
        T.tsum(T.mul(out[1], out[2])).backward()
        results.append([out[1].data, out[2].data]
                       + [g for _, g in T.GradientRecord.collect(params.named())])
    for fused, ref in zip(*results):
        np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=1e-13)


def test_forward_errors():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    with pytest.raises(ContractError):
        enc.forward(params, cfg, np.array([[cfg.vocab]]))
    with pytest.raises(ContractError):
        enc.forward(params, cfg, np.zeros((1, cfg.max_seq + 1), dtype=int))
    for taps in ((), (0, 2), (2, cfg.n_layers + 1)):
        with pytest.raises(ConfigError):
            enc.forward(params, cfg, np.zeros((1, 4), dtype=int), taps=taps)


def test_dropout_only_in_training_mode():
    cfg = toy_config(hidden_dropout=0.5)
    params = enc.init_parameters(cfg, seed=0)
    tokens, mask = toy_batch(cfg)
    a = enc.forward(params, cfg, tokens, mask)
    b = enc.forward(params, cfg, tokens, mask)
    np.testing.assert_array_equal(a[6].data, b[6].data)
    rng = np.random.default_rng(0)
    c = enc.forward(params, cfg, tokens, mask, training=True, dropout_rng=rng)
    assert not np.array_equal(a[6].data, c[6].data)


def test_early_exit_draws_dropout_only_between_run_layers():
    cfg = toy_config(hidden_dropout=0.5)
    params = enc.init_parameters(cfg, seed=0)
    tokens, mask = toy_batch(cfg)
    rng = np.random.default_rng(0)
    enc.forward(params, cfg, tokens, mask, taps=(2,), training=True, dropout_rng=rng)
    expected = np.random.default_rng(0)
    expected.random((*tokens.shape, cfg.hidden))  # the one mask between layers 1 and 2
    assert rng.random() == expected.random()


# ---------------------------------------------------------------------------
# parameter counting under config toggles
# ---------------------------------------------------------------------------


def expected_count(cfg: enc.ModelConfig) -> int:
    m, v, f, n = cfg.hidden, cfg.vocab, cfg.intermediate, cfg.n_layers
    per_layer = 4 * m * m  # attention projections
    per_layer += (3 if cfg.activation == "swiglu" else 2) * m * f
    per_layer += 2 * m  # two norm weights
    if cfg.norm == "layernorm":
        per_layer += 2 * m
    if cfg.use_bias:
        per_layer += 4 * m  # attention biases
        per_layer += (2 * f + m) if cfg.activation == "swiglu" else (f + m)
    total = n * per_layer
    total += v * m + cfg.max_seq * m  # embeddings
    total += m * v + v  # shared MLM head
    if cfg.norm_placement == "pre":
        total += m + (m if cfg.norm == "layernorm" else 0)
    return total


@pytest.mark.parametrize("overrides", [
    {},
    {"use_bias": True},
    {"activation": "gelu", "ffn_mult": 4.0},
    {"norm": "layernorm"},
    {"norm_placement": "post"},
    {"hidden_dropout": 0.1},
    {"use_bias": True, "norm": "layernorm", "norm_placement": "post", "activation": "gelu"},
])
def test_param_count_matches_analytic(overrides):
    cfg = toy_config(**overrides)
    params = enc.init_parameters(cfg, seed=0)
    assert params.count() == expected_count(cfg)


def test_dropout_toggle_does_not_change_count():
    a = enc.init_parameters(toy_config(), seed=0).count()
    b = enc.init_parameters(toy_config(hidden_dropout=0.1), seed=0).count()
    assert a == b


# ---------------------------------------------------------------------------
# shared MLM head
# ---------------------------------------------------------------------------


def test_mlm_head_full_dim_reduction():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=4, dtype=np.float64)
    h = Tensor(np.random.default_rng(4).normal(size=(5, cfg.hidden)))
    full = T.add(T.matmul(h, params.mlm_head_w), params.mlm_head_b)
    out = enc.mlm_logits(params, h, cfg.hidden)
    np.testing.assert_array_equal(out.data, full.data)


def test_mlm_head_slicing_oracle():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=4, dtype=np.float64)
    h = Tensor(np.random.default_rng(5).normal(size=(5, cfg.hidden)))
    for d in (4, 8, 32):
        logits = enc.mlm_logits(params, h, d)
        oracle = h.data[:, :d] @ params.mlm_head_w.data[:d, :] + params.mlm_head_b.data
        np.testing.assert_allclose(logits.data, oracle, atol=1e-12, rtol=0.0)


def test_mlm_head_accepts_pre_truncated_input():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=4, dtype=np.float64)
    h = Tensor(np.random.default_rng(6).normal(size=(3, cfg.hidden)))
    a = enc.mlm_logits(params, h, 8)
    b = enc.mlm_logits(params, T.slice_last(h, 0, 8), 8)
    np.testing.assert_array_equal(a.data, b.data)


def test_mlm_head_dim_errors():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    h = Tensor(np.zeros((2, cfg.hidden), dtype=np.float32))
    with pytest.raises(ShapeError):
        enc.mlm_logits(params, h, cfg.hidden + 1)
    with pytest.raises(ShapeError):
        enc.mlm_logits(params, Tensor(np.zeros((2, 4), dtype=np.float32)), 8)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def test_pool_single_unmasked_token():
    rng = np.random.default_rng(7)
    state = rng.normal(size=(6, 16))
    mask = np.zeros(6, dtype=bool)
    mask[2] = True
    out = enc.pool(Tensor(state), mask, d=8)
    expected = state[2, :8] / np.linalg.norm(state[2, :8])
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)


def test_pool_identical_tokens():
    row = np.random.default_rng(8).normal(size=16)
    state = np.tile(row, (5, 1))
    out_all = enc.pool(Tensor(state), np.ones(5, dtype=bool), d=16)
    single = np.zeros(5, dtype=bool)
    single[0] = True
    out_one = enc.pool(Tensor(state), single, d=16)
    np.testing.assert_allclose(out_all.data, out_one.data, rtol=1e-12)


def test_pool_excludes_padding_scalar_oracle():
    rng = np.random.default_rng(9)
    state = rng.normal(size=(2, 7, 12))
    mask = np.array([[True] * 5 + [False] * 2, [True] * 3 + [False] * 4])
    d = 6
    out = enc.pool(Tensor(state), mask, d=d)
    for b in range(2):
        rows = [state[b, i, :d] for i in range(7) if mask[b, i]]
        mean = np.zeros(d)
        for r in rows:
            mean += r
        mean /= len(rows)
        np.testing.assert_allclose(out.data[b], mean / np.linalg.norm(mean), rtol=1e-10)


def test_pool_all_masked_error():
    with pytest.raises(ContractError):
        enc.pool(Tensor(np.ones((3, 4))), np.zeros(3, dtype=bool), d=2)


def test_pool_rows_unit_norm():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    tokens, mask = toy_batch(cfg, bsz=4)
    out = enc.forward(params, cfg, tokens, mask, taps=(4,))
    emb = enc.pool(out[4], mask, d=8)
    np.testing.assert_allclose(np.linalg.norm(emb.data, axis=-1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# gradients through the whole encoder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("placement,norm,act,bias", [
    ("pre", "rmsnorm", "swiglu", False),
    ("post", "layernorm", "gelu", True),
])
def test_encoder_grad_check(placement, norm, act, bias):
    cfg = enc.ModelConfig(
        n_layers=2, hidden=8, n_heads=2, vocab=13, max_seq=6,
        granularity=enc.GranularitySet(layers=(1, 2), dims=(4, 8)),
        norm_placement=placement, norm=norm, activation=act, use_bias=bias,
    )
    params = enc.init_parameters(cfg, seed=11, dtype=np.float64)
    tokens = np.array([[1, 5, 7, 2, 0], [3, 3, 9, 12, 4]])
    mask = np.array([[True, True, True, True, False]] * 2)
    targets = np.array([[2, 4, 1, 6, 0]] * 2)
    mask_pos = np.array([[True, False, True, False, False]] * 2)

    def f():
        out = enc.forward(params, cfg, tokens, mask)
        loss = None
        for l, d in cfg.granularity.grid:
            logits = enc.mlm_logits(params, out[l], d)
            cell = T.masked_cross_entropy(logits, targets, mask_pos)
            loss = cell if loss is None else T.add(loss, cell)
        emb = enc.pool(out[1], mask, d=4)
        return T.add(loss, T.tsum(T.mul(emb, emb)))

    err = T.grad_check(f, params.named(), max_coords=220)
    assert err < 1e-4
