"""Encoder tests: taps, early exit, pooling and cell embeddings, counts."""

import copy
import dataclasses
import weakref

import numpy as np
import pytest

from m3enc import encoder as enc
from m3enc.config import ABLATION_ARMS
from m3enc import tensor as T
from m3enc.errors import ConfigError, ContractError, ShapeError
from m3enc.tensor import Tensor
from oracle_ops import (MASK_OFFSET, packed, padded, reshape, slice_rows, softmax_rows,
                        transpose, tsum)


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
    # entries are checked, not coerced: no float, string or bool is an integer here
    for layers, dims in (((1.9, 2), (4,)), ((2,), ("4", 8)), ((True, 2), (4,)),
                         ((2,), (4.0,)), ((np.int64(2),), (4,))):
        with pytest.raises(ConfigError, match="must be integers"):
            enc.GranularitySet(layers=layers, dims=dims)
    g = enc.GranularitySet(layers=(2, 4), dims=(8, 16))
    assert g.grid == [(2, 8), (2, 16), (4, 8), (4, 16)]


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


@pytest.mark.parametrize("overrides", [
    {}, {"activation": "gelu"}, {"use_bias": True}, {"norm": "layernorm"},
    {"norm": "layernorm", "use_bias": True, "activation": "gelu", "ffn_mult": 3.3},
])
def test_block_params_counts_each_block_of_the_built_parameters(overrides):
    cfg = toy_config(**overrides)
    params = enc.build_parameters(cfg, lambda name, shape: np.zeros(shape, dtype=np.float32))
    in_blocks = sum(t.data.size for name, t in params.named() if name.startswith("layers."))
    assert in_blocks == cfg.n_layers * cfg.block_params


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
    out = enc.forward(params, cfg, *packed(tokens, mask), taps=(4, 6))
    params.final_norm_w.data *= 2.0
    doubled = enc.forward(params, cfg, *packed(tokens, mask), taps=(4, 6))
    np.testing.assert_array_equal(doubled[4].data, out[4].data)
    np.testing.assert_array_equal(doubled[6].data, 2.0 * out[6].data)


def test_forward_tap_shapes():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    tokens, mask = toy_batch(cfg, bsz=3, s=9)
    out = enc.forward(params, cfg, *packed(tokens, mask), taps=(2, 4, 6))
    assert set(out) == {2, 4, 6}
    for t in out.values():
        assert t.shape == (mask.sum(), cfg.hidden)


def test_forward_single_sequence_shape():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    tokens = np.arange(8) % cfg.vocab
    out = enc.forward(params, cfg, tokens, [8])
    assert out[6].shape == (8, cfg.hidden)


@pytest.mark.parametrize("placement,norm", [("pre", "rmsnorm"), ("post", "layernorm"),
                                            ("pre", "layernorm"), ("post", "rmsnorm")])
def test_prefix_forward_bit_identical(placement, norm):
    # the forward stops at the deepest tap: layers above it (and the final
    # norm) may hold non-finite weights without touching the tapped state
    cfg = toy_config(norm_placement=placement, norm=norm)
    params = enc.init_parameters(cfg, seed=5)
    tokens, mask = toy_batch(cfg, seed=5)
    full = enc.forward(params, cfg, *packed(tokens, mask), taps=(2, 4, 6))
    for l in (2, 4):
        poisoned = copy.deepcopy(params)
        for name, t in poisoned.named():
            if name.startswith("final_norm") or (
                    name.startswith("layers.") and int(name.split(".")[1]) >= l):
                t.data[...] = np.nan
        lite = enc.forward(poisoned, cfg, *packed(tokens, mask), taps=(l,))
        assert set(lite) == {l}
        np.testing.assert_array_equal(lite[l].data, full[l].data)


def test_masked_positions_get_zero_attention():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=2)
    tokens, mask = toy_batch(cfg, seed=2, bsz=1, s=10, n_pad=3)
    out_a = enc.forward(params, cfg, *packed(tokens, mask), taps=(2, 6))
    perturbed = tokens.copy()
    perturbed[0, -1] = (perturbed[0, -1] + 17) % cfg.vocab
    perturbed[0, -2] = (perturbed[0, -2] + 5) % cfg.vocab
    out_b = enc.forward(params, cfg, *packed(perturbed, mask), taps=(2, 6))
    for l in (2, 6):  # every packed row is a live position
        np.testing.assert_array_equal(out_a[l].data, out_b[l].data)


def grads(params):
    """Every parameter's gradient, zeros where none arrived."""
    return [np.zeros_like(p.data) if p.grad is None else p.grad for _, p in params.named()]


def unfused_attention(x, lp, config, rows, key_bias):
    """The encoder's attention as one tape node per step on the padded layout,
    as an oracle for the fused ``T.attention`` node on packed rows."""
    bsz, s = key_bias.shape
    m = x.shape[-1]
    h, dh = config.n_heads, config.hidden // config.n_heads
    scatter = np.zeros((bsz * s, len(rows)), dtype=x.dtype)  # 0/1: row i to position rows[i]
    scatter[rows, np.arange(len(rows))] = 1.0
    x = reshape(T.matmul(Tensor(scatter), x), (bsz, s, m))

    def split_heads(t):
        return transpose(reshape(t, (bsz, s, h, dh)), (0, 2, 1, 3))

    def projection(j):  # W_q, W_k, W_v (and their biases) as thirds of the fused weight
        b = None if lp.attn_qkv_b is None else T.slice_last(lp.attn_qkv_b, j * m, (j + 1) * m)
        return enc._linear(x, T.slice_last(lp.attn_qkv, j * m, (j + 1) * m), b)

    q, k, v = (split_heads(projection(j)) for j in range(3))
    scores = T.scale(T.matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = softmax_rows(T.add(scores, Tensor(key_bias[:, None, None, :])))
    ctx = reshape(transpose(T.matmul(attn, v), (0, 2, 1, 3)), (bsz * s, m))
    return enc._linear(T.take_rows(ctx, rows), lp.attn_o, lp.attn_o_b)


def test_fused_attention_matches_unfused_encoder(monkeypatch):
    cfg = toy_config(n_layers=2, granularity=enc.GranularitySet(layers=(1, 2), dims=(8, 32)))
    params = enc.init_parameters(cfg, seed=4, dtype=np.float64)
    tokens, mask = toy_batch(cfg, seed=4, bsz=3, s=9, n_pad=0)
    mask[0, 6:] = False  # a different padding per row, so the sequence lengths
    mask[2, 3:] = False  # must follow each row's own mask
    results = []

    def unfused(x, lp, config, lengths):  # the sequences as padded prefixes
        live = np.arange(lengths.max()) < lengths[:, None]
        return unfused_attention(x, lp, config, np.flatnonzero(live),
                                 np.where(live, 0.0, MASK_OFFSET))

    for attention in (enc._attention, unfused):
        monkeypatch.setattr(enc, "_attention", attention)
        T.zero_grads(params.named())
        out = enc.forward(params, cfg, *packed(tokens, mask))
        tsum(T.mul(out[1], out[2])).backward()
        results.append([out[1].data, out[2].data] + grads(params))
    for fused, ref in zip(*results):
        np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=1e-13)


def padded_forward(params, config, tokens, attn_mask, taps, dropout_rng=None):
    """The encoder as it ran before packing: every block on the padded
    [B x s x m] layout, the attention oracle given every position as a row and
    the padding only through its key bias. The oracle for ``enc.forward``."""
    bsz, s = tokens.shape
    m = config.hidden
    key_bias = np.where(attn_mask, 0.0, MASK_OFFSET)
    every = np.arange(bsz * s)

    def attention(x, lp):
        ctx = unfused_attention(reshape(x, (bsz * s, m)), lp, config, every, key_bias)
        return reshape(ctx, (bsz, s, m))

    def norm(x, w, b):
        return enc._norm(x, w, b, config.norm)

    h = T.add(T.take_rows(params.token_embedding, tokens),
              slice_rows(params.position_embedding, 0, s))
    tapped = {}
    for i, lp in enumerate(params.layers[:max(taps)], start=1):
        if config.norm_placement == "pre":
            h = T.add(h, attention(norm(h, lp.norm1_w, lp.norm1_b), lp))
            h = T.add(h, enc._ffn(norm(h, lp.norm2_w, lp.norm2_b), lp, config))
        else:
            h = norm(T.add(h, attention(h, lp)), lp.norm1_w, lp.norm1_b)
            h = norm(T.add(h, enc._ffn(h, lp, config)), lp.norm2_w, lp.norm2_b)
        if i == config.n_layers and params.final_norm_w is not None:
            h = norm(h, params.final_norm_w, params.final_norm_b)
        if i in taps:
            tapped[i] = h
        if dropout_rng is not None and config.hidden_dropout > 0.0 and i < max(taps):
            keep = (dropout_rng.random(h.shape) >= config.hidden_dropout) / (
                1.0 - config.hidden_dropout)
            h = T.mul(h, Tensor(keep))
    return tapped


def mixed_masks(config, seed):
    """Tokens and a prefix mask with mixed lengths: one full row, two rows of
    five real tokens and one row with a single real token."""
    tokens = np.random.default_rng(seed).integers(0, config.vocab, size=(4, 9))
    mask = np.zeros((4, 9), dtype=bool)
    mask[0] = True
    mask[1, :5] = True
    mask[2, 0] = True
    mask[3, :5] = True
    return tokens, mask


@pytest.mark.parametrize("arm", ABLATION_ARMS)
def test_packed_forward_matches_padded_oracle(arm):
    cfg = dataclasses.replace(toy_config(n_layers=3, granularity=enc.GranularitySet(
        layers=(1, 3), dims=(8, 32))), **ABLATION_ARMS[arm])
    params = enc.init_parameters(cfg, seed=6, dtype=np.float64)
    tokens, mask = mixed_masks(cfg, seed=6)
    weights = {l: np.random.default_rng(60 + l).normal(size=(4, 9, cfg.hidden)) * mask[..., None]
               for l in (1, 3)}
    rngs = [np.random.default_rng(61), np.random.default_rng(61)]
    results = []
    for is_packed, rng in zip((True, False), rngs):
        T.zero_grads(params.named())
        if is_packed:
            out = enc.forward(params, cfg, *packed(tokens, mask), taps=(1, 3), dropout_rng=rng)
        else:
            out = padded_forward(params, cfg, tokens, mask, taps=(1, 3), dropout_rng=rng)
        loss = None
        for l, w in weights.items():  # a loss that reads the real positions only
            term = tsum(T.mul(out[l], Tensor(w[mask] if is_packed else w)))
            loss = term if loss is None else T.add(loss, term)
        loss.backward()
        taps = [out[l].data if is_packed else out[l].data[mask] for l in (1, 3)]
        results.append(taps + grads(params))
    assert rngs[0].random() == rngs[1].random()  # same draws, same stream position
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def reachable(root):
    """Every op node of the graph under the tensor ``root``, the root's included."""
    nodes, stack = {}, [root._node]
    while stack:
        node = stack.pop()
        if type(node) is T._Node and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    return list(nodes.values())


def test_backward_releases_every_node_it_walks():
    # after backward no op node of either graph keeps its parents or its
    # closure, and with them the arrays its forward saved; the packed
    # encoder's leaf gradients still match the padded oracle's
    cfg = toy_config(n_layers=3, granularity=enc.GranularitySet(layers=(1, 3), dims=(8, 32)))
    params = enc.init_parameters(cfg, seed=6, dtype=np.float64)
    tokens, mask = mixed_masks(cfg, seed=6)
    weights = {l: np.random.default_rng(60 + l).normal(size=(4, 9, cfg.hidden)) * mask[..., None]
               for l in (1, 3)}
    results = []
    for is_packed in (True, False):
        T.zero_grads(params.named())
        out = (enc.forward(params, cfg, *packed(tokens, mask), taps=(1, 3)) if is_packed
               else padded_forward(params, cfg, tokens, mask, taps=(1, 3)))
        loss = T.add(*(tsum(T.mul(out[l], Tensor(w[mask] if is_packed else w)))
                       for l, w in weights.items()))
        ops = reachable(loss)
        loss.backward()
        assert len(ops) > 20
        assert all(node.parents == () and node.backward_fn is T._released for node in ops)
        results.append(grads(params))
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def test_forward_frees_the_outputs_no_backward_reads(monkeypatch):
    # attention saves its own sorted copy of q | k | v and add saves only
    # shapes, so after a grad-on forward no qkv output and no sublayer output
    # before its residual add is alive; the leaf gradients still match the
    # padded oracle's
    cfg = toy_config(n_layers=3, granularity=enc.GranularitySet(layers=(1, 3), dims=(8, 32)))
    assert (cfg.norm_placement, cfg.activation, cfg.use_bias) == ("pre", "swiglu", False)
    params = enc.init_parameters(cfg, seed=6, dtype=np.float64)
    tokens, mask = mixed_masks(cfg, seed=6)
    weights = {l: np.random.default_rng(60 + l).normal(size=(4, 9, cfg.hidden)) * mask[..., None]
               for l in (1, 3)}
    unread = []  # the qkv [N x 3m] and attention sublayer [N x m] matmul outputs
    real = T._from_op

    def spy(data, op, parents, backward_fn):
        if op == "matmul" and data.shape[-1] in (cfg.hidden, 3 * cfg.hidden):
            unread.append(weakref.ref(data))
        return real(data, op, parents, backward_fn)

    results = []
    for is_packed in (True, False):
        T.zero_grads(params.named())
        if is_packed:
            monkeypatch.setattr(T, "_from_op", spy)
            out = enc.forward(params, cfg, *packed(tokens, mask), taps=(1, 3))
        else:
            out = padded_forward(params, cfg, tokens, mask, taps=(1, 3))
        monkeypatch.undo()
        if is_packed:
            assert len(unread) == 2 * cfg.n_layers
            assert all(ref() is None for ref in unread)
        loss = T.add(*(tsum(T.mul(out[l], Tensor(w[mask] if is_packed else w)))
                       for l, w in weights.items()))
        loss.backward()
        results.append(grads(params))
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


def test_forward_keeps_no_swiglu_output_for_the_down_projection(monkeypatch):
    # the fused swiglu node saves its [N x 2f] gate | up input and ffn_down:
    # after a grad-on forward no [N x f] SwiGLU output is alive, nor the
    # node's [N x m] output, which only the residual add reads
    cfg = toy_config(n_layers=3, granularity=enc.GranularitySet(layers=(1, 3), dims=(8, 32)))
    assert cfg.activation == "swiglu"
    params = enc.init_parameters(cfg, seed=6, dtype=np.float64)
    tokens, mask = mixed_masks(cfg, seed=6)
    f = params.layers[0].ffn_down.shape[0]
    outputs = []  # every [N x f] op output and SwiGLU output, and each swiglu node's output
    real_op, real_hidden = T._from_op, T._swiglu_hidden

    def spy_op(data, op, parents, backward_fn):
        if op == "swiglu" or data.shape == (mask.sum(), f):
            outputs.append(weakref.ref(data))
        return real_op(data, op, parents, backward_fn)

    def spy_hidden(gate, up, sig):
        h = real_hidden(gate, up, sig)
        outputs.append(weakref.ref(h))
        return h

    monkeypatch.setattr(T, "_from_op", spy_op)
    monkeypatch.setattr(T, "_swiglu_hidden", spy_hidden)
    out = enc.forward(params, cfg, *packed(tokens, mask), taps=(1, 3))
    monkeypatch.undo()
    assert all(ref() is None for ref in outputs)
    assert len(outputs) == 2 * cfg.n_layers
    out[3].backward(np.ones_like(out[3].data))
    assert all(np.abs(lp.ffn_down.grad).sum() > 0 for lp in params.layers)


def test_each_tap_is_the_real_rows_in_mask_order():
    # the batch tap holds mask.sum() rows, sequence after sequence, and each
    # sequence's rows are what a forward of that sequence alone gives
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=7, dtype=np.float64)
    tokens, mask = mixed_masks(cfg, seed=7)
    out = enc.forward(params, cfg, *packed(tokens, mask), taps=(2, 4, 6))
    ends = np.cumsum(mask.sum(axis=1))
    for b in range(len(tokens)):
        alone = enc.forward(params, cfg, *packed(tokens[b], mask[b]), taps=(2, 4, 6))
        for l, t in out.items():
            assert t.shape == (mask.sum(), cfg.hidden)
            assert alone[l].shape == (mask[b].sum(), cfg.hidden)
            np.testing.assert_allclose(t.data[ends[b] - mask[b].sum():ends[b]], alone[l].data,
                                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("squeeze", [False, True])
def test_pad_rows_of_every_tap_are_exact_zeros(squeeze):
    # a packed tap has no padding rows: placed back in the padded layout its pad
    # rows are zeros, its real rows are live, and the ids at padding positions
    # cannot reach it (other pad ids give the same bits under the same dropout);
    # squeezed, the batch is one sequence
    cfg = toy_config(hidden_dropout=0.5)
    params = enc.init_parameters(cfg, seed=7)
    tokens, mask = mixed_masks(cfg, seed=7)
    if squeeze:
        tokens, mask = tokens[3], mask[3]
    other = np.where(mask, tokens, (tokens + 1) % cfg.vocab)
    runs = [enc.forward(params, cfg, *packed(ids, mask), taps=(2, 4, 6),
                        dropout_rng=np.random.default_rng(7)) for ids in (tokens, other)]
    for l, t in runs[0].items():
        assert t.shape == (mask.sum(), cfg.hidden)
        full = padded(t.data, mask)
        assert (full[~mask] == 0.0).all()
        assert (full[mask] != 0.0).any(axis=-1).all()
        np.testing.assert_array_equal(t.data, runs[1][l].data)


def test_no_op_of_the_forward_sees_a_padding_row(monkeypatch):
    # every node the forward makes, from the embedding gathers through
    # attention, dropout and the last block, holds the mask.sum() real rows
    cfg = toy_config(hidden_dropout=0.5)
    params = enc.init_parameters(cfg, seed=9)
    tokens, mask = mixed_masks(cfg, seed=9)
    made = []
    real = T._from_op

    def spy(data, op, parents, backward_fn):
        made.append((op, data.shape))
        return real(data, op, parents, backward_fn)

    monkeypatch.setattr(T, "_from_op", spy)
    enc.forward(params, cfg, *packed(tokens, mask), taps=(2, 6), dropout_rng=np.random.default_rng(9))
    assert {"take_rows", "attention", "swiglu", "mul"} <= {op for op, _ in made}
    assert all(shape[0] == mask.sum() for _, shape in made), made


def test_dropout_keeps_the_padded_draw_at_real_rows():
    mask = mixed_masks(toy_config(), seed=8)[1]
    x = Tensor(np.ones((mask.sum(), 6), dtype=np.float32))
    rng, expected = np.random.default_rng(8), np.random.default_rng(8)
    out = enc._dropout(x, 0.25, rng, mask.sum(axis=1))
    keep = (expected.random((*mask.shape, 6)) >= 0.25)[mask]
    np.testing.assert_array_equal(out.data, keep / np.float32(0.75))
    assert out.dtype == np.float32
    assert rng.random() == expected.random()


def matmul_nodes(node):
    """Number of distinct matmul tape nodes reachable from ``node``."""
    return sum(t.backward_fn.__qualname__.startswith("matmul.") for t in reachable(node))


@pytest.mark.parametrize("arm", ABLATION_ARMS)
def test_each_layer_multiplies_by_four_weights(arm):
    # fused q | k | v and ffn input projections: attn_qkv, attn_o, ffn_in, ffn_down
    cfg = dataclasses.replace(toy_config(n_layers=3, granularity=enc.GranularitySet(
        layers=(3,), dims=(8, 32))), **ABLATION_ARMS[arm])
    params = enc.init_parameters(cfg, seed=5, dtype=np.float64)
    tokens, mask = toy_batch(cfg, seed=5)
    out = enc.forward(params, cfg, *packed(tokens, mask), dropout_rng=np.random.default_rng(5))
    # the SwiGLU arms multiply by ffn_down inside the fused swiglu node
    assert matmul_nodes(out[3]) == (3 if cfg.activation == "swiglu" else 4) * cfg.n_layers


def test_forward_errors():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    with pytest.raises(ContractError):
        enc.forward(params, cfg, np.array([cfg.vocab]), [1])
    with pytest.raises(ShapeError):  # padded ids are no packed batch
        enc.forward(params, cfg, np.zeros((1, 4), dtype=int), [4])
    for taps in ((), (0, 2), (2, cfg.n_layers + 1)):
        with pytest.raises(ConfigError):
            enc.forward(params, cfg, np.zeros(4, dtype=int), [4], taps=taps)


# (lengths, the packed positions N, the error); max_seq is 16
MALFORMED_LENGTHS = {
    "2-D": ([[2, 2]], 4, ShapeError),
    "float": ([2.0, 2.0], 4, ShapeError),
    "bool": ([True, True], 2, ShapeError),
    "sum below N": ([2, 1], 4, ShapeError),
    "sum above N": ([2, 3], 4, ShapeError),
    "no sequence": (np.array([], dtype=int), 0, ContractError),
    "a zero length": ([4, 0], 4, ContractError),
    "a negative length": ([5, -1], 4, ShapeError),
    "above max_seq": ([17], 17, ContractError),
}


@pytest.mark.parametrize("case", MALFORMED_LENGTHS)
def test_forward_and_pool_reject_malformed_lengths(case):
    lengths, n, error = MALFORMED_LENGTHS[case]
    cfg = toy_config()
    with pytest.raises(error):
        enc.forward(enc.init_parameters(cfg, seed=0), cfg, np.zeros(n, dtype=int), lengths)
    if case != "above max_seq":  # pool knows no max_seq
        with pytest.raises(error):
            enc.pool(Tensor(np.ones((n, 4))), lengths)


def test_dropout_only_in_training_mode():
    cfg = toy_config(hidden_dropout=0.5)
    params = enc.init_parameters(cfg, seed=0)
    tokens, mask = toy_batch(cfg)
    a = enc.forward(params, cfg, *packed(tokens, mask))
    b = enc.forward(params, cfg, *packed(tokens, mask))
    np.testing.assert_array_equal(a[6].data, b[6].data)
    rng = np.random.default_rng(0)
    c = enc.forward(params, cfg, *packed(tokens, mask), dropout_rng=rng)
    assert not np.array_equal(a[6].data, c[6].data)


def test_early_exit_draws_dropout_only_between_run_layers():
    cfg = toy_config(hidden_dropout=0.5)
    params = enc.init_parameters(cfg, seed=0)
    tokens, mask = toy_batch(cfg)
    rng = np.random.default_rng(0)
    enc.forward(params, cfg, *packed(tokens, mask), taps=(2,), dropout_rng=rng)
    expected = np.random.default_rng(0)
    # the one mask between layers 1 and 2, as wide as the longest sequence
    expected.random((len(tokens), mask.sum(axis=1).max(), cfg.hidden))
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
# pooling
# ---------------------------------------------------------------------------


def test_pool_single_unmasked_token():
    rng = np.random.default_rng(7)
    state = rng.normal(size=(6, 16))
    out = enc.cell_embedding(enc.pool(Tensor(state[2:3]), [1]), 8)
    expected = state[2, :8] / np.linalg.norm(state[2, :8])
    np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)


def test_pool_identical_tokens():
    row = np.random.default_rng(8).normal(size=16)
    state = np.tile(row, (5, 1))
    out_all = enc.cell_embedding(enc.pool(Tensor(state), [5]), 16)
    out_one = enc.cell_embedding(enc.pool(Tensor(state[:1]), [1]), 16)
    np.testing.assert_allclose(out_all.data, out_one.data, rtol=1e-12)


def test_pool_excludes_padding_scalar_oracle():
    rng = np.random.default_rng(9)
    state = rng.normal(size=(2, 7, 12))
    mask = np.array([[True] * 5 + [False] * 2, [True] * 3 + [False] * 4])
    d = 6
    out = enc.cell_embedding(enc.pool(Tensor(state[mask]), mask.sum(axis=1)), d)
    for b in range(2):
        rows = [state[b, i, :d] for i in range(7) if mask[b, i]]
        mean = np.zeros(d)
        for r in rows:
            mean += r
        mean /= len(rows)
        np.testing.assert_allclose(out.data[b], mean / np.linalg.norm(mean), rtol=1e-10)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_equals_padded_weighted_sum_bit_for_bit(dtype):
    # the node's value is (x * w).sum(axis=-2) over the padded state, w = mask / count
    rng = np.random.default_rng(11)
    drawn = rng.random((40, 32)) < 0.7
    drawn[:, 0] = True
    drawn[1, 1:] = False  # a single-token row
    lengths = drawn.sum(axis=1)
    mask = np.arange(32) < lengths[:, None]
    state = (rng.normal(size=(40, 32, 128)) * mask[..., None]).astype(dtype)
    w = (mask.astype(dtype) / mask.sum(axis=-1, keepdims=True).astype(dtype))[..., None]
    pooled = enc.pool(Tensor(state[mask]), lengths)
    assert pooled.dtype == dtype
    np.testing.assert_array_equal(pooled.data, (state * w).sum(axis=-2))
    one = enc.pool(Tensor(state[5][mask[5]]), lengths[5:6])  # a batch of one sequence
    np.testing.assert_array_equal(one.data[0], (state[5] * w[5]).sum(axis=-2))


def test_pool_grad_check():
    rng = np.random.default_rng(12)
    mask = mixed_masks(toy_config(), seed=12)[1]
    lengths = mask.sum(axis=1)
    x = Tensor(rng.normal(size=(mask.sum(), 6)), requires_grad=True)
    c = Tensor(rng.normal(size=(len(mask), 6)))
    assert T.grad_check(lambda: tsum(T.mul(enc.pool(x, lengths), c)), [("x", x)]) < 1e-6
    with pytest.raises(ShapeError):  # a padded state is no packed tap
        enc.pool(Tensor(rng.normal(size=(*mask.shape, 6))), lengths)


def test_pool_all_masked_error():
    with pytest.raises(ContractError):
        enc.pool(Tensor(np.ones((3, 4))), [3, 0])


def per_dim_pool(state, mask, d):
    """The per-dim pooling that ``pool`` + ``cell_embedding`` replaced:
    truncate the state first, then take the masked mean and normalize."""
    counts = mask.sum(axis=-1)
    weights = (mask.astype(state.dtype) / counts[..., None].astype(state.dtype))[..., None]
    mean = tsum(T.mul(T.slice_last(state, 0, d), Tensor(weights)), axis=-2)
    return T.l2_normalize_rows(mean)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_then_slice_matches_per_dim_pool_bit_for_bit(dtype):
    rng = np.random.default_rng(10)
    state = Tensor(rng.normal(size=(40, 32, 128)).astype(dtype))
    drawn = rng.random((40, 32)) < 0.7
    drawn[:, 0] = True
    mask = np.arange(32) < drawn.sum(axis=1, keepdims=True)
    pooled = enc.pool(Tensor(state.data[mask]), mask.sum(axis=1))
    assert pooled.shape == (40, 128) and pooled.dtype == dtype
    for d in (1, 3, 16, 32, 64, 100, 128):
        np.testing.assert_array_equal(enc.cell_embedding(pooled, d).data,
                                      per_dim_pool(state, mask, d).data, err_msg=f"d={d}")


def test_cell_embedding_dim_errors():
    pooled = Tensor(np.ones((2, 8)))
    for d in (0, 9):
        with pytest.raises(ShapeError):
            enc.cell_embedding(pooled, d)


def test_pool_rows_unit_norm():
    cfg = toy_config()
    params = enc.init_parameters(cfg, seed=0)
    tokens, mask = toy_batch(cfg, bsz=4)
    out = enc.forward(params, cfg, *packed(tokens, mask), taps=(4,))
    emb = enc.cell_embedding(enc.pool(out[4], mask.sum(axis=1)), 8)
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
    rows = np.flatnonzero(mask_pos[mask])  # the masked rows of a packed tap

    def f():
        out = enc.forward(params, cfg, *packed(tokens, mask))
        loss = None
        for l, d in cfg.granularity.grid:
            logits = T.add(T.matmul(T.slice_last(out[l], 0, d),
                                    slice_rows(params.mlm_head_w, 0, d)),
                           params.mlm_head_b)
            cell = T.masked_cross_entropy(T.take_rows(logits, rows), targets[mask_pos])
            loss = cell if loss is None else T.add(loss, cell)
        emb = enc.cell_embedding(enc.pool(out[1], mask.sum(axis=1)), 4)
        return T.add(loss, tsum(T.mul(emb, emb)))

    err = T.grad_check(f, params.named(), max_coords=220)
    assert err < 1e-4
