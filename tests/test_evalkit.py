"""Evaluation kit tests: exact search oracles, recall, sweeps, report files."""

import numpy as np
import pytest

from m3enc import data as D
from m3enc import encoder as enc
from m3enc import evalkit as ek
from m3enc import synth
from m3enc.errors import ConfigError, ContractError, NumericsError


def unit_rows(shape, seed):
    x = np.random.default_rng(seed).normal(size=shape)
    return (x / np.linalg.norm(x, axis=-1, keepdims=True)).astype(np.float32)


def make_index(n=8, d=6, seed=0, ids=None):
    return ek.EmbeddingIndex(
        ids=tuple(ids or (f"d{i:03d}" for i in range(n))),
        embeddings=unit_rows((n, d), seed),
        provenance={"layer": 1, "dim": d})


def model_setup(seed=0):
    docs = synth.generate_mlm_corpus(40, seed=7, n_topics=4, words_per_topic=8,
                                     n_common=8, doc_len=(6, 10))
    vocab = D.build_vocab(docs, max_size=64)
    cfg = enc.ModelConfig(
        n_layers=4, hidden=16, n_heads=2, vocab=vocab.size, max_seq=12,
        granularity=enc.GranularitySet(layers=(2, 4), dims=(4, 16)))
    params = enc.init_parameters(cfg, seed=seed)
    return params, cfg, vocab, docs


# ---------------------------------------------------------------------------
# index type
# ---------------------------------------------------------------------------


def test_index_validates_unit_norm_and_ids():
    with pytest.raises(ContractError):
        ek.EmbeddingIndex(ids=("a", "b"), embeddings=np.ones((2, 3), dtype=np.float32),
                          provenance={})
    with pytest.raises(ContractError):
        ek.EmbeddingIndex(ids=("a", "a"), embeddings=unit_rows((2, 3), 0), provenance={})


# ---------------------------------------------------------------------------
# exact_topk
# ---------------------------------------------------------------------------


def test_self_retrieval_scores_one():
    index = make_index()
    rankings = ek.exact_topk(index, index.embeddings[3:4], k=1)
    doc_id, score = rankings[0][0]
    assert doc_id == "d003"
    assert abs(score - 1.0) < 1e-6


def test_orthogonal_doc_scores_zero():
    emb = np.eye(4, dtype=np.float32)[:2]
    index = ek.EmbeddingIndex(ids=("a", "b"), embeddings=emb, provenance={})
    rankings = ek.exact_topk(index, np.eye(4, dtype=np.float32)[1:2], k=2)
    scores = dict(rankings[0])
    assert abs(scores["a"]) < 1e-9 and abs(scores["b"] - 1.0) < 1e-9


def test_topk_brute_force_oracle():
    index = make_index(n=50, d=8, seed=1)
    queries = unit_rows((10, 8), seed=2)
    rankings = ek.exact_topk(index, queries, k=50)
    for qi in range(10):
        scores = [(float(np.dot(queries[qi].astype(np.float64),
                                index.embeddings[j].astype(np.float64))), index.ids[j])
                  for j in range(50)]
        expected = [doc for _, doc in sorted(scores, key=lambda t: (-t[0], t[1]))]
        assert [doc for doc, _ in rankings[qi]] == expected


def test_topk_tie_break_by_id_not_position():
    emb = np.tile(unit_rows((1, 4), seed=3), (3, 1))
    a = ek.EmbeddingIndex(ids=("z", "a", "m"), embeddings=emb.copy(), provenance={})
    b = ek.EmbeddingIndex(ids=("m", "z", "a"), embeddings=emb.copy(), provenance={})
    q = emb[:1]
    ra = [doc for doc, _ in ek.exact_topk(a, q, k=3)[0]]
    rb = [doc for doc, _ in ek.exact_topk(b, q, k=3)[0]]
    assert ra == rb == ["a", "m", "z"]


def test_topk_clamps_large_k(caplog):
    index = make_index(n=5)
    with caplog.at_level("WARNING", logger="m3enc.evalkit"):
        rankings = ek.exact_topk(index, index.embeddings[:1], k=50)
    assert len(rankings[0]) == 5
    assert any("clamping" in r.message for r in caplog.records)


def test_topk_permutation_invariance():
    rng = np.random.default_rng(4)
    emb = unit_rows((20, 6), seed=5)
    ids = [f"d{i:02d}" for i in range(20)]
    perm = rng.permutation(20)
    a = ek.EmbeddingIndex(ids=tuple(ids), embeddings=emb, provenance={})
    b = ek.EmbeddingIndex(ids=tuple(ids[i] for i in perm), embeddings=emb[perm],
                          provenance={})
    q = unit_rows((4, 6), seed=6)
    ra = ek.exact_topk(a, q, k=20)
    rb = ek.exact_topk(b, q, k=20)
    assert [[doc for doc, _ in row] for row in ra] == [[doc for doc, _ in row] for row in rb]


def brute_force_topk(index, queries, k):
    """float64 scores of every row, summed row by row, ordered by (-score, id)."""
    emb64 = index.embeddings.astype(np.float64)
    out = []
    for q in np.asarray(queries, dtype=np.float64):
        scores = (emb64 * q).sum(axis=1).tolist()
        out.append(sorted(zip(index.ids, scores), key=lambda t: (-t[1], t[0]))[:k])
    return out


def shuffled_ids(n, seed):
    return tuple(f"d{i:05d}" for i in np.random.default_rng(seed).permutation(n))


@pytest.mark.parametrize("d", [128, 16])
def test_topk_twins_straddle_cutoff_across_tiles(d):
    n, k = 4099, 40
    rows = unit_rows((n, d), seed=d)
    queries = unit_rows((3, d), seed=d + 1)
    order = np.argsort(-(rows.astype(np.float64) @ queries[0].astype(np.float64)))
    source = int(order[k - 2])
    copies = [1, 1027, 2050, n - 1]  # far apart, so they land in different GEMM tiles
    assert source not in copies and not np.isin(copies, order[:2 * k]).any()
    rows[copies] = rows[source]
    index = ek.EmbeddingIndex(ids=shuffled_ids(n, d), embeddings=rows, provenance={})
    got = ek.exact_topk(index, queries, k)
    assert got == brute_force_topk(index, queries, k)
    twins = {index.ids[j] for j in [source] + copies}
    kept = [(doc, s) for doc, s in got[0] if doc in twins]
    assert 0 < len(kept) < len(twins)  # the tie group straddles the cut-off
    assert [doc for doc, _ in kept] == sorted(twins)[:len(kept)]
    assert len({s for _, s in kept}) == 1


def test_topk_finds_rows_float32_ranks_below_the_cutoff():
    # a near-copy of the exact k-th row that outscores it in float64 but
    # falls below the float32 k-th score: only the margin keeps it
    n, d, k = 1000, 16, 10
    rows = unit_rows((n, d), seed=12)
    q = unit_rows((1, d), seed=13)
    q64 = q[0].astype(np.float64)
    order = np.argsort(-(rows.astype(np.float64) * q64).sum(axis=1))
    base, spare = rows[order[k - 1]].copy(), int(order[-1])
    rng = np.random.default_rng(13)
    for _ in range(2000):
        trial = base.copy()
        j = rng.choice(d, size=3, replace=False)
        trial[j] += rng.integers(-4, 5, size=3) * np.spacing(trial[j])
        rows[spare] = trial
        f32 = (q @ rows.T)[0]
        exact = (rows.astype(np.float64) * q64).sum(axis=1)
        if (spare in np.lexsort((np.arange(n), -exact))[:k]
                and f32[spare] < np.partition(f32, n - k)[n - k]):
            break
    else:
        pytest.skip("float32 GEMM on this BLAS never misorders the cut-off here")
    index = ek.EmbeddingIndex(ids=tuple(f"d{i:04d}" for i in range(n)), embeddings=rows,
                              provenance={})
    got = ek.exact_topk(index, q, k)
    assert got == brute_force_topk(index, q, k)
    assert index.ids[spare] in dict(got[0])


def test_topk_more_queries_than_one_block():
    index = ek.EmbeddingIndex(ids=shuffled_ids(600, 1), embeddings=unit_rows((600, 24), 2),
                              provenance={})
    queries = unit_rows((2 * ek._QUERY_BLOCK + 37, 24), seed=3)
    assert ek.exact_topk(index, queries, 10) == brute_force_topk(index, queries, 10)


def test_topk_float64_non_unit_queries():
    rows = unit_rows((500, 12), seed=4)
    rows[[10, 250, 499]] = rows[77]
    index = ek.EmbeddingIndex(ids=shuffled_ids(500, 5), embeddings=rows, provenance={})
    rng = np.random.default_rng(6)
    queries = rng.normal(size=(6, 12)) * np.array([1e-3, 0.5, 1.0, 3.7, 250.0, 1e4])[:, None]
    queries[2] = rows[77].astype(np.float64) * 3.0
    assert queries.dtype == np.float64
    assert ek.exact_topk(index, queries, 25) == brute_force_topk(index, queries, 25)


def test_topk_k_equals_pool_size():
    rows = unit_rows((300, 7), seed=7)
    rows[[3, 150, 299]] = rows[42]
    index = ek.EmbeddingIndex(ids=shuffled_ids(300, 8), embeddings=rows, provenance={})
    queries = unit_rows((5, 7), seed=9)
    got = ek.exact_topk(index, queries, 300)
    assert got == brute_force_topk(index, queries, 300)
    assert all(len(r) == 300 for r in got)


def test_topk_rejects_non_finite_queries():
    index = make_index()
    queries = index.embeddings[:2].copy()
    queries[1, 0] = np.nan
    with pytest.raises(NumericsError):
        ek.exact_topk(index, queries, 3)


# ---------------------------------------------------------------------------
# recall
# ---------------------------------------------------------------------------


def test_recall_all_first():
    rankings = [[("d1", 0.9), ("d2", 0.1)], [("d7", 0.8), ("d1", 0.2)]]
    assert ek.recall_at_k(rankings, ["d1", "d7"], k=1) == 1.0


def test_recall_absent_positive():
    rankings = [[("d1", 0.9)], [("d2", 0.8)]]
    assert ek.recall_at_k(rankings, ["x", "y"], k=1) == 0.0


def test_recall_counting_oracle_and_monotone():
    rankings = [
        [("a", 0.9), ("b", 0.8), ("c", 0.7)],
        [("b", 0.9), ("c", 0.8), ("a", 0.7)],
        [("c", 0.9), ("a", 0.8), ("b", 0.7)],
    ]
    truth = ["a", "a", "a"]
    values = [ek.recall_at_k(rankings, truth, k) for k in (1, 2, 3)]
    assert values == [pytest.approx(1 / 3), pytest.approx(2 / 3), pytest.approx(1.0)]
    assert values == sorted(values)


def test_recall_requires_truth():
    with pytest.raises(ContractError):
        ek.recall_at_k([[("a", 1.0)]], [None], k=1)


# ---------------------------------------------------------------------------
# encode_corpus
# ---------------------------------------------------------------------------


def test_encode_full_dim_top_layer_is_full_model():
    params, cfg, vocab, docs = model_setup()
    index = ek.encode_corpus(params, cfg, vocab, docs[:10], layer=cfg.n_layers,
                             dim=cfg.hidden)
    assert index.embeddings.shape == (10, cfg.hidden)
    np.testing.assert_allclose(np.linalg.norm(index.embeddings, axis=1), 1.0, atol=1e-6)


def test_encode_lite_vs_tap_identical():
    # the lite (first-two-layers) encoding runs no layer above 2: poisoning
    # layers 3-4 and the final norm leaves it bit-identical to the tap
    params, cfg, vocab, docs = model_setup()
    tap = ek.encode_corpus(params, cfg, vocab, docs[:12], layer=2, dim=8)
    for name, t in params.named():
        if name.startswith(("layers.2.", "layers.3.", "final_norm")):
            t.data[...] = np.nan
    lite = ek.encode_corpus(params, cfg, vocab, docs[:12], layer=2, dim=8)
    np.testing.assert_array_equal(tap.embeddings, lite.embeddings)


def test_encode_truncate_then_normalize_oracle():
    params, cfg, vocab, docs = model_setup()
    d = 4
    full = ek.encode_corpus(params, cfg, vocab, docs[:6], layer=2, dim=cfg.hidden)
    small = ek.encode_corpus(params, cfg, vocab, docs[:6], layer=2, dim=d)
    # recompute by hand: pooled full-width mean, truncated, renormalized
    seqs = [D.encode_sequence(vocab, t, cfg.max_seq) for t in docs[:6]]
    tokens = np.stack([s[0] for s in seqs])
    mask = np.stack([s[1] for s in seqs])
    state = enc.forward(params, cfg, tokens, mask, taps=(2,))[2].data
    for i in range(6):
        rows = state[i][mask[i]]
        mean = rows.mean(axis=0)[:d]
        expected = mean / np.linalg.norm(mean)
        np.testing.assert_allclose(small.embeddings[i], expected, atol=1e-6)
    assert small.dim == d and full.dim == cfg.hidden


def test_encode_validation():
    params, cfg, vocab, docs = model_setup()
    with pytest.raises(ContractError):
        ek.encode_corpus(params, cfg, vocab, [], layer=2, dim=4)
    with pytest.raises(ConfigError):
        ek.encode_corpus(params, cfg, vocab, docs[:2], layer=9, dim=4)
    with pytest.raises(ConfigError):
        ek.encode_corpus(params, cfg, vocab, docs[:2], layer=2, dim=99)


def test_evaluate_is_read_only_and_deterministic():
    params, cfg, vocab, docs = model_setup()
    queries = [d.split()[0] + " " + d.split()[1] for d in docs[:8]]
    truth = [f"d{i:06d}" for i in range(8)]
    a = ek.evaluate(params, cfg, vocab, queries, docs[:8], truth, layer=2, dim=8,
                    ks=[1, 3])
    b = ek.evaluate(params, cfg, vocab, queries, docs[:8], truth, layer=2, dim=8,
                    ks=[1, 3])
    assert a.recalls == b.recalls
    assert list(a.recalls.values()) == sorted(a.recalls.values())
    assert a.index_bytes == 8 * 8 * 4


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_single_value_matches_direct():
    params, cfg, vocab, docs = model_setup()
    queries = [" ".join(d.split()[:3]) for d in docs[:8]]
    truth = [f"d{i:06d}" for i in range(8)]
    curves, reports = ek.tradeoff_sweep(params, cfg, vocab, queries, docs[:8], truth,
                                        axis="dim", values=[8], ks=[3], layer=2)
    direct = ek.evaluate(params, cfg, vocab, queries, docs[:8], truth, layer=2, dim=8,
                         ks=[3])
    assert curves[0].points[0]["recall"] == direct.recalls[3]
    assert curves[0].points[0]["cost_proxy"] == 32


def test_sweep_axis_shape_and_validation():
    params, cfg, vocab, docs = model_setup()
    queries = [" ".join(d.split()[:3]) for d in docs[:6]]
    truth = [f"d{i:06d}" for i in range(6)]
    curves, _ = ek.tradeoff_sweep(params, cfg, vocab, queries, docs[:6], truth,
                                  axis="dim", values=[4, 8, 16], ks=[1, 3], layer=2)
    assert len(curves) == 2
    for c in curves:
        xs = [p["axis_value"] for p in c.points]
        assert xs == [4, 8, 16]
        assert all(0.0 <= p["recall"] <= 1.0 for p in c.points)
    layer_curves, _ = ek.tradeoff_sweep(
        params, cfg, vocab, queries, docs[:6], truth,
        axis="layer", values=[2, 4], ks=[1], dim=8)
    assert [p["cost_proxy"] for p in layer_curves[0].points] == [2, 4]
    with pytest.raises(ConfigError):
        ek.tradeoff_sweep(params, cfg, vocab, queries, docs[:6], truth,
                          axis="dim", values=[8, 4], ks=[1], layer=2)
    with pytest.raises(ConfigError):
        ek.tradeoff_sweep(params, cfg, vocab, queries, docs[:6], truth,
                          axis="dim", values=[4, 8], ks=[1])


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def test_report_and_curve_files(tmp_path):
    report = ek.EvalReport(recalls={1: 0.5, 10: 0.75}, n_queries=4, layer=2, dim=8,
                           encode_ms=1.0, search_ms=0.5, index_bytes=128)
    ek.write_report_files(report, tmp_path / "r.json", tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text().splitlines()[0] == "k,recall"
    curve = ek.TradeoffCurve(axis="dim", k=10,
                             points=[{"axis_value": 4, "recall": 0.5, "cost_proxy": 16},
                                     {"axis_value": 8, "recall": 0.7, "cost_proxy": 32}])
    ek.write_curve_files([curve], tmp_path / "c.json", tmp_path / "c.csv")
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "axis_value,K,recall,cost_proxy"
    assert len(lines) == 3
