"""Evaluation kit tests: exact search oracles, recall, sweeps, report files."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from m3enc import data as D
from m3enc import encoder as enc
from m3enc import evalkit as ek
from m3enc import synth
from m3enc.errors import ConfigError, ContractError, NumericsError, ShapeError
from oracle_ops import padded


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_index_rejects_a_non_finite_row(bad):
    # a NaN norm passes no comparison, so it must not pass the unit-norm test
    # either: exact_topk would fill K by repeating another row
    with pytest.raises(NumericsError, match="finite"):
        ek.EmbeddingIndex(ids=("a", "b"), embeddings=np.array([[bad, 0.0], [1.0, 0.0]],
                                                              dtype=np.float32),
                          provenance={})


def test_index_rejects_a_non_matrix_or_non_float32_array():
    with pytest.raises(ShapeError):
        ek.EmbeddingIndex(ids=("a", "b", "c"), embeddings=unit_rows((3,), 0), provenance={})
    with pytest.raises(ShapeError):
        ek.EmbeddingIndex(ids=("a", "b"), embeddings=unit_rows((2, 2, 3), 0), provenance={})
    with pytest.raises(ContractError):
        ek.EmbeddingIndex(ids=("a", "b"), embeddings=unit_rows((2, 3), 0).astype(np.float64),
                          provenance={})


# ---------------------------------------------------------------------------
# exact_topk
# ---------------------------------------------------------------------------


def test_self_retrieval_scores_one():
    index = make_index()
    rankings = as_lists(ek.exact_topk(index, index.embeddings[3:4], k=1))
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
        rankings = as_lists(ek.exact_topk(index, index.embeddings[:1], k=50))
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


def as_lists(rankings):
    """Rankings in the oracle's form: a list of (id, score) pairs per query."""
    return [list(r) for r in rankings]


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
    got = as_lists(ek.exact_topk(index, queries, k))
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
    got = as_lists(ek.exact_topk(index, q, k))
    assert got == brute_force_topk(index, q, k)
    assert index.ids[spare] in dict(got[0])


def test_topk_more_queries_than_one_block():
    index = ek.EmbeddingIndex(ids=shuffled_ids(600, 1), embeddings=unit_rows((600, 24), 2),
                              provenance={})
    queries = unit_rows((2 * ek._QUERY_BLOCK + 37, 24), seed=3)
    assert as_lists(ek.exact_topk(index, queries, 10)) == brute_force_topk(index, queries, 10)


def test_topk_float64_non_unit_queries():
    rows = unit_rows((500, 12), seed=4)
    rows[[10, 250, 499]] = rows[77]
    index = ek.EmbeddingIndex(ids=shuffled_ids(500, 5), embeddings=rows, provenance={})
    rng = np.random.default_rng(6)
    queries = rng.normal(size=(6, 12)) * np.array([1e-3, 0.5, 1.0, 3.7, 250.0, 1e4])[:, None]
    queries[2] = rows[77].astype(np.float64) * 3.0
    assert queries.dtype == np.float64
    assert as_lists(ek.exact_topk(index, queries, 25)) == brute_force_topk(index, queries, 25)


def test_topk_k_equals_pool_size():
    rows = unit_rows((300, 7), seed=7)
    rows[[3, 150, 299]] = rows[42]
    index = ek.EmbeddingIndex(ids=shuffled_ids(300, 8), embeddings=rows, provenance={})
    queries = unit_rows((5, 7), seed=9)
    got = as_lists(ek.exact_topk(index, queries, 300))
    assert got == brute_force_topk(index, queries, 300)
    assert all(len(r) == 300 for r in got)


def group_size(n, k):
    """exact_topk's rule for the size g of the groups whose maxima bound the K-th score."""
    return max(1, min(10, n // (10 * k)))


@pytest.mark.parametrize("k", [5, 10])
def test_topk_whole_top_k_in_one_strided_group(k):
    n, d = 1000, 16
    n_groups = n // group_size(n, k)
    assert n_groups == 100
    rows = unit_rows((n, d), seed=20)
    q = unit_rows((1, d), seed=21)
    group = 37 + n_groups * np.arange(k)  # columns 37, 137, 237, ...: one group
    noise = 0.05 * np.random.default_rng(22).normal(size=(k, d))
    rows[group] = (q + noise) / np.linalg.norm(q + noise, axis=1, keepdims=True)
    exact = (rows.astype(np.float64) * q[0].astype(np.float64)).sum(axis=1)
    assert set(np.argsort(-exact)[:k]) == set(group.tolist())
    group_max = np.sort(exact.reshape(-1, n_groups).max(axis=0))[::-1]
    assert group_max[k - 1] < np.sort(exact)[::-1][k - 1] - 0.1  # the bound is loose
    index = ek.EmbeddingIndex(ids=shuffled_ids(n, 23), embeddings=rows, provenance={})
    assert as_lists(ek.exact_topk(index, q, k)) == brute_force_topk(index, q, k)


@pytest.mark.parametrize("n", [150, 1000])  # g = 1 and g = 10 at K = 10
def test_topk_margin_keeps_a_row_float32_ranks_below_the_bound(n):
    # as in test_topk_finds_rows_float32_ranks_below_the_cutoff, but the top
    # K sit in distinct groups and the spare in none of theirs, so the bound
    # is the float32 K-th score and only the margin keeps the near-copy
    d, k = 16, 10
    n_groups = n // group_size(n, k)
    rows = unit_rows((n, d), seed=19)
    q = unit_rows((1, d), seed=20)
    q64 = q[0].astype(np.float64)
    order = np.argsort(-(rows.astype(np.float64) * q64).sum(axis=1))
    assert len(set(order[:k] % n_groups)) == k
    spare = next(int(j) for j in order[::-1] if j % n_groups not in set(order[:k] % n_groups))
    base = rows[order[k - 1]].copy()
    rng = np.random.default_rng(21)
    for _ in range(2000):
        trial = base.copy()
        j = rng.choice(d, size=3, replace=False)
        trial[j] += rng.integers(-4, 5, size=3) * np.spacing(trial[j])
        rows[spare] = trial
        f32 = (q @ rows.T)[0]
        exact = (rows.astype(np.float64) * q64).sum(axis=1)
        if (spare in np.lexsort((np.arange(n), -exact))[:k]
                and f32[spare] < np.partition(f32, n - k)[n - k]
                and len(set(np.argsort(-f32)[:k] % n_groups)) == k):
            break
    else:
        pytest.skip("float32 GEMM on this BLAS never misorders the cut-off here")
    index = ek.EmbeddingIndex(ids=tuple(f"d{i:04d}" for i in range(n)), embeddings=rows,
                              provenance={})
    got = as_lists(ek.exact_topk(index, q, k))
    assert got == brute_force_topk(index, q, k)
    assert index.ids[spare] in dict(got[0])


@pytest.mark.parametrize("n,k", [
    (139, 7), (140, 7),      # 10*g*K - 1 and 10*g*K at g = 2
    (699, 7), (700, 7),        # g = 9 (699 is no multiple of 9) and g = 10
    (99, 1), (100, 1),         # g = 9 and g = 10 at K = 1
    (107, 1), (301, 3),        # g = 10, n no multiple of g
    (64, 64), (301, 301),      # K = n: g = 1
])
def test_topk_group_bound_at_the_group_size_edges(n, k):
    d = 12
    rows = unit_rows((n, d), seed=n + k)
    rng = np.random.default_rng(n * k)
    copies = rng.choice(n, size=max(2, n // 20), replace=False)
    rows[copies] = rows[copies[0]]
    index = ek.EmbeddingIndex(ids=shuffled_ids(n, n), embeddings=rows, provenance={})
    queries = np.concatenate([unit_rows((6, d), seed=n + k + 1), rows[copies[:1]],
                              rows[rng.choice(n, size=2)]])
    assert as_lists(ek.exact_topk(index, queries, k)) == brute_force_topk(index, queries, k)


def test_topk_twins_straddle_cutoff_with_ids_in_reverse_row_order():
    n, d, k = 2000, 16, 20
    assert group_size(n, k) == 10
    rows = unit_rows((n, d), seed=30)
    queries = unit_rows((2, d), seed=31)
    order = np.argsort(-(rows.astype(np.float64) @ queries[0].astype(np.float64)))
    source = int(order[k - 2])
    copies = [3, 777, 1500, n - 1]
    assert source not in copies and not np.isin(copies, order[:2 * k]).any()
    rows[copies] = rows[source]
    ids = tuple(f"d{n - 1 - i:05d}" for i in range(n))  # descending along the rows
    index = ek.EmbeddingIndex(ids=ids, embeddings=rows, provenance={})
    got = as_lists(ek.exact_topk(index, queries, k))
    assert got == brute_force_topk(index, queries, k)
    twins = {ids[j] for j in [source] + copies}
    kept = [(doc, s) for doc, s in got[0] if doc in twins]
    assert 0 < len(kept) < len(twins)  # the tie group straddles the cut-off
    assert [doc for doc, _ in kept] == sorted(twins)[:len(kept)]


def per_query_topk(index, queries, k):
    """exact_topk's search as it ran query by query: the group bound folded
    in slab by slab, and each query's candidates re-scored in float64 and
    ordered by (-score, id rank) in a Python loop. The [Q x K] rows and
    float64 scores of each block, as exact_topk's rankings hold them, and
    each query's candidate rows."""
    emb, n_docs = index.embeddings, len(index.ids)
    k = min(k, n_docs)
    q64 = np.asarray(queries, dtype=np.float64)
    q32 = q64.astype(np.float32)
    margin = (index.dim + 2) * np.finfo(np.float32).eps * np.linalg.norm(q64, axis=1)
    n_groups = n_docs // group_size(n_docs, k)
    blocks = []
    for start in range(0, len(q64), ek._QUERY_BLOCK):
        scores = q32[start:start + ek._QUERY_BLOCK] @ emb.T
        bound = scores[:, :n_groups].copy()
        for col in range(n_groups, n_docs, n_groups):
            part = scores[:, col:col + n_groups]
            np.maximum(bound[:, :part.shape[1]], part, out=bound[:, :part.shape[1]])
        bound.partition(n_groups - k, axis=1)
        floor = (bound[:, n_groups - k] - margin[start:start + ek._QUERY_BLOCK]).astype(
            scores.dtype)
        qi, cand = np.divmod(np.flatnonzero(scores >= floor[:, None]), n_docs)
        bounds = np.searchsorted(qi, np.arange(len(scores) + 1)).tolist()
        top_rows = np.empty((len(scores), k), dtype=np.intp)
        top_scores = np.empty((len(scores), k))
        candidates = []
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            rows = cand[a:b]
            exact = (emb[rows] * q64[start + i]).sum(axis=1)
            top = np.lexsort((index._id_rank[rows], -exact))[:k]
            top_rows[i], top_scores[i] = rows[top], exact[top]
            candidates.append(rows)
        blocks.append((top_rows, top_scores, candidates))
    return blocks


def assert_same_as_per_query(index, queries, k, monkeypatch):
    """exact_topk's candidates, ids and score bytes equal the per-query loop's:
    its group bound is the same, so it selects the same candidates."""
    padded_blocks = []

    def spy(*args):
        padded_blocks.append(real(*args))
        return padded_blocks[-1]

    real = ek._candidates
    monkeypatch.setattr(ek, "_candidates", spy)
    got = ek.exact_topk(index, queries, k)
    blocks = per_query_topk(index, queries, k)
    for (rows, valid, _), (_, _, candidates) in zip(padded_blocks, blocks, strict=True):
        assert [r[v].tolist() for r, v in zip(rows, valid)] == [c.tolist() for c in candidates]
    want = [(r, s) for rows, scores, _ in blocks for r, s in zip(rows, scores)]
    assert len(got) == len(want)
    for ranking, (rows, scores) in zip(got, want):
        pairs = list(ranking)
        assert [doc for doc, _ in pairs] == [index.ids[r] for r in rows.tolist()]
        assert np.array([s for _, s in pairs], dtype=np.float64).tobytes() == scores.tobytes()


@pytest.mark.parametrize("n,k", [
    (2003, 10),            # n_docs no multiple of the group count
    (35, 10), (140, 15),   # n_docs < 10 K: the group size is 1
    (700, 1), (700, 700),  # K 1 and K = n
])
@pytest.mark.parametrize("d", [64, 16])
def test_topk_equals_the_per_query_loop(n, k, d, monkeypatch):
    rows = unit_rows((n, d), seed=n + d)
    copies = np.random.default_rng(n).choice(n, size=max(2, n // 20), replace=False)
    rows[copies] = rows[copies[0]]
    index = ek.EmbeddingIndex(ids=shuffled_ids(n, n + 1), embeddings=rows, provenance={})
    queries = np.concatenate([unit_rows((ek._QUERY_BLOCK + 9, d), seed=n + d + 1),
                              rows[copies[:2]]])
    assert_same_as_per_query(index, queries, k, monkeypatch)


def test_topk_equals_the_per_query_loop_on_twins_straddling_the_cutoff(monkeypatch):
    n, d, k = 3001, 16, 25
    rows = unit_rows((n, d), seed=60)
    queries = unit_rows((4, d), seed=61)
    order = np.argsort(-(rows.astype(np.float64) @ queries[0].astype(np.float64)))
    source = int(order[k - 2])
    copies = [5, 1111, 2222, n - 1]
    assert source not in copies and not np.isin(copies, order[:2 * k]).any()
    rows[copies] = rows[source]
    index = ek.EmbeddingIndex(ids=shuffled_ids(n, 62), embeddings=rows, provenance={})
    got = as_lists(ek.exact_topk(index, queries, k))
    kept = [doc for doc, _ in got[0] if doc in {index.ids[j] for j in [source] + copies}]
    assert 0 < len(kept) < 5  # the tie group straddles the cut-off
    assert_same_as_per_query(index, queries, k, monkeypatch)


def test_topk_of_copies_of_one_row_equals_the_per_query_loop_in_bounded_memory(monkeypatch):
    # every query has all 500 rows as tied candidates: chunks of the re-score
    # are cut by candidate count, so the padded block is scored a few queries
    # at a time and the peak stays near the per-query loop's
    n, d, k = 500, 128, 10
    rows = np.repeat(unit_rows((1, d), seed=70), n, axis=0)
    index = ek.EmbeddingIndex(ids=shuffled_ids(n, 71), embeddings=rows, provenance={})
    queries = unit_rows((ek._QUERY_BLOCK, d), seed=72)
    peaks = []
    for search in (per_query_topk, ek.exact_topk):
        tracemalloc.start()
        try:
            search(index, queries, k)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]
    assert_same_as_per_query(index, queries, k, monkeypatch)


def pinned_search_inputs(d):
    """3,000 unit rows, 5% of them exact copies of other rows, with shuffled
    ids, and 300 unit queries."""
    n = 3000
    rng = np.random.default_rng(500 + d)
    rows = unit_rows((n, d), seed=600 + d)
    dup = rng.choice(n, size=2 * (n // 20), replace=False)
    rows[dup[:n // 20]] = rows[dup[n // 20:]]
    ids = tuple(f"d{i:05d}" for i in rng.permutation(n))
    return (ek.EmbeddingIndex(ids=ids, embeddings=rows, provenance={}),
            unit_rows((300, d), seed=700 + d))


def search_digest(rankings):
    """sha256 over each ranking's ids and float64 score bytes, in order."""
    h = hashlib.sha256()
    for ranking in rankings:
        pairs = list(ranking)
        h.update(" ".join(doc for doc, _ in pairs).encode())
        h.update(np.array([s for _, s in pairs], dtype=np.float64).tobytes())
    return h.hexdigest()


PINNED_SEARCH_DIGESTS = {
    (64, 1): "53f5318c2e8e6c712e2da1e99f5de12369bbec4613f07823b0b5e20cbb214c68",
    (64, 10): "110dfb7d4b93b267dbafd42bc3e88cd052607af1a01eea2dd3ffe8ce2602e5ea",
    (64, 100): "eb1f03db4ab07f9fa036b5d21123d48234c714d7463b31e023a0e95c2fae5569",
    (16, 1): "65fe63e9baad062a1abcf466a4fe11bc2fc547502fa7636a63bc613f8ce218f7",
    (16, 10): "de4b1f0ce539d3b465157d3a3a7ec4dfdf4ed05c7349fdbd78de84664a35aad7",
    (16, 100): "479b24b746e9020d3631545813fc0381185ff5f4b5cb7f251bb505aa4ea77769",
}


@pytest.mark.parametrize("d,k", PINNED_SEARCH_DIGESTS)
def test_search_pinned_bits(d, k):
    """A bit gate for changes that must not move search results: the ids and
    float64 score bytes of exact_topk over seeded inputs with tied rows.

    The digests pin the installed numpy build as well as the code. A numpy
    upgrade re-baselines them, and the re-baseline is recorded in
    CHANGES.md."""
    index, queries = pinned_search_inputs(d)
    assert search_digest(ek.exact_topk(index, queries, k)) == PINNED_SEARCH_DIGESTS[d, k]


def test_topk_rejects_non_finite_queries():
    index = make_index()
    queries = index.embeddings[:2].copy()
    queries[1, 0] = np.nan
    with pytest.raises(NumericsError):
        ek.exact_topk(index, queries, 3)


def test_empty_index_gives_empty_rankings():
    index = ek.EmbeddingIndex(ids=(), embeddings=np.empty((0, 4), dtype=np.float32),
                              provenance={})
    got = ek.exact_topk(index, unit_rows((2, 4), seed=5), k=3)
    assert as_lists(got) == [[], []]
    assert ek.recall_at_k(got, ["a", "b"], 3) == 0.0


def test_rankings_hold_their_arrays_not_an_object_per_hit():
    n, d, k, n_queries = 2000, 32, 100, 500
    index = ek.EmbeddingIndex(ids=shuffled_ids(n, 40), embeddings=unit_rows((n, d), seed=41),
                              provenance={})
    queries = unit_rows((n_queries, d), seed=42)
    ek.exact_topk(index, queries[:1], k)  # caches the index's id ranks
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = ek.exact_topk(index, queries, k)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(got) == n_queries and all(len(r) == k for r in as_lists(got))
    # an intp row and a float64 score are 16 B a hit; a list of
    # (str, float) tuples holds about 80 B a hit
    assert held / n_queries < 2 * 16 * k


# ---------------------------------------------------------------------------
# recall
# ---------------------------------------------------------------------------


def as_rankings(lists):
    """The same pairs as array-backed ``Ranking``s, one block per query, each
    over an index of that query's ids in ranked order."""
    out = []
    for pairs in lists:
        index = ek.EmbeddingIndex(ids=tuple(doc for doc, _ in pairs),
                                  embeddings=unit_rows((len(pairs), 2), 0), provenance={})
        out += ek._rankings(index, np.arange(len(pairs))[None, :],
                            np.array([[s for _, s in pairs]], dtype=np.float64))
    return out


def recall_oracle(lists, truth, k):
    """Recall@K counted pair by pair: the share of lists whose first K ids
    hold their positive."""
    return sum(positive in [doc for doc, _ in pairs[:k]]
               for pairs, positive in zip(lists, truth)) / len(lists)


RECALL_ABC = [
    [("a", 0.9), ("b", 0.8), ("c", 0.7)],
    [("b", 0.9), ("c", 0.8), ("a", 0.7)],
    [("c", 0.9), ("a", 0.8), ("b", 0.7)],
]


def test_recall_all_first():
    rankings = as_rankings([[("d1", 0.9), ("d2", 0.1)], [("d7", 0.8), ("d1", 0.2)]])
    assert ek.recall_at_k(rankings, ["d1", "d7"], k=1) == 1.0


def test_recall_absent_positive():
    rankings = as_rankings([[("d1", 0.9)], [("d2", 0.8)]])
    assert ek.recall_at_k(rankings, ["x", "y"], k=1) == 0.0


def test_recall_counting_oracle_and_monotone():
    rankings = as_rankings(RECALL_ABC)
    truth = ["a", "a", "a"]
    values = [ek.recall_at_k(rankings, truth, k) for k in (1, 2, 3)]
    assert values == [pytest.approx(1 / 3), pytest.approx(2 / 3), pytest.approx(1.0)]
    assert values == sorted(values)


def test_recall_requires_truth():
    with pytest.raises(ContractError):
        ek.recall_at_k(as_rankings([[("a", 1.0)]]), [None], k=1)


@pytest.mark.parametrize("lists,truth,k", [  # the test_recall_* cases above
    ([[("d1", 0.9), ("d2", 0.1)], [("d7", 0.8), ("d1", 0.2)]], ["d1", "d7"], 1),
    ([[("d1", 0.9)], [("d2", 0.8)]], ["x", "y"], 1),
    (RECALL_ABC, ["a", "a", "a"], 1), (RECALL_ABC, ["a", "a", "a"], 2),
    (RECALL_ABC, ["a", "a", "a"], 3),
])
def test_recall_same_on_lists_and_rankings(lists, truth, k):
    rankings = as_rankings(lists)
    assert as_lists(rankings) == lists
    assert ek.recall_at_k(rankings, truth, k) == recall_oracle(lists, truth, k)


@pytest.mark.parametrize("k", [0, -1])
def test_recall_rejects_k_below_one(k):
    # as exact_topk does, instead of scoring no pair or all but the last
    with pytest.raises(ConfigError, match="K must be at least 1"):
        ek.recall_at_k(as_rankings(RECALL_ABC), ["a", "a", "a"], k)


@pytest.mark.parametrize("rankings", [[[("a", 1.0)]], [[]], as_rankings([[("a", 1.0)]]) + [[]]],
                         ids=["pairs", "empty", "after-a-ranking"])
def test_recall_rejects_a_plain_list(rankings):
    with pytest.raises(ContractError, match="recall_at_k scores exact_topk's rankings"):
        ek.recall_at_k(rankings, ["a"] * len(rankings), 1)


def test_recall_of_exact_topk_same_as_of_its_lists():
    # read as a caller that searches in batches reads them: one list extended
    # with each batch's rankings, and every ranking iterated more than once
    index = make_index(n=200, d=8, seed=6)
    queries = unit_rows((30, 8), seed=7)
    got = []
    for start in (0, 16):
        got.extend(ek.exact_topk(index, queries[start:start + 16], 20))
    # positives at ranks 0, 7, 14, ..., 35 of each query's full ranking
    full = brute_force_topk(index, queries, 40)
    truth = [pairs[(7 * qi) % 40][0] for qi, pairs in enumerate(full)]
    lists = as_lists(got)
    assert as_lists(got) == lists == [pairs[:20] for pairs in full]
    assert all(type(doc) is str and type(s) is float for pairs in lists for doc, s in pairs)
    recalls = [ek.recall_at_k(got, truth, k) for k in (1, 5, 10, 20, 50)]
    assert recalls == [recall_oracle(lists, truth, k) for k in (1, 5, 10, 20, 50)]
    assert 0 < recalls[0] < recalls[2] < recalls[3] == recalls[4] < 1


def test_recall_of_rankings_interleaved_from_two_indexes():
    # two indexes with disjoint ids, so a ranking scored against the other
    # block's ids would miss its positive
    a = make_index(n=300, d=8, seed=8, ids=[f"a{i:03d}" for i in range(300)])
    b = make_index(n=90, d=8, seed=9, ids=[f"b{i:03d}" for i in range(90)])
    qa, qb = unit_rows((20, 8), seed=10), unit_rows((13, 8), seed=11)
    got_a, got_b = ek.exact_topk(a, qa, 50), ek.exact_topk(b, qb, 50)
    mixed = [r for pair in zip(got_a, got_b) for r in pair] + got_a[len(got_b):]
    full = as_lists(mixed)
    truth = [pairs[(3 * qi) % 60][0] if (3 * qi) % 60 < 50 else "absent"
             for qi, pairs in enumerate(full)]
    recalls = [ek.recall_at_k(mixed, truth, k) for k in (1, 5, 50)]
    assert recalls == [recall_oracle(full, truth, k) for k in (1, 5, 50)]
    assert 0 < recalls[0] < recalls[1] < recalls[2] < 1


def test_recall_reads_no_pair(monkeypatch):
    index = make_index(n=200, d=8, seed=12)
    queries = unit_rows((40, 8), seed=13)
    got = ek.exact_topk(index, queries, 30)
    lists = as_lists(got)
    truth = [pairs[qi % 30][0] for qi, pairs in enumerate(lists)]

    def no_pairs(self):
        raise AssertionError("recall_at_k iterated a ranking")

    monkeypatch.setattr(ek.Ranking, "__iter__", no_pairs)
    for k in (1, 5, 30):
        assert ek.recall_at_k(got, truth, k) == recall_oracle(lists, truth, k)


class NoIndexing(tuple):
    """Ids that can be iterated but not indexed."""

    def __getitem__(self, i):
        raise AssertionError("recall_at_k looked up an id")


def test_recall_reads_no_id(monkeypatch):
    index = make_index(n=300, d=8, seed=14)
    queries = unit_rows((50, 8), seed=15)
    got = ek.exact_topk(index, queries, 40)
    lists = as_lists(got)
    truth = [pairs[(5 * qi) % 50][0] if (5 * qi) % 50 < 40 else "d299"
             for qi, pairs in enumerate(lists)]
    index.ids = NoIndexing(index.ids)

    def no_pairs(self):
        raise AssertionError("recall_at_k iterated a ranking")

    monkeypatch.setattr(ek.Ranking, "__iter__", no_pairs)
    recalls = [ek.recall_at_k(got, truth, k) for k in (1, 10, 40)]
    assert recalls == [recall_oracle(lists, truth, k) for k in (1, 10, 40)]
    assert 0 < recalls[0] < recalls[1] < recalls[2] < 1


def test_recall_counts_a_positive_not_in_the_index_as_a_miss():
    index = make_index(n=40, d=6, seed=16)
    got = ek.exact_topk(index, index.embeddings[:4], 40)
    truth = ["d000", "absent", "d002", "d999"]
    assert ek.recall_at_k(got, truth, 40) == 0.5
    assert ek.recall_at_k(got, truth, 1) == recall_oracle(as_lists(got), truth, 1) == 0.5


def test_recall_rejects_an_unhashable_positive():
    got = ek.exact_topk(make_index(), unit_rows((2, 6), seed=17), 3)
    with pytest.raises(ContractError, match="hashable"):
        ek.recall_at_k(got, ["d001", ["d002"]], 3)


# ---------------------------------------------------------------------------
# encode_corpus
# ---------------------------------------------------------------------------


def test_encode_full_dim_top_layer_is_full_model():
    params, cfg, vocab, docs = model_setup()
    pooled = ek.encode_corpus(params, cfg, vocab, docs[:10], layers=(cfg.n_layers,))
    rows = ek.cell_rows(pooled[cfg.n_layers], cfg.hidden)
    assert rows.shape == (10, cfg.hidden)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-6)


def test_encode_lite_vs_tap_identical():
    # the lite (first-two-layers) encoding runs no layer above 2: poisoning
    # layers 3-4 and the final norm leaves it bit-identical to the tap
    params, cfg, vocab, docs = model_setup()
    tap = ek.cell_rows(ek.encode_corpus(params, cfg, vocab, docs[:12], layers=(2,))[2], 8)
    for name, t in params.named():
        if name.startswith(("layers.2.", "layers.3.", "final_norm")):
            t.data[...] = np.nan
    lite = ek.cell_rows(ek.encode_corpus(params, cfg, vocab, docs[:12], layers=(2,))[2], 8)
    np.testing.assert_array_equal(tap, lite)


def padded_batch(vocab, texts, width):
    """The texts framed and packed as ``encode_corpus`` encodes them, with the
    [B x width] prefix mask of their padded layout."""
    ids, lengths = D.pack([D.encode_sequence(vocab, t, width) for t in texts])
    return ids, lengths, np.arange(width) < lengths[:, None]


def test_encode_truncate_then_normalize_oracle():
    params, cfg, vocab, docs = model_setup()
    d = 4
    pooled = ek.encode_corpus(params, cfg, vocab, docs[:6], layers=(2,))[2]
    full = ek.cell_rows(pooled, cfg.hidden)
    small = ek.cell_rows(pooled, d)
    # recompute by hand: pooled full-width mean, truncated, renormalized
    ids, lengths, mask = padded_batch(vocab, docs[:6], cfg.max_seq)
    state = padded(enc.forward(params, cfg, ids, lengths, taps=(2,))[2].data, mask)
    for i in range(6):
        rows = state[i][mask[i]]
        mean = rows.mean(axis=0)[:d]
        expected = mean / np.linalg.norm(mean)
        np.testing.assert_allclose(small[i], expected, atol=1e-6)
    assert small.shape[1] == d and full.shape[1] == cfg.hidden


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cell_rows_match_per_cell_encoding_bit_for_bit(dtype):
    # the per-cell encoding that encode_corpus + cell_rows replaced: a forward
    # tapping one layer only, the truncated state pooled and normalized in the
    # model dtype, then cast to float32 and renormalized there
    params, cfg, vocab, docs = model_setup()
    for _, t in params.named():
        t.data = t.data.astype(dtype)
    ids, lengths, mask = padded_batch(vocab, docs, cfg.max_seq)
    weights = (mask.astype(dtype) / mask.sum(axis=1, keepdims=True).astype(dtype))[..., None]
    pooled = ek.encode_corpus(params, cfg, vocab, docs, layers=(1, 3))
    for l in (1, 3):
        assert pooled[l].dtype == dtype
        state = padded(enc.forward(params, cfg, ids, lengths, taps=(l,))[l].data, mask)
        for d in (1, 4, 16):
            mean = (state[..., :d] * weights).sum(axis=-2)
            old = (mean / np.sqrt((mean * mean).sum(axis=-1, keepdims=True))).astype(np.float32)
            old /= np.linalg.norm(old, axis=1, keepdims=True)
            np.testing.assert_array_equal(ek.cell_rows(pooled[l], d), old, err_msg=f"{l},{d}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_encode_corpus_matches_padded_forward_bit_for_bit(dtype):
    # each batch is packed, so it runs no padding position; the mean over the
    # same batch's taps padded to max_seq is the oracle. Bit-identity rests on
    # the padding terms adding exact zeros to every sum: it holds for the BLAS
    # builds tested, but it is not guaranteed by construction, so a failure
    # here is a finding to report, not a tolerance to widen.
    params, cfg, vocab, docs = model_setup()
    for _, t in params.named():
        t.data = t.data.astype(dtype)
    lengths = np.random.default_rng(3).integers(1, 8, size=3 * len(docs))
    texts = [" ".join(docs[i % len(docs)].split()[:n]) for i, n in enumerate(lengths)]
    layers = (1, 2, 4)
    pooled = ek.encode_corpus(params, cfg, vocab, texts, layers=layers)
    trimmed = 0
    for start in range(0, len(texts), ek._ENCODE_BATCH):
        ids, lengths, mask = padded_batch(vocab, texts[start:start + ek._ENCODE_BATCH],
                                          cfg.max_seq)
        trimmed += lengths.max() < cfg.max_seq
        states = enc.forward(params, cfg, ids, lengths, taps=layers)
        w = (mask.astype(dtype) / lengths[:, None].astype(dtype))[..., None]
        for l in layers:
            np.testing.assert_array_equal(pooled[l][start:start + len(lengths)],
                                          (padded(states[l].data, mask) * w).sum(axis=-2),
                                          err_msg=f"{l}")
    assert trimmed == -(-len(texts) // ek._ENCODE_BATCH)  # every batch was cut


def test_encode_validation():
    params, cfg, vocab, docs = model_setup()
    with pytest.raises(ContractError):
        ek.encode_corpus(params, cfg, vocab, [], layers=(2,))
    with pytest.raises(ConfigError):
        ek.encode_corpus(params, cfg, vocab, docs[:2], layers=(9,))
    with pytest.raises(ConfigError):
        ek.evaluate(params, cfg, vocab, docs[:2], docs[:2], ["d000000", "d000001"],
                    cells=[(2, 99)], ks=[1])


def test_evaluate_is_read_only_and_deterministic():
    params, cfg, vocab, docs = model_setup()
    queries = [d.split()[0] + " " + d.split()[1] for d in docs[:8]]
    truth = [f"d{i:06d}" for i in range(8)]
    [a] = ek.evaluate(params, cfg, vocab, queries, docs[:8], truth, cells=[(2, 8)],
                      ks=[1, 3])
    [b] = ek.evaluate(params, cfg, vocab, queries, docs[:8], truth, cells=[(2, 8)],
                      ks=[1, 3])
    assert a.recalls == b.recalls
    assert list(a.recalls.values()) == sorted(a.recalls.values())
    assert a.index_bytes == 8 * 8 * 4


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_axis_shape_and_validation():
    # a sweep's values and fixed flags are checked by the CLI (test_cli's
    # OUT_OF_RANGE); evaluate checks each cell against the model
    params, cfg, vocab, docs = model_setup()
    queries = [" ".join(d.split()[:3]) for d in docs[:6]]
    truth = [f"d{i:06d}" for i in range(6)]
    reports = ek.evaluate(params, cfg, vocab, queries, docs[:6], truth,
                          cells=[(2, 4), (2, 8), (2, 16)], ks=[1, 3])
    assert [(r.layer, r.dim) for r in reports] == [(2, 4), (2, 8), (2, 16)]
    for r in reports:
        assert list(r.recalls) == [1, 3]
        assert all(0.0 <= v <= 1.0 for v in r.recalls.values())
    layer_reports = ek.evaluate(params, cfg, vocab, queries, docs[:6], truth,
                                cells=[(2, 8), (4, 8)], ks=[1])
    assert [(r.layer, r.dim) for r in layer_reports] == [(2, 8), (4, 8)]
    for bad in ([(2, 8), (2, 0)], [(2, 8), (9, 8)]):
        with pytest.raises(ConfigError):
            ek.evaluate(params, cfg, vocab, queries, docs[:6], truth, cells=bad, ks=[1])


@pytest.mark.parametrize("axis,values,fixed", [
    ("dim", [1, 4, 8, 16], {"layer": 3}),
    ("layer", [1, 2, 3, 4], {"dim": 8}),
], ids=["dim", "layer"])
def test_sweep_equals_per_cell_evaluate(axis, values, fixed):
    params, cfg, vocab, docs = model_setup()
    queries = [" ".join(d.split()[:2]) for d in docs]
    truth = [f"d{i:06d}" for i in range(len(docs))]
    cells = [(fixed.get("layer", value), fixed.get("dim", value)) for value in values]
    reports = ek.evaluate(params, cfg, vocab, queries, docs, truth, cells=cells, ks=[1, 5, 20])
    for cell, swept in zip(cells, reports, strict=True):
        [direct] = ek.evaluate(params, cfg, vocab, queries, docs, truth, cells=[cell],
                               ks=[1, 5, 20])
        assert (swept.layer, swept.dim) == cell
        assert [swept.recalls[k] for k in (1, 5, 20)] == [direct.recalls[k] for k in (1, 5, 20)]
        # the whole report but its timings, index size included
        untimed = dict(encode_ms=0.0, search_ms=0.0)
        assert dataclasses.replace(swept, **untimed) == dataclasses.replace(direct, **untimed)
        assert swept.index_bytes == len(docs) * cell[1] * 4


@pytest.mark.parametrize("axis,values,fixed,taps", [
    ("dim", [4, 8, 16], {"layer": 3}, (3,)),
    ("layer", [1, 2, 4], {"dim": 8}, (1, 2, 4)),
], ids=["dim", "layer"])
def test_sweep_runs_one_forward_per_batch_per_text_set(monkeypatch, axis, values, fixed,
                                                      taps):
    params, cfg, vocab, docs = model_setup()
    queries = [" ".join(d.split()[:2]) for d in docs[:30]]
    truth = [f"d{i:06d}" for i in range(30)]
    calls = []
    real = enc.forward

    def spy(*args, **kwargs):
        calls.append((len(args[3]), kwargs["taps"]))  # (sequences, taps)
        return real(*args, **kwargs)

    monkeypatch.setattr(enc, "forward", spy)
    monkeypatch.setattr(ek, "_ENCODE_BATCH", 16)
    cells = [(fixed.get("layer", value), fixed.get("dim", value)) for value in values]
    ek.evaluate(params, cfg, vocab, queries, docs, truth, cells=cells, ks=[1])
    # 40 docs then 30 queries, in batches of 16, every batch tapping every layer
    assert calls == [(16, taps), (16, taps), (8, taps), (16, taps), (14, taps)]


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def test_report_and_curve_files(tmp_path):
    report = ek.EvalReport(recalls={1: 0.5, 10: 0.75}, n_queries=4, layer=2, dim=8,
                           encode_ms=1.0, search_ms=0.5, index_bytes=128)
    ek.write_report_files(report, tmp_path / "r.json", tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_text().splitlines()[0] == "k,recall"
    assert json.loads((tmp_path / "r.json").read_text())["recalls"] == {"1": 0.5, "10": 0.75}
    # one curve per K; the cost proxy is bytes/doc on the dim axis, layers on the layer axis
    narrow = dataclasses.replace(report, layer=1, dim=4, recalls={1: 0.25, 10: 0.5})
    for axis, costs in (("dim", (16, 32)), ("layer", (1, 2))):
        ek.write_curve_files(axis, [narrow, report], tmp_path / "c.json", tmp_path / "c.csv")
        xs = (4, 8) if axis == "dim" else (1, 2)
        assert (tmp_path / "c.csv").read_text() == (
            f"axis_value,K,recall,cost_proxy\n{xs[0]},1,0.25,{costs[0]}\n{xs[1]},1,0.5,{costs[1]}\n"
            f"{xs[0]},10,0.5,{costs[0]}\n{xs[1]},10,0.75,{costs[1]}\n")
        curves = json.loads((tmp_path / "c.json").read_text())
        assert [(c["axis"], c["k"]) for c in curves] == [(axis, 1), (axis, 10)]
        assert curves[1]["points"][1] == {"axis_value": xs[1], "recall": 0.75,
                                          "cost_proxy": costs[1]}
