"""Data layer tests: vocabulary, masking statistics, smoothing, pairs."""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m3enc import data as D
from m3enc.errors import ConfigError, ContractError, CorpusError


CORPUS = [
    "red apple red apple red",
    "green apple green pear",
    "red pear blue plum",
]


def small_vocab():
    return D.build_vocab(CORPUS, max_size=32)


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def test_vocab_specials_and_ranking():
    v = small_vocab()
    assert v.id_to_token[:5] == D.SPECIAL_TOKENS
    # counting oracle: red x5, apple x4, green x2, pear x2, blue x1, plum x1
    assert v.id_to_token[5] == "red"
    assert v.id_to_token[6] == "apple"
    assert set(v.id_to_token[7:9]) == {"green", "pear"}
    assert v.token_to_id["red"] == 5


def test_vocab_roundtrip_and_unk():
    v = small_vocab()
    ids = D.tokenize(v, "red apple plum")
    assert [v.id_to_token[i] for i in ids] == ["red", "apple", "plum"]
    assert D.tokenize(v, "zebra") == [v.unk_id]


def test_vocab_max_size_cap():
    v = D.build_vocab(CORPUS, max_size=7)
    assert v.size == 7
    assert v.id_to_token[5:] == ("red", "apple")


def test_vocab_errors():
    with pytest.raises(ConfigError):
        D.build_vocab(CORPUS, max_size=5)
    with pytest.raises(CorpusError):
        D.build_vocab(["", "   "], max_size=10)


def test_encode_sequence_framing():
    v = small_vocab()
    ids, mask = D.encode_sequence(v, "red apple", seq_len=8)
    assert ids[0] == v.cls_id and ids[3] == v.sep_id
    assert list(ids[4:]) == [v.pad_id] * 4
    assert list(mask) == [True] * 4 + [False] * 4
    long_ids, long_mask = D.encode_sequence(v, "red " * 50, seq_len=8)
    assert long_mask.all() and long_ids[-1] == v.sep_id


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def seq_of(v, n=40):
    rng = np.random.default_rng(0)
    body = rng.integers(5, v.size, size=n - 2)
    return np.concatenate([[v.cls_id], body, [v.sep_id]])


def test_mask_rate_zero_selects_nothing():
    v = small_vocab()
    masked, labels = D.mask_tokens(v, seq_of(v), 0.0, "mask_only", np.random.default_rng(1))
    assert (labels == D.IGNORE_INDEX).all()
    np.testing.assert_array_equal(masked, seq_of(v))


def test_mask_rate_one_masks_every_eligible():
    v = small_vocab()
    seq = seq_of(v)
    masked, labels = D.mask_tokens(v, seq, 1.0, "mask_only", np.random.default_rng(2))
    eligible = ~np.isin(seq, [v.pad_id, v.cls_id, v.sep_id])
    assert (masked[eligible] == v.mask_id).all()
    np.testing.assert_array_equal(labels[eligible], seq[eligible])
    assert (labels[~eligible] == D.IGNORE_INDEX).all()


def test_mask_count_within_binomial_bounds():
    # 10,000 eligible positions at rate 0.15: expect 1500 +- 4 sigma (143)
    v = small_vocab()
    rng = np.random.default_rng(3)
    seq = np.full(10_000, v.token_to_id["red"])
    _, labels = D.mask_tokens(v, seq, 0.15, "mask_only", rng)
    n = (labels != D.IGNORE_INDEX).sum()
    assert abs(n - 1500) <= 4 * np.sqrt(10_000 * 0.15 * 0.85)


def test_mask_never_selects_specials():
    v = small_vocab()
    rng = np.random.default_rng(4)
    total_positions = 0
    for _ in range(400):
        n = int(rng.integers(10, 600))
        seq = rng.integers(0, v.size, size=n)
        _, labels = D.mask_tokens(v, seq, 0.5, "bert_80_10_10", rng)
        selected = labels != D.IGNORE_INDEX
        assert not np.isin(seq[selected], [v.pad_id, v.cls_id, v.sep_id]).any()
        total_positions += n
    assert total_positions > 100_000


def test_mask_bert_policy_proportions():
    v = small_vocab()
    rng = np.random.default_rng(5)
    seq = np.full(50_000, v.token_to_id["red"])
    masked, labels = D.mask_tokens(v, seq, 1.0, "bert_80_10_10", rng)
    selected = labels != D.IGNORE_INDEX
    assert selected.all()
    frac_mask = (masked == v.mask_id).mean()
    frac_same = (masked == seq).mean()
    # unchanged fraction includes the 1/27 of "random" draws that hit 'red'
    assert abs(frac_mask - 0.8) < 0.02
    assert abs(frac_same - 0.1) < 0.02
    assert not np.isin(masked, [v.pad_id, v.cls_id, v.sep_id]).any()


def test_mask_deterministic_for_fixed_seed():
    v = small_vocab()
    a = D.mask_tokens(v, seq_of(v), 0.3, "bert_80_10_10", np.random.default_rng(42))
    b = D.mask_tokens(v, seq_of(v), 0.3, "bert_80_10_10", np.random.default_rng(42))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


# ---------------------------------------------------------------------------
# language smoothing
# ---------------------------------------------------------------------------


def test_smooth_symmetric_is_fixed_point():
    for s in (0.0, 0.3, 0.7, 1.0):
        mix = D.smooth_mixture({"a": 0.5, "b": 0.5}, s)
        assert mix.smoothed == {"a": 0.5, "b": 0.5}


def test_smooth_single_language():
    mix = D.smooth_mixture({"only": 1.0}, 0.7)
    assert mix.smoothed == {"only": 1.0}


def test_smooth_frozen_high_precision_oracle():
    mix = D.smooth_mixture({"a": 0.81, "b": 0.19}, 0.7)
    # 50-digit computation of 0.81^0.7 / (0.81^0.7 + 0.19^0.7), frozen
    np.testing.assert_allclose(mix.smoothed["a"], 0.73399890722207556648, atol=1e-12)
    np.testing.assert_allclose(mix.smoothed["b"], 0.26600109277792443352, atol=1e-12)


def test_smooth_identity_and_uniform_limits():
    p = {"a": 0.6, "b": 0.3, "c": 0.1, "d": 0.0}
    s1 = D.smooth_mixture(p, 1.0)
    for k in p:
        np.testing.assert_allclose(s1.smoothed[k], p[k], atol=1e-15)
    s0 = D.smooth_mixture(p, 0.0)
    assert s0.smoothed["d"] == 0.0
    for k in ("a", "b", "c"):
        np.testing.assert_allclose(s0.smoothed[k], 1.0 / 3.0, atol=1e-15)


@given(st.integers(min_value=2, max_value=8),
       st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_smooth_sum_and_order_preserved(n, s, seed):
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(n))
    raw = raw / raw.sum()
    p = {f"l{i}": float(v) for i, v in enumerate(raw)}
    mix = D.smooth_mixture(p, s)
    assert abs(sum(mix.smoothed.values()) - 1.0) <= 1e-12
    langs = sorted(p, key=p.get)
    smoothed_in_raw_order = [mix.smoothed[l] for l in langs]
    assert all(x <= y + 1e-15 for x, y in zip(smoothed_in_raw_order, smoothed_in_raw_order[1:]))


def test_smooth_lifts_lowest_language():
    rng = np.random.default_rng(6)
    for _ in range(25):
        raw = rng.dirichlet(np.ones(4))
        raw = raw / raw.sum()
        p = {f"l{i}": float(v) for i, v in enumerate(raw)}
        low = min(p, key=p.get)
        high = max(p, key=p.get)
        if abs(p[low] - p[high]) < 1e-6 or p[low] == 0.0:
            continue
        mix = D.smooth_mixture(p, 0.7)
        assert mix.smoothed[low] > p[low]


def test_smooth_validation():
    with pytest.raises(ContractError):
        D.smooth_mixture({"a": 0.9, "b": 0.3}, 0.7)
    with pytest.raises(ContractError):
        D.smooth_mixture({"a": 0.0, "b": 0.0}, 0.7)
    with pytest.raises(ContractError):
        D.smooth_mixture({}, 0.7)


def test_sample_language_single():
    mix = D.smooth_mixture({"only": 1.0}, 0.7)
    rng = np.random.default_rng(7)
    assert all(D.sample_language(mix, rng) == "only" for _ in range(20))


def test_sample_language_multinomial_bounds():
    mix = D.smooth_mixture({"a": 0.70, "b": 0.25, "c": 0.05}, 0.7)
    rng = np.random.default_rng(8)
    n = 100_000
    draws = [D.sample_language(mix, rng) for _ in range(n)]
    for lang, p in mix.smoothed.items():
        count = draws.count(lang)
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(count - n * p) <= 4 * sigma, f"{lang}: {count} vs {n * p}"


def test_sample_language_deterministic():
    mix = D.smooth_mixture({"a": 0.6, "b": 0.4}, 0.7)
    a = [D.sample_language(mix, np.random.default_rng(9)) for _ in range(10)]
    b = [D.sample_language(mix, np.random.default_rng(9)) for _ in range(10)]
    assert a == b


# ---------------------------------------------------------------------------
# pair ingestion
# ---------------------------------------------------------------------------


def write_pairs(tmp_path, lines, name="pairs.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def test_ingest_and_dedup_and_cap(tmp_path):
    lines = [
        "q1\tdoc a",
        "q1\tdoc a",          # duplicate
        "q1\tdoc b",
        "q1\tdoc c",
        "q2\tdoc a",
    ]
    store = D.ingest_pairs(write_pairs(tmp_path, lines))
    assert len(store) == 5
    deduped = D.dedup_pairs(store)
    assert [(r.query, r.doc) for r in deduped.records] == [
        ("q1", "doc a"), ("q1", "doc b"), ("q1", "doc c"), ("q2", "doc a")]
    capped = D.cap_per_query(deduped, cap=2)
    assert [(r.query, r.doc) for r in capped.records] == [
        ("q1", "doc a"), ("q1", "doc b"), ("q2", "doc a")]
    single = D.cap_per_query(deduped, cap=1)
    assert [(r.query, r.doc) for r in single.records] == [("q1", "doc a"), ("q2", "doc a")]


def test_dedup_cap_idempotent_and_oracle(tmp_path):
    rng = np.random.default_rng(10)
    lines = [f"q{rng.integers(0, 6)}\tdoc{rng.integers(0, 8)}" for _ in range(200)]
    store = D.ingest_pairs(write_pairs(tmp_path, lines))
    deduped = D.dedup_pairs(store)
    # brute-force hash-set oracle
    seen, expected = set(), []
    for line in lines:
        key = tuple(line.split("\t"))
        if key not in seen:
            seen.add(key)
            expected.append(key)
    assert [(r.query, r.doc) for r in deduped.records] == expected
    twice = D.dedup_pairs(deduped)
    assert [(r.query, r.doc) for r in twice.records] == expected
    capped = D.cap_per_query(deduped, cap=3)
    recapped = D.cap_per_query(capped, cap=3)
    assert [(r.query, r.doc) for r in capped.records] == \
           [(r.query, r.doc) for r in recapped.records]


def test_ingest_skips_malformed_with_line_numbers(tmp_path):
    lines = ["q1\tdoc a", "no-tab-line", "q2\tdoc b", "q3\tdoc c\tnot-a-date"] + \
            [f"q{i}\tdoc{i}" for i in range(40)]
    store = D.ingest_pairs(write_pairs(tmp_path, lines))
    assert len(store.skipped) == 2
    assert store.skipped[0][0] == 2
    assert store.skipped[1][0] == 4
    assert len(store) == 42


def test_ingest_aborts_on_too_many_malformed(tmp_path):
    lines = ["q1\tdoc a", "bad1", "bad2", "q2\tdoc b"]
    with pytest.raises(CorpusError):
        D.ingest_pairs(write_pairs(tmp_path, lines))


def test_ingest_rejects_non_utf8_with_position(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"q1\tdoc a\nq2\tdo\xffc b\n")
    with pytest.raises(CorpusError, match="line 2"):
        D.ingest_pairs(path)


def test_ingest_timestamps(tmp_path):
    lines = ["q1\tdoc a\t2024-01-01T00:00:00", "q2\tdoc b\t2024-06-01T12:00:00"]
    store = D.ingest_pairs(write_pairs(tmp_path, lines))
    assert store.records[0].timestamp == datetime(2024, 1, 1)


# ---------------------------------------------------------------------------
# batch sources
# ---------------------------------------------------------------------------


def test_mlm_source_deterministic_and_valid():
    v = small_vocab()
    src = D.MlmSource(v, CORPUS, seq_len=10, mask_rate=0.15)
    a = src.batch(np.random.default_rng(11), batch_size=4)
    b = src.batch(np.random.default_rng(11), batch_size=4)
    np.testing.assert_array_equal(a.tokens, b.tokens)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.mask_positions.any(axis=-1).all()  # every row has signal
    # labels defined exactly at masked positions (validated in __post_init__)
    assert (a.labels != D.IGNORE_INDEX).sum() == a.mask_positions.sum()


def test_multilingual_source_uses_smoothed_mixture():
    v = D.build_vocab(["aa bb cc dd"], max_size=16)
    groups = {"en": ["aa bb"] * 90, "xx": ["cc dd"] * 10}
    src = D.MultilingualMlmSource(v, groups, seq_len=6, mask_rate=0.15, smoothing=0.7)
    np.testing.assert_allclose(sum(src.mixture.smoothed.values()), 1.0, atol=1e-12)
    assert src.mixture.smoothed["xx"] > 0.10  # lifted above raw share
    batch = src.batch(np.random.default_rng(12), batch_size=8)
    assert batch.tokens.shape == (8, 6)


def test_pair_source_batches():
    v = small_vocab()
    recs = [D.PairRecord(query=f"red apple {i}", doc=f"green pear {i}",
                         timestamp=None, line_no=i + 1) for i in range(6)]
    src = D.PairSource(v, recs, query_len=6, doc_len=8)
    batch = src.batch(np.random.default_rng(13), batch_size=4)
    assert batch.size == 4
    assert len(set(batch.pair_ids)) == 4  # sampled without replacement
    assert batch.query_tokens.shape == (4, 6) and batch.doc_tokens.shape == (4, 8)
