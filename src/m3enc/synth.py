"""Seeded synthetic corpora for desk-scale experiments.

The generated language is topic-structured: each topic owns a pool of
content words and every document mixes its topic's words (Zipf-weighted)
with a shared common-word pool. Masked-token prediction therefore rewards
representations that encode the topic and the surrounding word identities,
and retrieval rewards matching a query to the one document it was sampled
from among many same-topic distractors.

Each generator draws its whole corpus at once, one call per quantity: the
documents' topics and lengths, every word's topic flag and Zipf rank, then
the multilingual corpus's languages or the pair corpus's query lengths and
per-word keys. Words are looked up in a table of every pool's spellings and
cut into documents at the cumulative lengths. A query keeps the positions
holding its document's smallest keys, in document order: a uniform subset.

Every generator is a pure function of its arguments including the seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError
from .rng import named_rng


# the most words a document holds at any generator's default lengths
MAX_DOC_WORDS = 22


def topic_word(topic: int, k: int) -> str:
    return f"t{topic:02d}w{k:02d}"


def common_word(k: int) -> str:
    return f"c{k:02d}"


def _zipf_cdf(n: int) -> np.ndarray:
    """CDF of the weights 1/(k+2), k < n; its last entry is exactly 1.0, so a
    uniform draw in [0, 1) never maps past rank n - 1."""
    cdf = np.cumsum(1.0 / np.arange(2, n + 2, dtype=np.float64))
    return cdf / cdf[-1]


def _check_span(name: str, span: tuple[int, int]) -> None:
    lo, hi = span
    if not 1 <= lo <= hi:
        raise ConfigError(f"{name} must satisfy 1 <= lo <= hi, got {tuple(span)}")


def _draw_words(rng: np.random.Generator, n_docs: int, *, n_topics: int,
                words_per_topic: int, n_common: int, doc_len: tuple[int, int],
                topic_frac: float) -> tuple[np.ndarray, np.ndarray]:
    """Every word of an ``n_docs`` corpus, documents one after another, and
    each document's length."""
    if n_docs < 0:
        raise ConfigError(f"document count must be >= 0, got {n_docs}")
    for name, size in (("n_topics", n_topics), ("words_per_topic", words_per_topic),
                       ("n_common", n_common)):
        if size < 1:
            raise ConfigError(f"{name} must be >= 1, got {size}")
    _check_span("doc_len", doc_len)
    if not 0.0 <= topic_frac <= 1.0:
        raise ConfigError(f"topic_frac must lie in [0, 1], got {topic_frac}")
    topics = rng.integers(n_topics, size=n_docs)
    lengths = rng.integers(doc_len[0], doc_len[1] + 1, size=n_docs)
    is_topic = rng.random(lengths.sum()) < topic_frac
    u = rng.random(is_topic.size)
    # topic t's word k sits at t * words_per_topic + k; the common words follow
    table = np.array([topic_word(t, k) for t in range(n_topics) for k in range(words_per_topic)]
                     + [common_word(k) for k in range(n_common)], dtype=object)
    ids = np.where(is_topic,
                   np.repeat(topics, lengths) * words_per_topic
                   + np.searchsorted(_zipf_cdf(words_per_topic), u, side="right"),
                   n_topics * words_per_topic
                   + np.searchsorted(_zipf_cdf(n_common), u, side="right"))
    return table[ids], lengths


def _cut(words: np.ndarray, lengths: np.ndarray) -> list[str]:
    """Consecutive runs of ``lengths`` words, each joined into one text."""
    words, ends = words.tolist(), np.cumsum(lengths).tolist()
    return [" ".join(words[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def generate_mlm_corpus(
    n_docs: int,
    seed: int,
    *,
    n_topics: int = 24,
    words_per_topic: int = 28,
    n_common: int = 60,
    doc_len: tuple[int, int] = (12, MAX_DOC_WORDS),
    topic_frac: float = 0.8,
) -> list[str]:
    """Monolingual topic-mixture corpus, one document per entry."""
    rng = named_rng(seed, "synth-mlm")
    words, lengths = _draw_words(rng, n_docs, n_topics=n_topics,
                                 words_per_topic=words_per_topic, n_common=n_common,
                                 doc_len=doc_len, topic_frac=topic_frac)
    return _cut(words, lengths)


def generate_multilingual_corpus(
    proportions: dict[str, float],
    n_docs: int,
    seed: int,
    *,
    n_topics: int = 8,
    words_per_topic: int = 20,
    n_common: int = 20,
    doc_len: tuple[int, int] = (10, 18),
) -> list[tuple[str, str]]:
    """(lang, text) rows; each language uses its own disjoint word pools."""
    langs = sorted(proportions)
    probs = np.array([proportions[l] for l in langs], dtype=np.float64)
    if not (probs.size and np.all(probs >= 0) and 0 < probs.sum() < np.inf):
        raise ConfigError("proportions must be non-negative and finite with a positive "
                          f"sum, got {proportions!r}")
    rng = named_rng(seed, "synth-multi")
    words, lengths = _draw_words(rng, n_docs, n_topics=n_topics,
                                 words_per_topic=words_per_topic, n_common=n_common,
                                 doc_len=doc_len, topic_frac=0.8)
    doc_langs = rng.choice(len(langs), size=n_docs, p=probs / probs.sum())
    prefixes = np.array([f"{lang}_" for lang in langs], dtype=object)
    texts = _cut(prefixes[np.repeat(doc_langs, lengths)] + words, lengths)
    return [(langs[l], text) for l, text in zip(doc_langs.tolist(), texts)]


def generate_pair_corpus(
    n_pairs: int,
    seed: int,
    *,
    n_topics: int = 24,
    words_per_topic: int = 28,
    n_common: int = 60,
    doc_len: tuple[int, int] = (12, MAX_DOC_WORDS),
    query_len: tuple[int, int] = (3, 6),
    topic_frac: float = 0.8,
) -> list[tuple[str, str]]:
    """(query, doc) rows; the query samples words from its own document."""
    _check_span("query_len", query_len)
    rng = named_rng(seed, "synth-pairs")
    words, lengths = _draw_words(rng, n_pairs, n_topics=n_topics,
                                 words_per_topic=words_per_topic, n_common=n_common,
                                 doc_len=doc_len, topic_frac=topic_frac)
    q_lens = np.minimum(rng.integers(query_len[0], query_len[1] + 1, size=n_pairs), lengths)
    keys = rng.random(words.size)
    # positions grouped by document, smallest key first; a position's rank
    # within its document is its offset from the document's first slot
    order = np.lexsort((keys, np.repeat(np.arange(n_pairs), lengths)))
    rank = np.arange(words.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    picked = np.sort(order[rank < np.repeat(q_lens, lengths)])
    return list(zip(_cut(words[picked], q_lens), _cut(words, lengths)))


def write_text_corpus(path, docs: list[str]) -> None:
    Path(path).write_text("\n".join(docs) + "\n", encoding="utf-8")


def write_multilingual_corpus(path, rows: list[tuple[str, str]]) -> None:
    Path(path).write_text("\n".join(f"{lang}\t{text}" for lang, text in rows) + "\n",
                          encoding="utf-8")


def write_pair_corpus(path, pairs: list[tuple[str, str]]) -> None:
    Path(path).write_text("\n".join(f"{q}\t{d}" for q, d in pairs) + "\n", encoding="utf-8")
