"""Seeded synthetic corpora for desk-scale experiments.

The generated language is topic-structured: each topic owns a pool of
content words and every document mixes its topic's words (Zipf-weighted)
with a shared common-word pool. Masked-token prediction therefore rewards
representations that encode the topic and the surrounding word identities,
and retrieval rewards matching a query to the one document it was sampled
from among many same-topic distractors.

Every generator is a pure function of its arguments including the seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .rng import named_rng


def _zipf_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(2, n + 2, dtype=np.float64)
    return w / w.sum()


def topic_word(topic: int, k: int) -> str:
    return f"t{topic:02d}w{k:02d}"


def common_word(k: int) -> str:
    return f"c{k:02d}"


def _sample_doc(rng: np.random.Generator, topic: int, *, words_per_topic: int,
                n_common: int, doc_len: tuple[int, int], topic_frac: float) -> list[str]:
    length = int(rng.integers(doc_len[0], doc_len[1] + 1))
    tw = _zipf_weights(words_per_topic)
    cw = _zipf_weights(n_common)
    words = []
    for _ in range(length):
        if rng.random() < topic_frac:
            words.append(topic_word(topic, int(rng.choice(words_per_topic, p=tw))))
        else:
            words.append(common_word(int(rng.choice(n_common, p=cw))))
    return words


def generate_mlm_corpus(
    n_docs: int,
    seed: int,
    *,
    n_topics: int = 24,
    words_per_topic: int = 28,
    n_common: int = 60,
    doc_len: tuple[int, int] = (12, 22),
    topic_frac: float = 0.8,
) -> list[str]:
    """Monolingual topic-mixture corpus, one document per entry."""
    rng = named_rng(seed, "synth-mlm")
    docs = []
    for _ in range(n_docs):
        topic = int(rng.integers(n_topics))
        docs.append(" ".join(_sample_doc(rng, topic, words_per_topic=words_per_topic,
                                         n_common=n_common, doc_len=doc_len,
                                         topic_frac=topic_frac)))
    return docs


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
    rng = named_rng(seed, "synth-multi")
    langs = sorted(proportions)
    probs = np.array([proportions[l] for l in langs], dtype=np.float64)
    probs /= probs.sum()
    rows = []
    for _ in range(n_docs):
        lang = langs[int(rng.choice(len(langs), p=probs))]
        topic = int(rng.integers(n_topics))
        words = _sample_doc(rng, topic, words_per_topic=words_per_topic,
                            n_common=n_common, doc_len=doc_len, topic_frac=0.8)
        rows.append((lang, " ".join(f"{lang}_{w}" for w in words)))
    return rows


def generate_pair_corpus(
    n_pairs: int,
    seed: int,
    *,
    n_topics: int = 24,
    words_per_topic: int = 28,
    n_common: int = 60,
    doc_len: tuple[int, int] = (12, 22),
    query_len: tuple[int, int] = (3, 6),
    topic_frac: float = 0.8,
) -> list[tuple[str, str]]:
    """(query, doc) rows; the query samples words from its own document."""
    rng = named_rng(seed, "synth-pairs")
    pairs = []
    for _ in range(n_pairs):
        topic = int(rng.integers(n_topics))
        doc_words = _sample_doc(rng, topic, words_per_topic=words_per_topic,
                                n_common=n_common, doc_len=doc_len,
                                topic_frac=topic_frac)
        q_len = int(rng.integers(query_len[0], query_len[1] + 1))
        q_len = min(q_len, len(doc_words))
        q_words = [doc_words[i] for i in
                   sorted(rng.choice(len(doc_words), size=q_len, replace=False))]
        pairs.append((" ".join(q_words), " ".join(doc_words)))
    return pairs


def write_text_corpus(path, docs: list[str]) -> None:
    Path(path).write_text("\n".join(docs) + "\n", encoding="utf-8")


def write_multilingual_corpus(path, rows: list[tuple[str, str]]) -> None:
    Path(path).write_text("\n".join(f"{lang}\t{text}" for lang, text in rows) + "\n",
                          encoding="utf-8")


def write_pair_corpus(path, pairs: list[tuple[str, str]]) -> None:
    Path(path).write_text("\n".join(f"{q}\t{d}" for q, d in pairs) + "\n", encoding="utf-8")
