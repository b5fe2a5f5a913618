"""Synthetic corpora: determinism, structure, distributions and pinned bytes."""

import hashlib
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from m3enc import synth
from m3enc.errors import ConfigError

GEN_DATA_PROPORTIONS = {"en": 0.55, "de": 0.20, "fr": 0.15, "lo": 0.10}
SRC = str(Path(synth.__file__).resolve().parents[1])

# default (n_topics, words_per_topic, n_common, doc_len) of each generator
DEFAULTS = {"mono": (24, 28, 60, (12, 22)), "multi": (8, 20, 20, (10, 18)),
            "pairs": (24, 28, 60, (12, 22))}
WORD = re.compile(r"^(?:t(\d{2})w(\d{2})|c(\d{2}))$")


def corpus(kind, n, seed, **kw):
    if kind == "mono":
        return synth.generate_mlm_corpus(n, seed, **kw)
    if kind == "multi":
        return synth.generate_multilingual_corpus(GEN_DATA_PROPORTIONS, n, seed, **kw)
    return synth.generate_pair_corpus(n, seed, **kw)


def doc_words(kind, rows):
    """Each document's words, language prefixes stripped."""
    if kind == "mono":
        return [d.split() for d in rows]
    if kind == "multi":
        return [[w.split("_", 1)[1] for w in text.split()] for _, text in rows]
    return [d.split() for _, d in rows]


def write(kind, path, rows):
    {"mono": synth.write_text_corpus, "multi": synth.write_multilingual_corpus,
     "pairs": synth.write_pair_corpus}[kind](path, rows)
    return path.read_bytes()


def within_4_sigma(count, n, p):
    return abs(count - n * p) <= 4 * math.sqrt(n * p * (1 - p))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(DEFAULTS))
def test_same_seed_same_corpus_other_seed_other_corpus(kind):
    assert corpus(kind, 200, seed=5) == corpus(kind, 200, seed=5)
    assert corpus(kind, 200, seed=5) != corpus(kind, 200, seed=6)


# generate_*_corpus(50, seed=0) as written by its writer; any change to the
# draws or the spellings moves these
PINNED_SHA256 = {
    "mono": "6cf11a3617292e997933bd50b0a5549b053744b1df13adc088a81a347dcab240",
    "multi": "03f13f0e3a2dcc015e20be95cfcf730827c8dd7c1a7d97dcc2fcf4522b200682",
    "pairs": "c405d0f3eb01e5918090eebb4549809622241157f167b67692fb1c233582434c",
}


@pytest.mark.parametrize("kind", list(PINNED_SHA256))
def test_corpus_bytes_are_pinned(tmp_path, kind):
    data = write(kind, tmp_path / "c.txt", corpus(kind, 50, seed=0))
    assert hashlib.sha256(data).hexdigest() == PINNED_SHA256[kind]


@pytest.mark.parametrize("kind", list(DEFAULTS))
def test_gen_data_bytes_do_not_depend_on_the_hash_seed(tmp_path, kind):
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"{kind}-{hash_seed}.txt"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "m3enc.cli", "gen-data", "--kind", kind,
                        "--out", str(out), "--seed", "3", "--n", "40"],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 40


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", list(DEFAULTS))
def test_lengths_span_doc_len_and_words_stay_in_their_pools(kind):
    n_topics, per_topic, n_common, (lo, hi) = DEFAULTS[kind]
    docs = doc_words(kind, corpus(kind, 2000, seed=11))
    lengths = [len(d) for d in docs]
    assert min(lengths) == lo and max(lengths) == hi
    for words in docs:
        topics = set()
        for w in words:
            m = WORD.match(w)
            assert m, w
            if m.group(1) is not None:
                assert int(m.group(1)) < n_topics and int(m.group(2)) < per_topic
                topics.add(m.group(1))
            else:
                assert int(m.group(3)) < n_common
        assert len(topics) <= 1, words  # the document's own topic and the common pool


def test_multilingual_words_carry_their_language_prefix():
    rows = corpus("multi", 300, seed=2)
    assert {lang for lang, _ in rows} == set(GEN_DATA_PROPORTIONS)
    for lang, text in rows:
        assert all(w.startswith(f"{lang}_") for w in text.split())


@pytest.mark.parametrize("doc_len,query_len", [((12, 22), (3, 6)), ((2, 4), (3, 6))],
                         ids=["query-shorter", "query-capped-by-doc"])
def test_query_is_an_in_order_subsequence_of_its_document(doc_len, query_len):
    for query, doc in synth.generate_pair_corpus(1000, seed=9, doc_len=doc_len,
                                                 query_len=query_len):
        q, d = query.split(), doc.split()
        assert min(query_len[0], len(d)) <= len(q) <= min(query_len[1], len(d))
        # greedy matching picks strictly increasing positions, so a match
        # exists in order and uses no position twice
        pos = -1
        for w in q:
            pos = d.index(w, pos + 1)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def test_topic_share_and_zipf_ratio():
    words = [w for d in synth.generate_mlm_corpus(2000, seed=21) for w in d.split()]
    n_topic = sum(w.startswith("t") for w in words)
    assert within_4_sigma(n_topic, len(words), 0.8)
    # weights 1/(k+2): rank 1 : rank 2 = 1/2 : 1/3, so rank 1 holds 3/5 of the pair
    ranks = Counter("w00" if w.endswith("w00") else "w01" if w.endswith("w01")
                    else w if w in ("c00", "c01") else None for w in words)
    for first, second in (("w00", "w01"), ("c00", "c01")):
        n = ranks[first] + ranks[second]
        assert within_4_sigma(ranks[first], n, 0.6), (first, ranks[first], n)


def test_topic_frac_edges():
    assert all(w.startswith("t") for d in synth.generate_mlm_corpus(50, 1, topic_frac=1.0)
               for w in d.split())
    assert all(w.startswith("c") for d in synth.generate_mlm_corpus(50, 1, topic_frac=0.0)
               for w in d.split())


def test_language_shares():
    counts = Counter(lang for lang, _ in corpus("multi", 2000, seed=4))
    for lang, p in GEN_DATA_PROPORTIONS.items():
        assert within_4_sigma(counts[lang], 2000, p), (lang, counts[lang])


# ---------------------------------------------------------------------------
# argument checks
# ---------------------------------------------------------------------------


BAD_ARGS = {
    "n-negative": lambda: synth.generate_mlm_corpus(-1, 0),
    "doc_len-reversed": lambda: synth.generate_mlm_corpus(5, 0, doc_len=(5, 3)),
    "doc_len-zero": lambda: synth.generate_pair_corpus(5, 0, doc_len=(0, 3)),
    "topic_frac-above-1": lambda: synth.generate_mlm_corpus(5, 0, topic_frac=1.5),
    "topic_frac-negative": lambda: synth.generate_pair_corpus(5, 0, topic_frac=-0.1),
    "topic_frac-nan": lambda: synth.generate_mlm_corpus(5, 0, topic_frac=float("nan")),
    "n_topics-zero": lambda: synth.generate_mlm_corpus(5, 0, n_topics=0),
    "words_per_topic-zero": lambda: synth.generate_pair_corpus(5, 0, words_per_topic=0),
    "n_common-zero": lambda: synth.generate_multilingual_corpus({"en": 1.0}, 5, 0,
                                                                n_common=0),
    "query_len-zero": lambda: synth.generate_pair_corpus(5, 0, query_len=(0, 4)),
    "query_len-reversed": lambda: synth.generate_pair_corpus(5, 0, query_len=(4, 3)),
    "proportions-empty": lambda: synth.generate_multilingual_corpus({}, 5, 0),
    "proportions-zero-sum": lambda: synth.generate_multilingual_corpus(
        {"en": 0.0, "de": 0.0}, 5, 0),
    "proportions-negative": lambda: synth.generate_multilingual_corpus(
        {"en": -1.0, "de": 2.0}, 5, 0),
    "proportions-nan": lambda: synth.generate_multilingual_corpus({"en": float("nan")}, 5, 0),
}


@pytest.mark.parametrize("case", list(BAD_ARGS))
def test_bad_arguments_raise_config_error(case):
    with pytest.raises(ConfigError):
        BAD_ARGS[case]()


def test_empty_corpus_is_allowed():
    assert synth.generate_mlm_corpus(0, 0) == []
    assert synth.generate_pair_corpus(0, 0) == []
    assert synth.generate_multilingual_corpus({"en": 1.0}, 0, 0) == []
