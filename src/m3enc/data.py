"""Corpus handling: vocabulary, MLM masking, multilingual smoothing,
query-document pair ingestion, and deterministic batch assembly.

The readers and filters pass plain values: a corpus is a list of documents,
a multilingual corpus a dict of them per language, and a pair corpus a list
of ``PairRecord``. A smoothed language mixture is a dict of weights.

File formats understood here:

* monolingual corpus: UTF-8 plain text, one document per line
* multilingual corpus: UTF-8 TSV, ``lang<TAB>text``
* pair corpus: UTF-8 TSV, ``query<TAB>doc[<TAB>extra]``; an optional third
  column (such as a timestamp) is accepted and ignored

All readers reject non-UTF-8 bytes with a positioned error.

Batches are packed: a batch is its sequences' ids laid end to end, [N],
and their lengths, [B], with no padding position. A configured length
(``seq_len``, ``query_len``, ``doc_len``) is a cap on each sequence, not a
width. The MLM sources keep their documents padded to ``seq_len`` and draw
each row's masks at that length before packing, so the random stream and
the masked positions do not depend on the packing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, CorpusError

PAD, UNK, CLS, SEP, MASK = "<pad>", "<unk>", "<cls>", "<sep>", "<mask>"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)

# label value for positions that do not contribute to the MLM loss
IGNORE_INDEX = -1

MASK_POLICIES = ("mask_only", "bert_80_10_10")

# ingest_pairs aborts when more than this share of non-blank lines is malformed
MAX_MALFORMED_FRACTION = 0.10


# ---------------------------------------------------------------------------
# Vocabulary and tokenization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocab:
    """The special tokens in ``SPECIAL_TOKENS`` order, then distinct words;
    a token's id is its position."""

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    pad_id, unk_id, cls_id, sep_id, mask_id = range(len(SPECIAL_TOKENS))

    def __post_init__(self):
        specials = self.id_to_token[:len(SPECIAL_TOKENS)]
        if specials != SPECIAL_TOKENS:
            raise ContractError(f"a vocabulary starts with {SPECIAL_TOKENS}, got {specials}")
        index = {t: i for i, t in enumerate(self.id_to_token)}
        if len(index) != len(self.id_to_token):
            repeated = next(t for i, t in enumerate(self.id_to_token) if index[t] != i)
            raise ContractError(f"a vocabulary's tokens are distinct; {repeated!r} repeats")
        object.__setattr__(self, "token_to_id", index)

    @property
    def size(self) -> int:
        return len(self.id_to_token)


def build_vocab(lines, max_size: int) -> Vocab:
    """Frequency-ranked whitespace vocabulary with the special tokens first.

    Ties in frequency are broken lexicographically so the mapping is
    deterministic. A word spelled like a special token is not a word of the
    vocabulary; it and out-of-vocabulary words map to ``<unk>`` at tokenize
    time.
    """
    if max_size <= len(SPECIAL_TOKENS):
        raise ConfigError(f"max_size must exceed the {len(SPECIAL_TOKENS)} special tokens")
    counts: Counter[str] = Counter()
    for line in lines:
        counts.update(line.split())
    for tok in SPECIAL_TOKENS:
        counts.pop(tok, None)
    if not counts:
        raise CorpusError("empty corpus: no tokens found")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - len(SPECIAL_TOKENS)]]
    return Vocab(SPECIAL_TOKENS + tuple(keep))


def tokenize(vocab: Vocab, text: str) -> list[int]:
    """Word ids of ``text``; text never yields a special token's id."""
    unk, ids = vocab.unk_id, vocab.token_to_id
    return [unk if tok in SPECIAL_TOKENS else ids.get(tok, unk) for tok in text.split()]


def encode_sequence(vocab: Vocab, text: str, seq_len: int) -> np.ndarray:
    """The ids of ``<cls> tokens... <sep>``, with the tokens cut so that
    there are at most ``seq_len`` ids."""
    if seq_len < 3:
        raise ConfigError("seq_len must be at least 3 (cls + token + sep)")
    body = tokenize(vocab, text)[: seq_len - 2]
    return np.array([vocab.cls_id, *body, vocab.sep_id], dtype=np.int64)


def pack(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Sequences as one packed batch: their ids end to end [N] and their
    lengths [B]."""
    return np.concatenate(seqs), np.array([len(s) for s in seqs])


# ---------------------------------------------------------------------------
# MLM masking
# ---------------------------------------------------------------------------


def mask_tokens(
    vocab: Vocab,
    seq: np.ndarray,
    rate: float,
    policy: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Independently select eligible positions with probability ``rate`` and
    replace them per policy; labels record the originals at selected spots.

    ``mask_only`` always writes the mask token. ``bert_80_10_10`` writes the
    mask token 80% of the time, a random non-special token 10%, and leaves
    the original 10%. Pad/cls/sep positions are never selected.
    """
    if not (0.0 <= rate <= 1.0):
        raise ContractError(f"mask rate {rate} outside [0, 1]")
    if policy not in MASK_POLICIES:
        raise ConfigError(f"mask policy must be one of {MASK_POLICIES}")
    seq = np.asarray(seq, dtype=np.int64)
    protected = (seq == vocab.pad_id) | (seq == vocab.cls_id) | (seq == vocab.sep_id)
    selected = (rng.random(seq.shape) < rate) & ~protected
    labels = np.where(selected, seq, IGNORE_INDEX)
    masked = seq.copy()
    if policy == "mask_only":
        masked[selected] = vocab.mask_id
    else:
        roll = rng.random(seq.shape)
        randoms = rng.integers(len(SPECIAL_TOKENS), vocab.size, size=seq.shape)
        use_mask = selected & (roll < 0.8)
        use_random = selected & (roll >= 0.8) & (roll < 0.9)
        masked[use_mask] = vocab.mask_id
        masked[use_random] = randoms[use_random]
    return masked, labels


# ---------------------------------------------------------------------------
# Multilingual smoothing
# ---------------------------------------------------------------------------


def smooth_mixture(proportions: dict[str, float], smoothing: float) -> dict[str, float]:
    """Exponential language smoothing: P'(L) = P(L)^S / sum_K P(K)^S, per
    language.

    S=1 keeps the raw proportions; S=0 is uniform over the languages with
    positive mass. Raw proportions must be non-negative and sum to 1.
    """
    if not (0.0 <= smoothing <= 1.0):
        raise ContractError(f"smoothing factor {smoothing} outside [0, 1]")
    if not proportions:
        raise ContractError("empty language set")
    values = np.array([float(v) for v in proportions.values()], dtype=np.float64)
    if (values < 0).any():
        raise ContractError("language proportions must be non-negative")
    total = values.sum()
    if total <= 0:
        raise ContractError("language proportions are all zero")
    if abs(total - 1.0) > 1e-6:
        raise ContractError(f"language proportions sum to {total}, expected 1")
    powered = np.where(values > 0, values ** smoothing, 0.0)
    powered /= powered.sum()
    return {lang: float(p) for lang, p in zip(proportions, powered)}


def sample_language(mixture: dict[str, float], rng: np.random.Generator) -> str:
    """One language drawn from ``mixture``, over its languages in sorted order."""
    langs = sorted(mixture)
    probs = np.array([mixture[l] for l in langs], dtype=np.float64)
    probs /= probs.sum()
    return str(rng.choice(np.array(langs, dtype=object), p=probs))


# ---------------------------------------------------------------------------
# Pair ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairRecord:
    query: str
    doc: str


def _decode_lines(path) -> list[str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise CorpusError(f"{path}: cannot read corpus: {e.strerror}") from e
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = raw[: e.start].count(b"\n") + 1
        raise CorpusError(
            f"{path}: invalid UTF-8 byte at offset {e.start} (line {line_no})") from e
    return text.splitlines()


def read_text_corpus(path) -> list[str]:
    """Monolingual corpus: one document per line; blank lines are dropped."""
    docs = [line.strip() for line in _decode_lines(path)]
    docs = [d for d in docs if d]
    if not docs:
        raise CorpusError(f"{path}: corpus has no documents")
    return docs


def read_multilingual_corpus(path) -> dict[str, list[str]]:
    """Multilingual corpus: ``lang<TAB>text`` per line, grouped by language."""
    groups: dict[str, list[str]] = {}
    for i, line in enumerate(_decode_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1].strip():
            raise CorpusError(f"{path}:{i}: expected 'lang<TAB>text'")
        groups.setdefault(parts[0], []).append(parts[1].strip())
    if not groups:
        raise CorpusError(f"{path}: corpus has no documents")
    return groups


def ingest_pairs(path) -> list[PairRecord]:
    """The ``query<TAB>doc[<TAB>extra]`` pairs of ``path``, in file order; a
    third column is ignored.

    A malformed line is skipped. If more than ``MAX_MALFORMED_FRACTION`` of
    the non-blank lines are malformed, the ingest aborts with an error naming
    the first of them.
    """
    records: list[PairRecord] = []
    malformed: list[int] = []  # line numbers
    for i, line in enumerate(_decode_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3) or not parts[0].strip() or not parts[1].strip():
            malformed.append(i)
            continue
        records.append(PairRecord(query=parts[0].strip(), doc=parts[1].strip()))
    n_lines = len(records) + len(malformed)
    if n_lines == 0:
        raise CorpusError(f"{path}: no pairs found")
    if len(malformed) > MAX_MALFORMED_FRACTION * n_lines:
        raise CorpusError(
            f"{path}: {len(malformed)}/{n_lines} malformed lines exceeds "
            f"{MAX_MALFORMED_FRACTION:.0%}; first: line {malformed[0]} "
            "(expected 'query<TAB>doc[<TAB>extra]')")
    return records


def dedup_pairs(records: list[PairRecord]) -> list[PairRecord]:
    """Drop exact (query, doc) duplicates, keeping the first occurrence."""
    return list(dict.fromkeys(records))


def cap_per_query(records: list[PairRecord], cap: int) -> list[PairRecord]:
    """Keep at most ``cap`` pairs per distinct query, first-come."""
    if cap < 1:
        raise ContractError("cap must be at least 1")
    seen: Counter[str] = Counter()
    kept = []
    for rec in records:
        seen[rec.query] += 1
        if seen[rec.query] <= cap:
            kept.append(rec)
    return kept


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


@dataclass
class MlmBatch:
    ids: np.ndarray      # [N] packed ids after masking
    lengths: np.ndarray  # [B] sequence lengths, summing to N
    labels: np.ndarray   # [N] original ids where masked, else IGNORE_INDEX

    def __post_init__(self):
        if np.shape(self.labels) != np.shape(self.ids):
            raise ContractError("labels must hold one entry per packed position")

    @property
    def n_tokens(self) -> int:
        """Real positions in the batch."""
        return int(self.ids.size)

    @property
    def width(self) -> int:
        """The longest sequence."""
        return int(self.lengths.max())


@dataclass
class PairBatch:
    # each side packed; a sequence is at most query_len / doc_len long
    query_ids: np.ndarray      # [N_q]
    query_lengths: np.ndarray  # [B]
    doc_ids: np.ndarray        # [N_d]
    doc_lengths: np.ndarray    # [B]

    @property
    def size(self) -> int:
        return len(self.query_lengths)

    @property
    def n_tokens(self) -> int:
        """Real positions over both sides."""
        return int(self.query_ids.size + self.doc_ids.size)

    @property
    def width(self) -> list[int]:
        """The longest query and the longest document."""
        return [int(self.query_lengths.max()), int(self.doc_lengths.max())]


class MlmSource:
    """Deterministic MLM batch stream over a monolingual corpus.

    Every batch is a pure function of the generator handed in, so training
    can address batches by (seed, stage, step). Sequences that the masking
    draw left untouched get one forced mask so every row carries signal.
    """

    def __init__(self, vocab: Vocab, texts: list[str], seq_len: int,
                 mask_rate: float, policy: str = "bert_80_10_10"):
        if not texts:
            raise CorpusError("MlmSource requires at least one document")
        self.vocab = vocab
        self.seq_len = seq_len
        self.mask_rate = mask_rate
        self.policy = policy
        # the masking store: each document padded to seq_len, and its length
        ids, self.lengths = pack([encode_sequence(vocab, t, seq_len) for t in texts])
        self.ids = np.full((len(texts), seq_len), vocab.pad_id, dtype=np.int64)
        self.ids[np.arange(seq_len) < self.lengths[:, None]] = ids
        unmaskable = np.flatnonzero(np.isin(self.ids, self._protected()).all(axis=1))
        if unmaskable.size:
            raise CorpusError(f"document {unmaskable[0]} frames to no maskable position "
                              f"(a blank text is only <cls> <sep>)")

    def _protected(self) -> list[int]:
        """The ids that masking never selects."""
        return [self.vocab.pad_id, self.vocab.cls_id, self.vocab.sep_id]

    def _mask_rows(self, ids: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        tokens = np.empty_like(ids)
        labels = np.empty_like(ids)
        for i in range(ids.shape[0]):
            tokens[i], labels[i] = mask_tokens(self.vocab, ids[i], self.mask_rate,
                                               self.policy, rng)
            if (labels[i] == IGNORE_INDEX).all():
                eligible = np.flatnonzero(~np.isin(ids[i], self._protected()))
                pos = int(rng.choice(eligible))
                labels[i, pos] = ids[i, pos]
                tokens[i, pos] = self.vocab.mask_id
        return tokens, labels

    def _masked_batch(self, rows: np.ndarray, rng: np.random.Generator) -> MlmBatch:
        """Mask the rows at full length, then pack them."""
        tokens, labels = self._mask_rows(self.ids[rows], rng)
        lengths = self.lengths[rows]
        real = np.arange(self.seq_len) < lengths[:, None]
        return MlmBatch(ids=tokens[real], lengths=lengths, labels=labels[real])

    def batch(self, rng: np.random.Generator, batch_size: int) -> MlmBatch:
        return self._masked_batch(rng.integers(0, self.ids.shape[0], size=batch_size), rng)


class MultilingualMlmSource(MlmSource):
    """MLM batches where each row's language is drawn from a smoothed mixture."""

    def __init__(self, vocab: Vocab, groups: dict[str, list[str]], seq_len: int,
                 mask_rate: float, smoothing: float, policy: str = "bert_80_10_10"):
        if not groups:
            raise CorpusError("MultilingualMlmSource requires at least one language")
        total = sum(len(v) for v in groups.values())
        self.mixture = smooth_mixture({lang: len(v) / total for lang, v in groups.items()},
                                      smoothing)
        # the documents of each language in sorted order, and each one's rows
        texts, self.by_lang = [], {}
        for lang in sorted(groups):
            self.by_lang[lang] = np.arange(len(texts), len(texts) + len(groups[lang]))
            texts += groups[lang]
        super().__init__(vocab, texts, seq_len, mask_rate, policy)

    def batch(self, rng: np.random.Generator, batch_size: int) -> MlmBatch:
        rows = np.empty(batch_size, dtype=np.int64)
        for i in range(batch_size):
            lang = sample_language(self.mixture, rng)
            rows[i] = rng.choice(self.by_lang[lang])
        return self._masked_batch(rows, rng)


class PairSource:
    """Deterministic (query, doc) batch stream; row i's positive is doc i."""

    def __init__(self, vocab: Vocab, pairs: list[PairRecord],
                 query_len: int, doc_len: int):
        if not pairs:
            raise CorpusError("PairSource requires at least one pair")
        self.pairs = pairs
        self.queries = [encode_sequence(vocab, p.query, query_len) for p in pairs]
        self.docs = [encode_sequence(vocab, p.doc, doc_len) for p in pairs]

    def batch(self, rng: np.random.Generator, batch_size: int) -> PairBatch:
        n = len(self.pairs)
        if batch_size <= n:
            rows = rng.choice(n, size=batch_size, replace=False)
        else:
            rows = rng.integers(0, n, size=batch_size)
        query_ids, query_lengths = pack([self.queries[r] for r in rows])
        doc_ids, doc_lengths = pack([self.docs[r] for r in rows])
        return PairBatch(query_ids=query_ids, query_lengths=query_lengths,
                         doc_ids=doc_ids, doc_lengths=doc_lengths)
