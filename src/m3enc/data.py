"""Corpus handling: vocabulary, MLM masking, multilingual smoothing,
query-document pair ingestion, and deterministic batch assembly.

File formats understood here:

* monolingual corpus: UTF-8 plain text, one document per line
* multilingual corpus: UTF-8 TSV, ``lang<TAB>text``
* pair corpus: UTF-8 TSV, ``query<TAB>doc[<TAB>timestamp-iso8601]``

All readers reject non-UTF-8 bytes with a positioned error.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, CorpusError

PAD, UNK, CLS, SEP, MASK = "<pad>", "<unk>", "<cls>", "<sep>", "<mask>"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)

# label value for positions that do not contribute to the MLM loss
IGNORE_INDEX = -1

MASK_POLICIES = ("mask_only", "bert_80_10_10")


# ---------------------------------------------------------------------------
# Vocabulary and tokenization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocab:
    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def unk_id(self) -> int:
        return 1

    @property
    def cls_id(self) -> int:
        return 2

    @property
    def sep_id(self) -> int:
        return 3

    @property
    def mask_id(self) -> int:
        return 4

    @property
    def special_ids(self) -> tuple[int, ...]:
        return (self.pad_id, self.unk_id, self.cls_id, self.sep_id, self.mask_id)


def build_vocab(lines, max_size: int) -> Vocab:
    """Frequency-ranked whitespace vocabulary with the special tokens first.

    Ties in frequency are broken lexicographically so the mapping is
    deterministic. Out-of-vocabulary words map to ``<unk>`` at tokenize time.
    """
    if max_size <= len(SPECIAL_TOKENS):
        raise ConfigError(f"max_size must exceed the {len(SPECIAL_TOKENS)} special tokens")
    counts: Counter[str] = Counter()
    for line in lines:
        counts.update(line.split())
    if not counts:
        raise CorpusError("empty corpus: no tokens found")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - len(SPECIAL_TOKENS)]]
    id_to_token = tuple(SPECIAL_TOKENS) + tuple(keep)
    return Vocab(id_to_token=id_to_token,
                 token_to_id={t: i for i, t in enumerate(id_to_token)})


def tokenize(vocab: Vocab, text: str) -> list[int]:
    unk = vocab.unk_id
    return [vocab.token_to_id.get(tok, unk) for tok in text.split()]


def encode_sequence(vocab: Vocab, text: str, seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame as ``<cls> tokens... <sep>`` then pad/truncate to ``seq_len``.

    Returns (ids, attn_mask) with attn_mask true on real positions.
    """
    if seq_len < 3:
        raise ConfigError("seq_len must be at least 3 (cls + token + sep)")
    body = tokenize(vocab, text)[: seq_len - 2]
    ids = [vocab.cls_id] + body + [vocab.sep_id]
    mask = [True] * len(ids)
    while len(ids) < seq_len:
        ids.append(vocab.pad_id)
        mask.append(False)
    return np.array(ids, dtype=np.int64), np.array(mask, dtype=bool)


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


@dataclass(frozen=True)
class LanguageMixture:
    raw: dict[str, float]
    smoothing: float
    smoothed: dict[str, float]

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self.smoothed))


def smooth_mixture(proportions: dict[str, float], smoothing: float) -> LanguageMixture:
    """Exponential language smoothing: P'(L) = P(L)^S / sum_K P(K)^S.

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
    langs = list(proportions.keys())
    powered = np.where(values > 0, values ** smoothing, 0.0)
    powered /= powered.sum()
    smoothed = {lang: float(p) for lang, p in zip(langs, powered)}
    return LanguageMixture(raw=dict(proportions), smoothing=float(smoothing), smoothed=smoothed)


def sample_language(mixture: LanguageMixture, rng: np.random.Generator) -> str:
    langs = mixture.languages
    probs = np.array([mixture.smoothed[l] for l in langs], dtype=np.float64)
    probs /= probs.sum()
    return str(rng.choice(np.array(langs, dtype=object), p=probs))


# ---------------------------------------------------------------------------
# Pair ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairRecord:
    query: str
    doc: str
    timestamp: datetime | None
    line_no: int

    @property
    def pair_id(self) -> str:
        return f"line{self.line_no}"


@dataclass
class PairStore:
    records: list[PairRecord]
    skipped: list[tuple[int, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


def _decode_lines(path) -> list[str]:
    raw = Path(path).read_bytes()
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


def ingest_pairs(path, max_malformed_fraction: float = 0.10) -> PairStore:
    """Load ``query<TAB>doc[<TAB>timestamp]`` pairs.

    Malformed lines are recorded with their line number and skipped; if more
    than ``max_malformed_fraction`` of non-blank lines are malformed the
    whole ingest aborts.
    """
    records: list[PairRecord] = []
    skipped: list[tuple[int, str]] = []
    n_lines = 0
    for i, line in enumerate(_decode_lines(path), start=1):
        if not line.strip():
            continue
        n_lines += 1
        parts = line.split("\t")
        if len(parts) not in (2, 3) or not parts[0].strip() or not parts[1].strip():
            skipped.append((i, "expected 'query<TAB>doc[<TAB>timestamp]'"))
            continue
        ts = None
        if len(parts) == 3:
            try:
                ts = datetime.fromisoformat(parts[2].strip())
            except ValueError:
                skipped.append((i, f"bad timestamp {parts[2].strip()!r}"))
                continue
        records.append(PairRecord(query=parts[0].strip(), doc=parts[1].strip(),
                                  timestamp=ts, line_no=i))
    if n_lines == 0:
        raise CorpusError(f"{path}: no pairs found")
    if len(skipped) > max_malformed_fraction * n_lines:
        raise CorpusError(
            f"{path}: {len(skipped)}/{n_lines} malformed lines exceeds "
            f"{max_malformed_fraction:.0%}; first: line {skipped[0][0]} ({skipped[0][1]})")
    return PairStore(records=records, skipped=skipped)


def dedup_pairs(store: PairStore) -> PairStore:
    """Drop exact (query, doc) duplicates, keeping the first occurrence."""
    seen: set[tuple[str, str]] = set()
    kept = []
    for rec in store.records:
        key = (rec.query, rec.doc)
        if key in seen:
            continue
        seen.add(key)
        kept.append(rec)
    return PairStore(records=kept, skipped=list(store.skipped))


def cap_per_query(store: PairStore, cap: int) -> PairStore:
    """Keep at most ``cap`` pairs per distinct query, first-come."""
    if cap < 1:
        raise ContractError("cap must be at least 1")
    counts: dict[str, int] = {}
    kept = []
    for rec in store.records:
        n = counts.get(rec.query, 0)
        if n >= cap:
            continue
        counts[rec.query] = n + 1
        kept.append(rec)
    return PairStore(records=kept, skipped=list(store.skipped))


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


@dataclass
class MlmBatch:
    tokens: np.ndarray        # [B x s] ids after masking
    attn_mask: np.ndarray     # [B x s] true on real positions
    labels: np.ndarray        # [B x s] original ids where masked, else IGNORE_INDEX
    mask_positions: np.ndarray  # [B x s] bool

    def __post_init__(self):
        lab_defined = self.labels != IGNORE_INDEX
        if not np.array_equal(lab_defined, self.mask_positions):
            raise ContractError("labels must be defined exactly at masked positions")


@dataclass
class PairBatch:
    query_tokens: np.ndarray
    query_mask: np.ndarray
    doc_tokens: np.ndarray
    doc_mask: np.ndarray
    pair_ids: tuple[str, ...]

    @property
    def size(self) -> int:
        return self.query_tokens.shape[0]


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
        encoded = [encode_sequence(vocab, t, seq_len) for t in texts]
        self.ids = np.stack([e[0] for e in encoded])
        self.attn = np.stack([e[1] for e in encoded])

    def _mask_rows(self, ids: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        tokens = np.empty_like(ids)
        labels = np.empty_like(ids)
        for i in range(ids.shape[0]):
            tokens[i], labels[i] = mask_tokens(self.vocab, ids[i], self.mask_rate,
                                               self.policy, rng)
            if (labels[i] == IGNORE_INDEX).all():
                protected = [self.vocab.pad_id, self.vocab.cls_id, self.vocab.sep_id]
                eligible = np.flatnonzero(~np.isin(ids[i], protected))
                pos = int(rng.choice(eligible))
                labels[i, pos] = ids[i, pos]
                tokens[i, pos] = self.vocab.mask_id
        return tokens, labels

    def batch(self, rng: np.random.Generator, batch_size: int) -> MlmBatch:
        rows = rng.integers(0, self.ids.shape[0], size=batch_size)
        tokens, labels = self._mask_rows(self.ids[rows], rng)
        return MlmBatch(tokens=tokens, attn_mask=self.attn[rows], labels=labels,
                        mask_positions=labels != IGNORE_INDEX)


class MultilingualMlmSource(MlmSource):
    """MLM batches where each row's language is drawn from a smoothed mixture."""

    def __init__(self, vocab: Vocab, groups: dict[str, list[str]], seq_len: int,
                 mask_rate: float, smoothing: float, policy: str = "bert_80_10_10"):
        if not groups:
            raise CorpusError("MultilingualMlmSource requires at least one language")
        total = sum(len(v) for v in groups.values())
        raw = {lang: len(v) / total for lang, v in groups.items()}
        self.mixture = smooth_mixture(raw, smoothing)
        self.by_lang = {}
        all_texts = []
        for lang in sorted(groups):
            idx = []
            for t in groups[lang]:
                idx.append(len(all_texts))
                all_texts.append(t)
            self.by_lang[lang] = np.array(idx)
        super().__init__(vocab, all_texts, seq_len, mask_rate, policy)

    def batch(self, rng: np.random.Generator, batch_size: int) -> MlmBatch:
        rows = np.empty(batch_size, dtype=np.int64)
        for i in range(batch_size):
            lang = sample_language(self.mixture, rng)
            rows[i] = rng.choice(self.by_lang[lang])
        tokens, labels = self._mask_rows(self.ids[rows], rng)
        return MlmBatch(tokens=tokens, attn_mask=self.attn[rows], labels=labels,
                        mask_positions=labels != IGNORE_INDEX)


class PairSource:
    """Deterministic (query, doc) batch stream; row i's positive is doc i."""

    def __init__(self, vocab: Vocab, pairs: list[PairRecord],
                 query_len: int, doc_len: int):
        if not pairs:
            raise CorpusError("PairSource requires at least one pair")
        self.pairs = pairs
        q = [encode_sequence(vocab, p.query, query_len) for p in pairs]
        d = [encode_sequence(vocab, p.doc, doc_len) for p in pairs]
        self.q_ids = np.stack([e[0] for e in q])
        self.q_attn = np.stack([e[1] for e in q])
        self.d_ids = np.stack([e[0] for e in d])
        self.d_attn = np.stack([e[1] for e in d])

    def batch(self, rng: np.random.Generator, batch_size: int) -> PairBatch:
        n = len(self.pairs)
        if batch_size <= n:
            rows = rng.choice(n, size=batch_size, replace=False)
        else:
            rows = rng.integers(0, n, size=batch_size)
        return PairBatch(
            query_tokens=self.q_ids[rows], query_mask=self.q_attn[rows],
            doc_tokens=self.d_ids[rows], doc_mask=self.d_attn[rows],
            pair_ids=tuple(self.pairs[int(r)].pair_id for r in rows),
        )
