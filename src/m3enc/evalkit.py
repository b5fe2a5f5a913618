"""Exact-search retrieval evaluation of a list of (layer, dim) cells.

``evaluate`` scores any list of cells -- one, a sweep's axis or a whole
grid -- and gives one ``EvalReport`` per cell. ``encode_corpus`` keeps each
requested layer's full-width pooled rows from one early-exit forward per
batch; a cell's unit rows are sliced from them (``cell_rows``), never
encoded again, so ``evaluate`` encodes the docs once and the queries once
whatever the number of cells. A layer-``l`` cell costs ``l`` blocks per
text, the cost proxy of a layer sweep. Queries are ranked against the whole
document pool by inner product (cosine, since rows are unit norm) with
id-order tie-breaking; Recall@K counts the queries whose single positive
document lands in the top K. ``read_eval_pairs`` numbers a pair corpus's
docs as ``evaluate`` does, and ``write_curve_files`` writes a sweep's
reports as one recall curve per K.

Search is exact in two passes: a float32 GEMM per block of queries selects
every row within a derived float32 error margin of a lower bound on the K-th
best score, and only those candidates are re-scored in float64 and ordered by
(-score, id). The bound is the K-th largest of the maxima of disjoint column
groups, so only n_docs/g values per query are partitioned, not n_docs. Each
block's candidates are laid out as one padded row matrix, re-scored by
broadcasting each query over its rows and ordered by one sort per block, so
no array operation is made per query.

Each query's result is a ``Ranking``: an iterable of (id, float score)
pairs, best first, over one row of its block's [Q x K] index rows and
float64 scores. The ids are looked up only when it is iterated, so a search
holds 16 bytes per hit, an ``intp`` row and a float64 score, and no id.
``recall_at_k`` reads no pair and no id: it maps each positive to its row
once and compares each block's [Q x K] rows with them in one array
operation.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import encoder as enc
from . import tensor as T
from .data import Vocab, dedup_pairs, encode_sequence, ingest_pairs, pack
from .encoder import ModelConfig, Parameters
from .errors import ConfigError, ContractError, NumericsError, ShapeError
from .tensor import Tensor

# queries scored per float32 GEMM; the scores are this x n_docs float32 and
# the partitioned group maxima this x n_docs/g, whatever the number of queries
_QUERY_BLOCK = 128
# candidate rows re-scored per float64 chunk: a chunk takes queries while their
# count times its widest candidate run stays within this, and at least one
_RESCORE_ROWS = 1024
_ENCODE_BATCH = 64  # texts per encoder forward
_doc_id = "d{:06d}".format  # the id of the i-th distinct document

log = logging.getLogger("m3enc.evalkit")


@dataclass
class EmbeddingIndex:
    ids: tuple[str, ...]
    embeddings: np.ndarray  # [n_docs x d] float32, unit rows
    provenance: dict

    def __post_init__(self):
        e = self.embeddings
        if e.ndim != 2:
            raise ShapeError(f"embeddings must be [n_docs x d], got shape {e.shape}")
        if e.dtype != np.float32:
            raise ContractError(f"embeddings must be float32, got {e.dtype}")
        if len(self.ids) != e.shape[0]:
            raise ShapeError("id count does not match embedding rows")
        if len(set(self.ids)) != len(self.ids):
            raise ContractError("document ids must be unique")
        # float64 sums of squares, without a float64 copy of the index
        norms = np.sqrt(np.einsum("ij,ij->i", e, e, dtype=np.float64))
        if not np.isfinite(norms).all():
            raise NumericsError("index rows must be finite")
        if not (np.abs(norms - 1.0) <= 1e-6).all():
            raise ContractError("index rows must be unit-norm within 1e-6")

    @functools.cached_property
    def _id_rank(self) -> np.ndarray:
        """Each row's position in ascending id order; computed once per index."""
        rank = np.empty(len(self.ids), dtype=np.intp)
        rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = np.arange(len(self.ids))
        rank.setflags(write=False)
        return rank

    @functools.cached_property
    def _row_of(self) -> dict[str, int]:
        """Each id's row; built on first use, by iterating the ids."""
        return dict(zip(self.ids, range(len(self.ids))))

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


@dataclass
class EvalReport:
    recalls: dict[int, float]
    n_queries: int
    layer: int
    dim: int
    encode_ms: float
    search_ms: float
    index_bytes: int
    clamped_k: bool = False


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_corpus(
    params: Parameters,
    config: ModelConfig,
    vocab: Vocab,
    texts: list[str],
    layers: tuple[int, ...],
    seq_len: int | None = None,
) -> dict[int, np.ndarray]:
    """Full-width pooled rows of every text at each of ``layers``, in the model
    dtype, from one early-exit forward per batch. Each text is framed and cut
    to at most ``seq_len`` ids (default ``max_seq``), and each batch of texts
    is packed, so no padding position is encoded."""
    if not texts:
        raise ContractError("encode_corpus requires a non-empty corpus")
    seq_len = config.max_seq if seq_len is None else seq_len
    pooled: dict[int, list[np.ndarray]] = {l: [] for l in layers}
    with T.no_grad():
        for start in range(0, len(texts), _ENCODE_BATCH):
            ids, lengths = pack([encode_sequence(vocab, t, seq_len)
                                 for t in texts[start:start + _ENCODE_BATCH]])
            states = enc.forward(params, config, ids, lengths, taps=tuple(layers))
            for l in layers:
                pooled[l].append(enc.pool(states[l], lengths).data)
    return {l: np.concatenate(rows) for l, rows in pooled.items()}


def cell_rows(pooled: np.ndarray, dim: int) -> np.ndarray:
    """One dim's cell embedding of each pooled row, cast to float32 and
    renormalized there (float32 rounding can leave norms a hair off 1)."""
    rows = enc.cell_embedding(Tensor(pooled), dim).data.astype(np.float32)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


# ---------------------------------------------------------------------------
# Search and recall
# ---------------------------------------------------------------------------


class Ranking:
    """One query's top K, best first: iterating it gives (doc id, float
    score) pairs.

    ``rows`` and ``scores`` are its block's [Q x K] ``intp`` index rows and
    float64 scores; this ranking is row ``q`` of them. The ids are looked up
    in ``index.ids`` at each iteration, so a ranking can be read any number
    of times. ``recall_at_k`` reads the block's rows directly and looks up
    no id.
    """

    __slots__ = ("_index", "_rows", "_scores", "_q")

    def __init__(self, index: EmbeddingIndex, rows: np.ndarray, scores: np.ndarray, q: int):
        self._index, self._rows, self._scores, self._q = index, rows, scores, q

    def __iter__(self):
        ids = self._index.ids
        return zip([ids[r] for r in self._rows[self._q].tolist()],
                   self._scores[self._q].tolist())


def _rankings(index: EmbeddingIndex, rows: np.ndarray, scores: np.ndarray) -> list[Ranking]:
    """One ``Ranking`` per row of a block's [Q x K] index rows and scores."""
    return [Ranking(index, rows, scores, q) for q in range(len(rows))]


def _candidates(q32: np.ndarray, emb: np.ndarray, k: int, margin: np.ndarray):
    """A block's candidates: row i of the padded [Q x W] ``rows`` holds query
    i's candidate index rows in ascending order, ``valid`` marks them, and
    ``counts`` gives their number. Pad entries point at row 0."""
    n_docs = len(emb)
    n_groups = n_docs // max(1, min(10, n_docs // (10 * k)))
    whole = n_docs - n_docs % n_groups
    scores = q32 @ emb.T
    # group j holds columns j, j + n_groups, j + 2 * n_groups, ...
    bound = scores[:, :whole].reshape(len(scores), -1, n_groups).max(axis=1)
    tail = n_docs - whole
    np.maximum(bound[:, :tail], scores[:, whole:], out=bound[:, :tail])
    bound.partition(n_groups - k, axis=1)
    floor = (bound[:, n_groups - k] - margin).astype(scores.dtype)
    cand = np.flatnonzero(scores >= floor[:, None])
    counts = np.bincount(cand // n_docs, minlength=len(scores))
    valid = np.arange(counts.max()) < counts[:, None]
    rows = np.zeros(valid.shape, dtype=np.intp)
    rows[valid] = cand % n_docs
    return rows, valid, counts


def _chunks(counts: list[int]):
    """(first, end, width) of each run of queries re-scored together: a run
    takes queries while their number times its largest candidate count stays
    within ``_RESCORE_ROWS``, and always at least one."""
    a = 0
    while a < len(counts):
        b, width = a + 1, counts[a]
        while b < len(counts) and (b + 1 - a) * max(width, counts[b]) <= _RESCORE_ROWS:
            width = max(width, counts[b])
            b += 1
        yield a, b, width
        a = b


def _exact_scores(emb: np.ndarray, rows: np.ndarray, q64: np.ndarray) -> np.ndarray:
    """The [c x w] float64 scores of each of c queries' w rows. float32 rows
    widen exactly, and each row's pairwise float64 sum does not depend on
    where the row sits, unlike a BLAS tile, so twins score bit-identically."""
    prod = emb[rows].astype(np.float64)
    prod *= q64[:, None, :]
    return prod.sum(axis=2)


def exact_topk(index: EmbeddingIndex, query_emb: np.ndarray, k: int) -> list[Ranking]:
    """Exhaustive inner-product ranking; ties broken by ascending doc id.

    Returns, per query, a ``Ranking`` that iterates the K (id, score) pairs
    in descending score order, with float64 scores. K larger than the pool
    clamps with a warning; an empty index gives empty rankings. Each block
    of queries gives one [Q x K] array of index rows and one of float64
    scores, and its rankings hold those arrays and the index: no id, no
    per-hit object and no per-query view is made here. The ids are looked
    up when a ranking is iterated.

    Each block of queries is scored by one float32 GEMM. Its columns fall
    into ``G = n_docs // g`` disjoint strided groups (columns j, j + G,
    j + 2G, ...), and the K-th largest group maximum is a lower bound on the
    K-th largest float32 score: the K largest maxima sit in K distinct
    columns, so at least K scores reach it. ``g = min(10, n_docs // (10 K))``
    (at least 1) keeps G >= 10 K whenever g > 1; with fewer groups the
    bound falls far below the K-th score and the candidate set grows. g = 1
    partitions every score. The group maxima are one reduction over the
    first ``g * G`` columns, with the remaining columns folded in after.

    A row is a candidate when its float32 score is within
    ``(d + 2) * eps_f32 * |q|`` of that bound. A float32 score of a unit row
    is off its exact value by at most ``(d + 1) * eps_f32 / 2 * |q|``, so the
    margin covers twice that error plus the rounding of the threshold
    itself: every document of the exact top K, and every bit-identical twin
    of one, is a candidate. Only candidates are re-scored in float64: each
    query's candidates are one row of a padded [Q x W] row matrix, and each
    float64 score is the pairwise sum of one row's products with its query,
    so twins get bit-identical scores. The rows are scored a few queries at
    a time (``_RESCORE_ROWS``), so a query with thousands of tied candidates
    is scored alone. Pad entries score -inf, so they sort after every
    candidate, and one sort per block orders each row by (-score, id), cut
    to K. Exact ties therefore come back in ascending id order, also across
    the cut-off. Queries that are not finite in float32 raise
    ``NumericsError``.
    """
    if k < 1:
        raise ConfigError("K must be at least 1")
    query_emb = np.asarray(query_emb)
    if query_emb.ndim != 2 or query_emb.shape[1] != index.dim:
        raise ShapeError(f"query dim {query_emb.shape} does not match index dim {index.dim}")
    n_docs = len(index.ids)
    if k > n_docs:
        log.warning("K=%d exceeds pool size %d; clamping", k, n_docs)
        k = n_docs
    q64 = query_emb.astype(np.float64)
    if k == 0:  # empty index
        return _rankings(index, np.empty((len(q64), 0), dtype=np.intp), np.empty((len(q64), 0)))
    q32 = q64.astype(np.float32)
    if not np.isfinite(q32).all():
        raise NumericsError("query embeddings must be finite in float32")
    margin = (index.dim + 2) * np.finfo(np.float32).eps * np.linalg.norm(q64, axis=1)
    emb, id_rank = index.embeddings, index._id_rank
    out = []
    for start in range(0, len(q64), _QUERY_BLOCK):
        block = slice(start, start + _QUERY_BLOCK)
        rows, valid, counts = _candidates(q32[block], emb, k, margin[block])
        neg = np.empty(rows.shape)  # each candidate's -score; +inf at a pad
        qb = q64[block]
        for a, b, width in _chunks(counts.tolist()):
            np.negative(_exact_scores(emb, rows[a:b, :width], qb[a:b]), out=neg[a:b, :width])
        neg[~valid] = np.inf  # pads sort after every candidate
        top = np.lexsort((id_rank[rows], neg), axis=1)[:, :k]
        out += _rankings(index, np.take_along_axis(rows, top, axis=1),
                         -np.take_along_axis(neg, top, axis=1))
    return out


def recall_at_k(rankings: Sequence[Ranking], truth: Sequence[str], k: int) -> float:
    """Fraction of queries whose positive document appears in their top K.

    ``rankings`` are ``exact_topk``'s. Each positive is mapped to its row in
    its ranking's index once (a positive not in the index maps to -1, a
    miss), and each run of consecutive rankings over one block's [Q x K]
    row array is scored in one comparison of the rows' first K entries with
    their positives' rows; rankings interleaved from several blocks only
    make more runs. No ranking's id is looked up. A K beyond the rankings'
    length reads them whole."""
    if k < 1:
        raise ConfigError("K must be at least 1")
    if len(rankings) != len(truth):
        raise ShapeError(f"{len(rankings)} rankings vs {len(truth)} ground-truth entries")
    if not rankings:
        raise ContractError("recall_at_k requires at least one query")
    if any(positive is None for positive in truth):
        raise ContractError("query without a ground-truth positive")
    if not all(isinstance(r, Ranking) for r in rankings):
        raise ContractError("recall_at_k scores exact_topk's rankings")
    hits, start = 0, 0
    # keyed by the array's identity: groupby compares keys with ==
    for _, run in itertools.groupby(rankings, key=lambda r: id(r._rows)):
        run = list(run)
        row_of = run[0]._index._row_of
        try:
            positives = np.array([row_of.get(p, -1) for p in truth[start:start + len(run)]],
                                 dtype=np.intp)
        except TypeError as e:
            raise ContractError(f"ground-truth positives must be hashable ids: {e}") from None
        top = run[0]._rows[[r._q for r in run], :k]
        hits += int((top == positives[:, None]).any(axis=1).sum())
        start += len(run)
    return hits / len(rankings)


def read_eval_pairs(path) -> tuple[list[str], list[str], list[str]]:
    """The queries, distinct docs and each query's positive doc id of a
    deduplicated pair corpus. Docs are numbered in order of first
    appearance, as ``evaluate`` numbers its docs."""
    records = dedup_pairs(ingest_pairs(path))
    position: dict[str, int] = {}
    for rec in records:
        position.setdefault(rec.doc, len(position))
    return ([rec.query for rec in records], list(position),
            [_doc_id(position[rec.doc]) for rec in records])


def evaluate(
    params: Parameters,
    config: ModelConfig,
    vocab: Vocab,
    queries: list[str],
    docs: list[str],
    truth: list[str],
    cells: Sequence[tuple[int, int]],
    ks: list[int],
    query_len: int | None = None,
    doc_len: int | None = None,
) -> list[EvalReport]:
    """Encode, search, and score each (layer, dim) cell end to end: one report
    per cell, in the order of ``cells``.

    The docs are encoded once and the queries once, at every layer the cells
    name; each cell's index and query rows are sliced from those pooled rows.
    Queries are cut to at most ``query_len`` tokens and documents to
    ``doc_len``; either cap defaults to the model's ``max_seq``.
    """
    if not all(1 <= dim <= config.hidden for _, dim in cells):  # the encoder checks layers
        raise ConfigError(f"dims {[d for _, d in cells]} must lie in [1, {config.hidden}]")
    t0 = time.perf_counter()
    layers = tuple(sorted({layer for layer, _ in cells}))
    doc_pooled = encode_corpus(params, config, vocab, docs, layers, seq_len=doc_len)
    query_pooled = encode_corpus(params, config, vocab, queries, layers, seq_len=query_len)
    encode_ms = (time.perf_counter() - t0) * 1e3
    ids = tuple(map(_doc_id, range(len(docs))))
    k_max = max(ks)
    reports = []
    for layer, dim in cells:
        index = EmbeddingIndex(ids=ids, embeddings=cell_rows(doc_pooled[layer], dim),
                               provenance={"layer": layer, "dim": dim})
        q_rows = cell_rows(query_pooled[layer], dim)
        t1 = time.perf_counter()
        rankings = exact_topk(index, q_rows, k_max)
        search_ms = (time.perf_counter() - t1) * 1e3
        recalls = {k: recall_at_k(rankings, truth, k) for k in sorted(ks)}
        reports.append(EvalReport(recalls=recalls, n_queries=len(queries), layer=layer,
                                  dim=dim, encode_ms=encode_ms, search_ms=search_ms,
                                  index_bytes=index.embeddings.nbytes, clamped_k=k_max > len(ids)))
    return reports


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def write_report_files(report: EvalReport, json_path, csv_path) -> None:
    record = asdict(report) | {"recalls": {str(k): v for k, v in report.recalls.items()}}
    Path(json_path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    lines = ["k,recall"]
    for k, r in sorted(report.recalls.items()):
        lines.append(f"{k},{r}")
    Path(csv_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_curve_files(axis: str, reports: list[EvalReport], json_path, csv_path) -> None:
    """One curve per K over the swept cells' reports, in their order. A point's
    cost proxy is bytes/doc (4*d) on the dim axis and executed layers on the
    layer axis."""
    curves = [{"axis": axis, "k": k, "points": [
        {"axis_value": getattr(r, axis), "recall": r.recalls[k],
         "cost_proxy": 4 * r.dim if axis == "dim" else r.layer} for r in reports]}
        for k in sorted(reports[0].recalls)]
    Path(json_path).write_text(json.dumps(curves, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    lines = ["axis_value,K,recall,cost_proxy"]
    for c in curves:
        for p in c["points"]:
            lines.append(f"{p['axis_value']},{c['k']},{p['recall']},{p['cost_proxy']}")
    Path(csv_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
