"""Exact-search retrieval evaluation and dimension/layer trade-off sweeps.

Corpus texts are encoded through a chosen (layer, dim) tap of the model,
pooled, truncated, and L2-normalized; queries are ranked against the whole
document pool by inner product (cosine, since rows are unit norm) with
deterministic id-order tie-breaking. Recall@K counts the queries whose
single positive document lands in the top K.

Search is exact in two passes: a float32 GEMM per block of queries selects
every row within a derived float32 error margin of the K-th best score, and
only those candidates are re-scored in float64 and ordered by (-score, id).

Index file layout: magic ``M3IX``, little-endian u32 version, one line of
UTF-8 JSON manifest (d, n_docs, provenance), the id table (one UTF-8 line
per document), then raw little-endian float32 rows.
"""

from __future__ import annotations

import json
import logging
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import encoder as enc
from . import tensor as T
from .data import Vocab, encode_sequence
from .encoder import ModelConfig, Parameters
from .errors import CheckpointError, ConfigError, ContractError, NumericsError, ShapeError

INDEX_MAGIC = b"M3IX"
INDEX_VERSION = 1

# queries scored per float32 GEMM; the scores and their partitioned copy are
# this x n_docs float32 each, whatever the number of queries
_QUERY_BLOCK = 128

log = logging.getLogger("m3enc.evalkit")


@dataclass
class EmbeddingIndex:
    ids: tuple[str, ...]
    embeddings: np.ndarray  # [n_docs x d] float32, unit rows
    provenance: dict

    def __post_init__(self):
        if len(self.ids) != self.embeddings.shape[0]:
            raise ShapeError("id count does not match embedding rows")
        if len(set(self.ids)) != len(self.ids):
            raise ContractError("document ids must be unique")
        norms = np.linalg.norm(self.embeddings.astype(np.float64), axis=1)
        if len(norms) and np.abs(norms - 1.0).max() > 1e-6:
            raise ContractError("index rows must be unit-norm within 1e-6")

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def storage_bytes(self) -> int:
        return self.embeddings.shape[0] * self.dim * 4


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

    def to_dict(self) -> dict:
        return {
            "recalls": {str(k): v for k, v in sorted(self.recalls.items())},
            "n_queries": self.n_queries, "layer": self.layer, "dim": self.dim,
            "encode_ms": self.encode_ms, "search_ms": self.search_ms,
            "index_bytes": self.index_bytes, "clamped_k": self.clamped_k,
        }


@dataclass
class TradeoffCurve:
    axis: str  # "dim" or "layer"
    k: int
    points: list[dict]  # {"axis_value", "recall", "cost_proxy"}

    def __post_init__(self):
        xs = [p["axis_value"] for p in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ContractError("trade-off curve x-axis must be strictly increasing")


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_corpus(
    params: Parameters,
    config: ModelConfig,
    vocab: Vocab,
    texts: list[str],
    layer: int,
    dim: int,
    batch_size: int = 64,
    seq_len: int | None = None,
    ids: list[str] | None = None,
    provenance: dict | None = None,
) -> EmbeddingIndex:
    """Pooled, truncated, unit-norm embeddings for every text, as float32."""
    if not texts:
        raise ContractError("encode_corpus requires a non-empty corpus")
    if not (1 <= layer <= config.n_layers):
        raise ConfigError(f"layer {layer} outside [1, {config.n_layers}]")
    if not (1 <= dim <= config.hidden):
        raise ConfigError(f"dim {dim} outside [1, {config.hidden}]")
    if ids is None:
        ids = [f"d{i:06d}" for i in range(len(texts))]
    if seq_len is None:
        seq_len = config.max_seq
    rows = np.empty((len(texts), dim), dtype=np.float32)
    with T.no_grad():
        for start in range(0, len(texts), batch_size):
            chunk = texts[start:start + batch_size]
            encoded = [encode_sequence(vocab, t, seq_len) for t in chunk]
            tokens = np.stack([e[0] for e in encoded])
            mask = np.stack([e[1] for e in encoded])
            out = enc.forward(params, config, tokens, mask, taps=(layer,))
            emb = enc.pool(out.tapped_states[layer], mask, dim)
            rows[start:start + len(chunk)] = emb.data.astype(np.float32)
    # float32 rounding can leave norms a hair off 1; renormalize in f32
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    prov = {"layer": layer, "dim": dim}
    if provenance:
        prov.update(provenance)
    return EmbeddingIndex(ids=tuple(ids), embeddings=rows, provenance=prov)


# ---------------------------------------------------------------------------
# Search and recall
# ---------------------------------------------------------------------------


def exact_topk(index: EmbeddingIndex, query_emb: np.ndarray, k: int) -> list[list[tuple[str, float]]]:
    """Exhaustive inner-product ranking; ties broken by ascending doc id.

    Returns, per query, the K (id, score) pairs in descending score order,
    with float64 scores. K larger than the pool clamps with a warning.

    Each block of queries is scored by one float32 GEMM. A row is a
    candidate when its float32 score is within ``(d + 2) * eps_f32 * |q|``
    of the K-th largest float32 score. A float32 score of a unit row is off
    its exact value by at most ``(d + 1) * eps_f32 / 2 * |q|``, so the margin
    covers twice that error plus the rounding of the threshold itself: every
    document of the exact top K, and every bit-identical twin of one, is a
    candidate. Only candidates are re-scored in float64, row by row, so
    twins get bit-identical scores; they are ordered by (-score, id) and
    cut to K. Exact ties therefore come back in ascending id order, also
    across the cut-off. Queries that are not finite in float32 raise
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
        return [[] for _ in q64]
    q32 = q64.astype(np.float32)
    if not np.isfinite(q32).all():
        raise NumericsError("query embeddings must be finite in float32")
    margin = (index.dim + 2) * np.finfo(np.float32).eps * np.linalg.norm(q64, axis=1)
    emb, ids = index.embeddings, index.ids
    out = []
    for start in range(0, len(q64), _QUERY_BLOCK):
        scores = q32[start:start + _QUERY_BLOCK] @ emb.T
        kth = np.partition(scores, n_docs - k, axis=1)[:, n_docs - k]
        floor = (kth - margin[start:start + _QUERY_BLOCK]).astype(scores.dtype)
        qi, cand = np.divmod(np.flatnonzero(scores >= floor[:, None]), n_docs)
        bounds = np.searchsorted(qi, np.arange(len(scores) + 1))
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]), start):
            # float32 rows widen exactly; the float64 row sums do not depend on
            # where a row sits, unlike a BLAS tile, so twins score bit-identically
            exact = (emb[cand[a:b]] * q64[i]).sum(axis=1)
            ranked = sorted(zip((-exact).tolist(), [ids[j] for j in cand[a:b].tolist()]))
            out.append([(doc_id, -neg) for neg, doc_id in ranked[:k]])
    return out


def recall_at_k(rankings: list[list[tuple[str, float]]], truth: list[str], k: int) -> float:
    """Fraction of queries whose positive document appears in their top K."""
    if len(rankings) != len(truth):
        raise ShapeError(f"{len(rankings)} rankings vs {len(truth)} ground-truth entries")
    if not rankings:
        raise ContractError("recall_at_k requires at least one query")
    hits = 0
    for ranked, positive in zip(rankings, truth):
        if positive is None:
            raise ContractError("query without a ground-truth positive")
        if any(doc_id == positive for doc_id, _ in ranked[:k]):
            hits += 1
    return hits / len(rankings)


def evaluate(
    params: Parameters,
    config: ModelConfig,
    vocab: Vocab,
    queries: list[str],
    docs: list[str],
    truth: list[str],
    layer: int,
    dim: int,
    ks: list[int],
    doc_ids: list[str] | None = None,
    query_len: int | None = None,
    doc_len: int | None = None,
    batch_size: int = 64,
) -> EvalReport:
    """Encode, search, and score one (layer, dim) cell end to end.

    Queries are padded or cut to ``query_len`` tokens and documents to
    ``doc_len``; either defaults to the model's ``max_seq``.
    """
    t0 = time.perf_counter()
    index = encode_corpus(params, config, vocab, docs, layer, dim,
                          batch_size=batch_size, seq_len=doc_len, ids=doc_ids)
    q_index = encode_corpus(params, config, vocab, queries, layer, dim,
                            batch_size=batch_size, seq_len=query_len,
                            ids=[f"q{i}" for i in range(len(queries))])
    encode_ms = (time.perf_counter() - t0) * 1e3
    k_max = max(ks)
    t1 = time.perf_counter()
    rankings = exact_topk(index, q_index.embeddings, k_max)
    search_ms = (time.perf_counter() - t1) * 1e3
    recalls = {k: recall_at_k(rankings, truth, k) for k in sorted(ks)}
    return EvalReport(recalls=recalls, n_queries=len(queries), layer=layer, dim=dim,
                      encode_ms=encode_ms, search_ms=search_ms,
                      index_bytes=index.storage_bytes,
                      clamped_k=k_max > len(index.ids))


def tradeoff_sweep(
    params: Parameters,
    config: ModelConfig,
    vocab: Vocab,
    queries: list[str],
    docs: list[str],
    truth: list[str],
    axis: str,
    values: list[int],
    ks: list[int],
    layer: int | None = None,
    dim: int | None = None,
) -> tuple[list[TradeoffCurve], list[EvalReport]]:
    """One evaluation per axis value; returns one curve per K.

    The cost proxy is bytes/doc (4*d) on the dim axis and the number of
    executed layers on the layer axis.
    """
    if axis not in ("dim", "layer"):
        raise ConfigError("axis must be 'dim' or 'layer'")
    if sorted(values) != list(values) or len(set(values)) != len(values):
        raise ConfigError("sweep values must be strictly increasing")
    if axis == "dim" and layer is None:
        raise ConfigError("dim sweep requires a fixed --layer")
    if axis == "layer" and dim is None:
        raise ConfigError("layer sweep requires a fixed --dim")
    reports = []
    for value in values:
        l = value if axis == "layer" else layer
        d = value if axis == "dim" else dim
        reports.append(evaluate(params, config, vocab, queries, docs, truth,
                                layer=l, dim=d, ks=ks))
    curves = []
    for k in sorted(ks):
        points = []
        for value, rep in zip(values, reports):
            cost = 4 * rep.dim if axis == "dim" else rep.layer
            points.append({"axis_value": value, "recall": rep.recalls[k],
                           "cost_proxy": cost})
        curves.append(TradeoffCurve(axis=axis, k=k, points=points))
    return curves, reports


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_index(index: EmbeddingIndex, path) -> None:
    manifest = {"d": index.dim, "n_docs": len(index.ids), "provenance": index.provenance}
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(INDEX_MAGIC)
        f.write(struct.pack("<I", INDEX_VERSION))
        f.write(blob)
        f.write(b"\n")
        for doc_id in index.ids:
            f.write(doc_id.encode("utf-8") + b"\n")
        f.write(np.ascontiguousarray(index.embeddings, dtype="<f4").tobytes())


def load_index(path) -> EmbeddingIndex:
    raw = Path(path).read_bytes()
    if len(raw) < 9 or raw[:4] != INDEX_MAGIC:
        raise CheckpointError(f"{path}: not an index file (bad magic)")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != INDEX_VERSION:
        raise CheckpointError(f"{path}: index version {version} unsupported")
    nl = raw.find(b"\n", 8)
    if nl < 0:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[8:nl].decode("utf-8"))
        n_docs, d, provenance = manifest["n_docs"], manifest["d"], manifest["provenance"]
    except (KeyError, TypeError, ValueError) as e:  # JSON and UTF-8 errors are ValueErrors
        raise CheckpointError(f"{path}: unreadable manifest: {e!r}") from e
    if not all(type(v) is int and v >= 0 for v in (n_docs, d)) or not isinstance(provenance, dict):
        raise CheckpointError(f"{path}: manifest needs non-negative integer n_docs and d "
                              "and an object provenance")
    pos = nl + 1
    ids = []
    for _ in range(n_docs):
        end = raw.find(b"\n", pos)
        if end < 0:
            raise CheckpointError(f"{path}: truncated id table")
        try:
            ids.append(raw[pos:end].decode("utf-8"))
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: id {len(ids)} is not UTF-8") from e
        pos = end + 1
    expected = n_docs * d * 4
    payload = raw[pos:]
    if len(payload) != expected:
        raise CheckpointError(f"{path}: embedding payload is {len(payload)} bytes, "
                              f"expected {expected}")
    emb = np.frombuffer(payload, dtype="<f4").reshape(n_docs, d).copy()
    return EmbeddingIndex(ids=tuple(ids), embeddings=emb, provenance=provenance)


def write_report_files(report: EvalReport, json_path, csv_path) -> None:
    Path(json_path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    lines = ["k,recall"]
    for k, r in sorted(report.recalls.items()):
        lines.append(f"{k},{r}")
    Path(csv_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_curve_files(curves: list[TradeoffCurve], json_path, csv_path) -> None:
    payload = [{"axis": c.axis, "k": c.k, "points": c.points} for c in curves]
    Path(json_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
    lines = ["axis_value,K,recall,cost_proxy"]
    for c in curves:
        for p in c.points:
            lines.append(f"{p['axis_value']},{c.k},{p['recall']},{p['cost_proxy']}")
    Path(csv_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
