"""Seeded search inputs and the float64 ranking oracle that checks them.

The index rows are topic-clustered unit vectors; a fixed share of them are
exact copies of other rows, so score ties occur and id tie-breaking runs.
Each query is a noisy copy of one row, whose id is its ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# float32 scoring of unit vectors is exact to well under this; two ranked
# documents whose float64 scores differ by less may come back in either order
NEAR_TIE = 1e-5


@dataclass
class SearchData:
    rows: np.ndarray      # [n x d] float32 unit rows
    ids: list[str]        # zero-padded, so row order is id order
    queries: np.ndarray   # [q x d] float32 unit rows
    truth: list[str]


def _unit(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float32)
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def make_search_data(seed: int, n_rows: int, n_queries: int, dim: int, *,
                     n_topics: int = 64, dup_frac: float = 0.05,
                     spread: float = 0.6, query_noise: float = 0.35) -> SearchData:
    rng = np.random.default_rng([seed, 0x5EA4C4])
    centers = rng.standard_normal((n_topics, dim))
    topic = rng.integers(0, n_topics, size=n_rows)
    rows = _unit(centers[topic] + spread * rng.standard_normal((n_rows, dim)))
    n_dup = int(round(dup_frac * n_rows))
    copies = rng.choice(n_rows, size=n_dup, replace=False)
    sources = rng.choice(np.setdiff1d(np.arange(n_rows), copies), size=n_dup)
    rows[copies] = rows[sources]
    picked = rng.integers(0, n_rows, size=n_queries)
    queries = _unit(rows[picked] + query_noise * rng.standard_normal((n_queries, dim)))
    ids = [f"d{i:06d}" for i in range(n_rows)]
    return SearchData(rows=rows, ids=ids, queries=queries, truth=[ids[i] for i in picked])


def prefix(x: np.ndarray, d: int) -> np.ndarray:
    """The first d coordinates of every row, renormalized in float32."""
    return _unit(x[:, :d])


class Oracle:
    """Exact float64 top-k over one set of index rows.

    Bit-identical rows share one representative, so they get bit-identical
    scores whatever the BLAS kernel does at tile edges.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        _, first, inverse = np.unique(
            np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
            .ravel(), return_index=True, return_inverse=True)
        self.group = first[inverse.ravel()]  # row -> first row with the same bits
        counts = np.bincount(self.group, minlength=len(rows))
        self.ties = {int(g): np.flatnonzero(self.group == g)
                     for g in np.flatnonzero(counts > 1)}

    def scores(self, queries: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """float64 scores of every query against ``rows`` (default: all)."""
        idx = np.arange(len(self.rows)) if rows is None else np.asarray(rows)
        reps, inv = np.unique(self.group[idx], return_inverse=True)
        s = np.atleast_2d(queries).astype(np.float64) @ self.rows[reps].astype(np.float64).T
        return s[:, inv.ravel()]

    def topk(self, queries: np.ndarray, k: int, block: int = 64) -> np.ndarray:
        """Row indices of the top k per query, ties by ascending row."""
        out = np.empty((len(queries), k), dtype=np.int64)
        for start in range(0, len(queries), block):
            for qi, row in enumerate(self.scores(queries[start:start + block]), start):
                kth = np.partition(row, -k)[-k]
                cand = np.flatnonzero(row >= kth)
                out[qi] = cand[np.lexsort((cand, -row[cand]))[:k]]
        return out

    def check(self, query: np.ndarray, ranked: list[int], expected: np.ndarray) -> str | None:
        """Why ``ranked`` (row indices, best first) is not an exact top-k for
        ``query``, or None when it is one.

        ``expected`` is this oracle's top k. Documents whose scores differ by
        less than ``NEAR_TIE`` may trade places, also across the cut-off.
        Bit-identical rows (exact ties) must keep ascending id order, also
        across the cut-off.
        """
        k = len(expected)
        r = np.asarray(ranked, dtype=np.int64)
        if len(r) != k:
            return f"{len(r)} results, expected {k}"
        if len(np.unique(r)) != k:
            return "a document is ranked twice"
        both = np.concatenate([r, expected])
        s_all = self.scores(query, both)[0]
        s, s_exp = s_all[:k], s_all[k:]
        drops = np.flatnonzero(s[1:] > s[:-1] + NEAR_TIE)
        if len(drops):
            return f"rank {drops[0] + 1} scores below rank {drops[0] + 2}"
        missing = ~np.isin(expected, r)
        if np.any(s_exp[missing] > s.min() + NEAR_TIE):
            return f"row {int(expected[missing][0])} missing from the top {k}"
        if np.any(s < s_exp[-1] - NEAR_TIE):
            return f"a result scores below the oracle's k-th score {s_exp[-1]:.6f}"
        for g in np.unique(self.group[r]):
            everyone = self.ties.get(int(g))
            if everyone is None:
                continue
            members = r[self.group[r] == g]
            if np.any(np.diff(members) < 0):
                return f"exact tie among rows {members.tolist()} not in ascending id order"
            if not np.array_equal(members, everyone[:len(members)]):
                return (f"exact tie: rows {members.tolist()} ranked over lower ids "
                        f"in {everyone.tolist()}")
        return None
