"""Chunk scoring against a probe and budgeted top-k selection.

Scores are cosines between the probe and each candidate chunk's
representative key ("mean" mode) or the best cosine over the chunk's
member keys ("max-score" mode), one matrix-vector product per head
over the cache view's arrays. A cosine is 0 when either norm is below
1e-12, as in linalg.cosine. A layer's scores are one float64 array
indexed by chunk id (candidates are chunks 0..n-1), from scoring to
the step record.

Selection is greedy by descending score in whole chunks, ties broken
toward the older (smaller id) chunk, stopping as soon as the next
chunk would overflow the pair budget: a stable argsort of the negated
scores, a cumulative sum of the pair counts in that order, and a
search for the first prefix over budget. Materialized K*/V* rows come
out in original token order, not score order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cache import CacheView, rep_key_of
from .linalg import ZERO_NORM_EPS, NonFinite, l2_norm


class UnknownChunk(KeyError):
    pass


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[int, ...]  # descending score order
    pairs_used: int


def _cosines(dots: np.ndarray, norms: np.ndarray,
             probe_norm: float) -> np.ndarray:
    """dots / (probe_norm * norms), 0 where either norm is ~0."""
    if probe_norm < ZERO_NORM_EPS:
        return np.zeros_like(dots)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = dots / (probe_norm * norms)
    cos[norms < ZERO_NORM_EPS] = 0.0
    if not np.all(np.isfinite(cos)):
        raise NonFinite("non-finite chunk score")
    # guard float round-off just outside the interval
    return np.clip(cos, -1.0, 1.0, out=cos)


def _head_scores(probe, view: CacheView, mode: str) -> np.ndarray:
    """float64 score of each of a view's candidate chunks for one head."""
    vec = np.asarray(probe, dtype=np.float64)
    norm = l2_norm(vec)
    n = view.n_candidates
    if mode == "mean":
        sealed = min(n, view.rep_keys.shape[0])
        dots = view.rep_keys[:sealed] @ vec
        norms = view.rep_norms[:sealed]
        if n > sealed:  # the open chunk, a candidate when the tail is empty
            rep = rep_key_of(view.keys[slice(*view.chunk_rows(sealed))])
            dots = np.append(dots, rep.astype(np.float64) @ vec)
            norms = np.append(norms, l2_norm(rep))
        return _cosines(dots, norms, norm)
    if mode == "max-score":
        if n == 0:
            return np.zeros(0)
        lo, hi = view.n_sink, view.chunk_rows(n - 1)[1]
        cos = _cosines(view.keys[lo:hi].astype(np.float64) @ vec,
                       view.key_norms[lo:hi], norm)
        return np.maximum.reduceat(cos, np.arange(0, hi - lo, view.chunk))
    raise ValueError(f"unknown representative mode {mode!r}")


def score_chunks_across_heads(probes, views: Sequence[CacheView],
                              mode: str = "mean") -> np.ndarray:
    """Layer-level scores: arithmetic mean of per-head cosines per chunk.

    probes (vectors) and views are parallel sequences over heads; one
    head is exact, as a mean over one value is that value. Heads fed in
    lockstep share one geometry, so chunk j is the same token span in
    every view; views with different candidate counts raise ValueError.
    No candidates -> an empty array.
    """
    per_head = [_head_scores(p, v, mode) for p, v in zip(probes, views)]
    if not per_head:
        return np.zeros(0)
    # summing along the contiguous head axis adds in np.mean's order
    return np.stack(per_head, axis=1).mean(axis=1)


def select_topk(scores: np.ndarray, budget_pairs: int,
                rows) -> SelectionResult:
    """Greedy descending-score selection in whole chunks.

    scores[j] is chunk j's score; rows is its pair count, an int or an
    array broadcast against scores. Stops at the first chunk that
    would overflow budget_pairs; with uniform chunk size this equals
    the brute-force top floor(budget/c).
    """
    if budget_pairs < 0:
        raise ValueError("negative budget")
    # stable, so equal scores (0.0 and -0.0 included) keep id order
    order = np.argsort(-scores, kind="stable")
    used = np.cumsum(np.broadcast_to(rows, scores.shape)[order])
    k = int(np.searchsorted(used, budget_pairs, side="right"))
    return SelectionResult(selected=tuple(order[:k].tolist()),
                           pairs_used=int(used[k - 1]) if k else 0)


def materialize(selection: SelectionResult, view: CacheView
                ) -> tuple[np.ndarray, np.ndarray]:
    """Gather the selected chunks' K/V rows in ascending token position."""
    ids = np.sort(np.asarray(selection.selected, dtype=np.int64))
    bad = ids[(ids < 0) | (ids >= view.n_candidates)]
    if bad.size:
        raise UnknownChunk(int(bad[0]))
    rows = (view.n_sink + view.chunk * ids[:, None]
            + np.arange(view.chunk)).ravel()
    rows = rows[rows < view.total_pairs]
    return view.keys[rows], view.values[rows]
