"""Chunk scoring against a probe and budgeted top-k selection.

Scores are cosines between the probe and each candidate chunk's
representative key ("mean" mode) or the best cosine over the chunk's
member keys ("max-score" mode): one call per layer over the cache
view's (rows, heads, d_head) arrays, which makes one matrix-vector
product per head and averages the heads' cosines. A cosine is 0 when
either norm is below 1e-12, and a NaN or infinite one raises
NonFinite. A layer's scores are one float64 array indexed by chunk id
(candidates are chunks 0..n-1), from scoring to the step record.

Selection is greedy by descending score in whole chunks, ties broken
toward the older (smaller id) chunk, stopping as soon as the next
chunk would overflow the pair budget: a stable argsort of the negated
scores, a cumulative sum of the pair counts in that order, and a
search for the first prefix over budget. Materialized K*/V* rows come
out in original token order, not score order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import CacheView, rep_key_of
from .linalg import ZERO_NORM_EPS, DimMismatch, NonFinite, row_norms


class UnknownChunk(KeyError):
    pass


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[int, ...]  # descending score order
    pairs_used: int


def _cosines(dots: np.ndarray, norms: np.ndarray,
             probe_norms: np.ndarray) -> np.ndarray:
    """dots / (probe_norm * norm) per (row, head), 0 where either norm
    is ~0."""
    norms = norms.reshape(dots.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = dots / (probe_norms * norms)
    cos[(norms < ZERO_NORM_EPS) | (probe_norms < ZERO_NORM_EPS)] = 0.0
    if not np.all(np.isfinite(cos)):
        raise NonFinite("non-finite chunk score")
    # guard float round-off just outside the interval
    return np.clip(cos, -1.0, 1.0, out=cos)


def _dots(rows: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """(n, heads) dots of n float64 rows with the (heads, d) probe: one
    matrix-vector product per head."""
    per_head = rows.reshape(-1, *probe.shape).transpose(1, 0, 2)
    return np.matmul(per_head, probe[:, :, None])[:, :, 0].T


def score_chunks_across_heads(probe, view: CacheView,
                              mode: str = "mean") -> np.ndarray:
    """Layer-level scores: arithmetic mean over heads of each candidate
    chunk's cosine with that head's probe.

    probe has the view's row shape, (heads, d_head), or (d,) for a
    cache of d-wide rows (one head). Chunk j is the same token span in
    every head. No candidates -> an empty array.
    """
    vec = np.asarray(probe, dtype=np.float64)
    if vec.shape != view.keys.shape[1:]:
        raise DimMismatch(f"probe {vec.shape} for rows {view.keys.shape[1:]}")
    vec = vec.reshape(-1, vec.shape[-1])
    norm = row_norms(vec)
    n = view.n_candidates
    if mode == "mean":
        sealed = min(n, view.rep_keys.shape[0])
        dots = _dots(view.rep_keys[:sealed], vec)
        norms = view.rep_norms[:sealed]
        if n > sealed:  # the open chunk, a candidate when the tail is empty
            rep = rep_key_of(view.keys[slice(*view.chunk_rows(sealed))]
                             ).astype(np.float64)
            dots = np.concatenate([dots, _dots(rep, vec)])
            norms = np.append(norms, row_norms(rep))
        cos = _cosines(dots, norms, norm)
    elif mode == "max-score":
        lo = view.n_sink
        hi = view.chunk_rows(n - 1)[1] if n else lo
        cos = _cosines(_dots(view.keys[lo:hi].astype(np.float64), vec),
                       view.key_norms[lo:hi], norm)
        cos = np.maximum.reduceat(cos, np.arange(0, hi - lo, view.chunk))
    else:
        raise ValueError(f"unknown representative mode {mode!r}")
    # C order makes numpy sum each chunk's heads pairwise; another layout
    # sums them in sequence, which can change the last bit of a score
    return np.ascontiguousarray(cos).mean(axis=1)


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
