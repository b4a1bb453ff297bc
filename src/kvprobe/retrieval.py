"""Chunk scoring against a probe and budgeted top-k selection.

Scores are cosines between the probe and each candidate chunk's
representative key ("mean" mode) or the best cosine over the chunk's
member keys ("max-score" mode), one matrix-vector product per head
over the cache view's arrays. A cosine is 0 when either norm is below
1e-12, as in linalg.cosine. Selection is greedy by descending score in
whole chunks, ties broken toward the older (smaller id) chunk,
stopping as soon as the next chunk would overflow the pair budget.
Materialized K*/V* rows come out in original token order, not score
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cache import CacheView, rep_key_of
from .linalg import ZERO_NORM_EPS, NonFinite, l2_norm
from .probe import ProbeQuery


class UnknownChunk(KeyError):
    pass


@dataclass(frozen=True)
class ScoredChunk:
    chunk_id: int
    score: float
    # pair count of the chunk; selection assumes the full chunk size c
    # when this is omitted (only trailing partial chunks differ)
    rows: int | None = None


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[int, ...]  # descending score order
    pairs_used: int


def _probe_vector(probe) -> np.ndarray:
    if isinstance(probe, ProbeQuery):
        probe = probe.vector
    return np.asarray(probe, dtype=np.float64)


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
    vec = _probe_vector(probe)
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


def _scored(view: CacheView, scores: np.ndarray) -> list[ScoredChunk]:
    rows = [view.chunk] * len(scores)
    if rows:
        start, stop = view.chunk_rows(len(rows) - 1)
        rows[-1] = stop - start
    return [ScoredChunk(chunk_id=j, score=s, rows=r)
            for j, (s, r) in enumerate(zip(scores.tolist(), rows))]


def score_chunks(probe, view: CacheView, mode: str = "mean"
                 ) -> list[ScoredChunk]:
    """One score per retrieval candidate of a view, in chunk order.

    Degenerate zero-norm pairs score 0. No candidates -> empty list.
    """
    return _scored(view, _head_scores(probe, view, mode))


def score_chunks_across_heads(probes, views: Sequence[CacheView],
                              mode: str = "mean") -> list[ScoredChunk]:
    """Layer-level scores: arithmetic mean of per-head cosines per chunk.

    probes and views are parallel sequences over heads. Heads fed in
    lockstep share one geometry, so chunk j is the same token span in
    every view; views with different candidate counts raise ValueError.
    """
    per_head = [_head_scores(p, v, mode) for p, v in zip(probes, views)]
    if not per_head:
        return []
    # summing along the contiguous head axis adds in np.mean's order
    return _scored(views[0], np.stack(per_head, axis=1).mean(axis=1))


def select_topk(scored: Sequence[ScoredChunk], budget_pairs: int,
                c: int) -> SelectionResult:
    """Greedy descending-score selection in whole chunks.

    Stops at the first chunk that would overflow budget_pairs; with
    uniform chunk size this equals the brute-force top floor(budget/c).
    """
    if budget_pairs < 0:
        raise ValueError("negative budget")
    order = sorted(scored, key=lambda s: (-s.score, s.chunk_id))
    taken: list[int] = []
    used = 0
    for s in order:
        rows = s.rows if s.rows is not None else c
        if used + rows > budget_pairs:
            break
        taken.append(s.chunk_id)
        used += rows
    return SelectionResult(selected=tuple(taken), pairs_used=used)


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
