"""Chunk scoring against a probe and budgeted top-k selection.

Scores are cosines between the probe and each candidate chunk's
representative key ("mean" mode) or the best cosine over the chunk's
member keys ("max-score" mode): one call per step for every layer
over the cache view's (rows, layers, heads, d_head) arrays. In mean
mode that is one stacked matrix-vector product per layer and head.

Max-score screens the member keys with one float32 matrix-vector
product per layer and head, reading the cached rows in place. Each
dot over the stored key norm, in float64 and 0 under the zero-norm
rule, is the cosine times the head's probe norm |p| to within
eps |p|, eps = gamma(d_head + 1) + (d_head + 4) * 2**-52 and
gamma(k) = k u / (1 - k u) with u = 2**-24. A member within 2 eps |p|
of its chunk's best is a contender, and the chunk's exact best is one
of them. Each chunk's float32 winner alone goes to float64, in
one batched product per layer and head padded to a multiple of 4
rows; a chunk with two or more contenders has every row computed so,
and takes their maximum. OpenBLAS's matrix-vector kernels compute
rows in groups of 4, and a row in a whole group has the same bits
wherever the group sits, so these dots are the exact pass's. The
exact pass copies every member key to float64 one block of rows at a
time, each block a whole number of chunks and of 4-row groups within
MEMBER_BLOCK_BYTES, and takes each chunk's maximum. It runs where a
partial open chunk is a candidate, where the member rows are not a
multiple of 4 (the last ones fall outside whole groups), or where a
screened value is not finite (a float32 overflow).

The heads' cosines are averaged. A cosine is 0 when either norm is
below 1e-12, and a NaN or infinite one raises NonFinite. The scores
are one read-only float64 (layers, n) array indexed by chunk id
(candidates are chunks 0..n-1), and a layer's row of it goes to the
step record.

Selection is greedy by descending score in whole chunks, ties broken
toward the older (smaller id) chunk, stopping as soon as the next
chunk would overflow the pair budget. Every chunk holds at least one
pair, so no layer takes more than k = largest budget // smallest
chunk chunks, and only the first k of each layer's descending order
are needed. In a pool of more than 256 chunks and 4k, one partition
finds each layer's k-th best score and one stable sort orders the
chunks at or above it, ties included; a smaller pool is sorted whole.
A binary search over the cumulative pair counts in that order finds
where each layer's budget stops. A selection's rows are its chunks'
rows in original token order, not score order, derived from its ids
one layer at a time by selected_rows: materialize gathers one layer's
keys and values (each row's value sum), and Gathered gathers each
layer's keys or values when attention reads them, one layer at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cache import CacheView, rep_key_of
from .linalg import ZERO_NORM_EPS, DimMismatch, NonFinite, row_norms


# bytes of member keys that max-score copies to float64 at once (256
# rows at 4 layers of 64 dims), and of float32 keys its screen reads at
# once when several heads' rows interleave: cache-sized blocks of rows
MEMBER_BLOCK_BYTES = 512 * 1024


class UnknownChunk(KeyError):
    pass


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[int, ...]  # descending score order
    pairs_used: int


def _cosines(dots: np.ndarray, norms: np.ndarray,
             probe_norms: np.ndarray) -> np.ndarray:
    """dots / (probe_norm * norm) per (..., row, head), 0 where either
    norm is ~0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = dots / (probe_norms * norms)
    cos[(norms < ZERO_NORM_EPS) | (probe_norms < ZERO_NORM_EPS)] = 0.0
    if not np.isfinite(cos).all():
        raise NonFinite("non-finite chunk score")
    # guard float round-off just outside the interval
    return np.clip(cos, -1.0, 1.0, out=cos)


def _dots(rows: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """(..., n, heads) dots of n float64 token-first rows with the
    (..., heads, d) probe: one matrix-vector product per layer and head.
    Max-score calls it once per block of rows, every layer at once."""
    d = probe.ndim  # the token axis goes before the last
    per_head = rows.reshape(len(rows), *probe.shape).transpose(
        *range(1, d), 0, d)
    return np.matmul(per_head, probe[..., None])[..., 0].swapaxes(-1, -2)


def _layered(norms: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Token-first (n, ...) norms as (..., n, heads), shape being the
    probe's (..., heads)."""
    d = len(shape)
    return norms.reshape(len(norms), *shape).transpose(*range(1, d), 0, d)


def _blocked_max(vec: np.ndarray, probe_norms: np.ndarray, view: CacheView,
                 hi: int) -> np.ndarray:
    """(..., n, heads) best member cosine of each candidate chunk, the
    candidates' member rows being [n_sink, hi), from every member key
    converted to float64: the exact pass."""
    lo = view.n_sink
    # every layer's member keys go to float64 one block of rows at a
    # time, whole chunks and whole groups of 4 rows, so that a row's dot
    # is the same in any block: OpenBLAS's matrix-vector kernels take
    # rows in fours, and numpy computes a one-row product as a plain
    # dot, so a lone last row joins the block before it
    unit = math.lcm(view.chunk, 4)
    step = max(1, MEMBER_BLOCK_BYTES // (unit * vec.size * 8)) * unit
    cuts = [lo, *range(lo + step, hi - 1, step), hi]
    dots = np.empty((*vec.shape[:-2], hi - lo, vec.shape[-2]))
    for a, b in zip(cuts, cuts[1:]):
        dots[..., a - lo:b - lo, :] = _dots(
            view.keys[a:b].astype(np.float64), vec)
    member = _cosines(dots, _layered(view.key_norms[lo:hi], vec.shape[:-1]),
                      probe_norms[..., None, :])
    return np.maximum.reduceat(member, np.arange(0, hi - lo, view.chunk),
                               axis=-2)


def _exact_dots(rows: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """(..., m) float64 dots of float32 (..., m, d) rows with the
    (..., d) probe, m a multiple of 4 (at least 4): each row's bits are
    those the blocked pass gives it, wherever it sits in its 4-row group."""
    return np.matmul(rows.astype(np.float64), probe[..., None])[..., 0]


def _screened_max(vec: np.ndarray, probe_norms: np.ndarray, view: CacheView,
                  hi: int):
    """_blocked_max's result, bit for bit, from a float32 screen and
    float64 dots for each chunk's winner and each near-tied chunk's rows
    (see the module docstring); None where the blocked pass must run: a
    partial open chunk, member rows outside whole 4-row groups, or a
    screened value that is not finite."""
    c, lo = view.chunk, view.n_sink
    span = hi - lo
    n = span // c
    if span % 4 or span != n * c:
        return None
    shape = vec.shape[:-1]  # (..., heads)
    last = (*range(1, len(shape) + 1), 0)  # the token axis goes last
    # (..., heads, span, d) and (..., heads, span) views: no copy
    keys = view.keys[lo:hi].reshape(span, *vec.shape).transpose(
        *last, len(shape) + 1)
    norms = view.key_norms[lo:hi].reshape(span, *shape).transpose(last)
    probe_norms = probe_norms[..., None]
    screen = np.empty(keys.shape[:-1], dtype=np.float32)
    # several heads' rows interleave in the cache, and a cache-sized
    # block of rows at a time reads them faster (~1.7x at 8 heads of 64
    # dims); one head's rows are contiguous, and one product over all
    # of them is the faster (~2x at 15k rows)
    step = max(1, span if shape[-1] == 1
               else MEMBER_BLOCK_BYTES // (vec.size * 4))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        probe32 = vec.astype(np.float32)[..., None]
        for a in range(0, span, step):
            np.matmul(keys[..., a:a + step, :], probe32,
                      out=screen[..., a:a + step, None])
        # each cosine times its head's probe norm, a positive factor that
        # changes no order within a head; the margin below carries it
        screen = screen / norms
    dead = norms < ZERO_NORM_EPS
    if dead.any():
        screen[dead] = 0.0  # _cosines' zero-norm rule
    if not np.isfinite(screen).all():  # a float32 overflow
        return None
    screen = screen.reshape(-1, c)  # a row per layer, head and chunk
    win = screen.argmax(axis=1)
    best = screen[np.arange(len(win)), win].reshape(*shape, n)
    # gamma(d+1) covers rounding the probe to float32 and a float32 sum
    # in any order, FMA included; (d+4) ulps of 1 cover the float64
    # cosines' own rounding and float32 underflow. A head whose probe
    # norm is below ZERO_NORM_EPS scores 0 in every row, whichever wins.
    d = vec.shape[-1]
    eps = (d + 1) * 2.0**-24 / (1 - (d + 1) * 2.0**-24) + (d + 4) * 2.0**-52
    near = (screen.reshape(*shape, n, c)
            >= (best - 2 * eps * probe_norms)[..., None])
    # each chunk's float32 winner, padded to a multiple of 4 rows by
    # repeating the last
    rows = win.reshape(*shape, n) + np.arange(0, span, c)
    rows = np.concatenate([rows, rows[..., -1:].repeat(-n % 4, axis=-1)],
                          axis=-1)
    at = tuple(i[..., None] for i in np.indices(shape, sparse=True))
    out = _cosines(_exact_dots(keys[(*at, rows)], vec)[..., :n],
                   norms[(*at, rows[..., :n])], probe_norms)
    if np.count_nonzero(near) > len(win):  # a chunk with two contenders
        *at, j = (near.sum(axis=-1) > 1).nonzero()
        # every row of each near-tied chunk, padded as above
        rows = (j * c)[:, None] + np.minimum(np.arange(-(-c // 4) * 4), c - 1)
        at = tuple(at)
        lead = tuple(a[:, None] for a in at)
        dots = _exact_dots(keys[(*lead, rows)], vec[at])[:, :c]
        out[(*at, j)] = _cosines(dots, norms[(*lead, rows[:, :c])],
                                 probe_norms[at]).max(axis=-1)
    return out.swapaxes(-1, -2)


def score_chunks_across_heads(probe, view: CacheView,
                              mode: str = "mean") -> np.ndarray:
    """Each layer's scores: arithmetic mean over heads of each
    candidate chunk's cosine with that head's probe.

    probe has the view's row shape: (layers, heads, d_head) gives
    read-only float64 scores shaped (layers, n); (heads, d_head), or
    (d,) for a cache of d-wide rows (one head), gives (n,). Chunk j is
    the same token span in every layer and head. No candidates -> an
    empty last axis.
    """
    vec = np.asarray(probe, dtype=np.float64)
    if vec.shape != view.keys.shape[1:]:
        raise DimMismatch(f"probe {vec.shape} for rows {view.keys.shape[1:]}")
    if vec.ndim == 1:
        vec = vec[None]  # one head
    probe_norms = row_norms(vec)
    n = view.n_candidates
    if mode == "mean":
        sealed = min(n, view.rep_keys.shape[0])
        dots = _dots(view.rep_keys[:sealed], vec)
        norms = view.rep_norms[:sealed]
        if n > sealed:  # the open chunk, a candidate when the tail is empty
            rep = rep_key_of(view.keys[slice(*view.chunk_rows(sealed))]
                             ).astype(np.float64)[None]
            dots = np.concatenate([dots, _dots(rep, vec)], axis=-2)
            norms = np.concatenate([norms, row_norms(rep)])
        cos = _cosines(dots, _layered(norms, vec.shape[:-1]),
                       probe_norms[..., None, :])
    elif mode == "max-score":
        if view.key_norms is None:
            raise ValueError("max-score scoring needs member-key norms; "
                             "this cache keeps none")
        hi = view.chunk_rows(n - 1)[1] if n else view.n_sink
        cos = _screened_max(vec, probe_norms, view, hi)
        if cos is None:
            cos = _blocked_max(vec, probe_norms, view, hi)
    else:
        raise ValueError(f"unknown representative mode {mode!r}")
    # C order makes numpy sum each chunk's heads pairwise; another layout
    # sums them in sequence, which can change the last bit of a score
    scores = np.ascontiguousarray(cos).mean(axis=-1)
    scores.flags.writeable = False
    return scores


def _shaped(x, shape: tuple[int, ...]) -> np.ndarray:
    """x as an array of shape, broadcast only when its shape differs
    (broadcast_to costs more than the check)."""
    a = np.asarray(x)
    return a if a.shape == shape else np.broadcast_to(a, shape)


def select_topk(scores: np.ndarray, budget_pairs, rows):
    """Greedy descending-score selection in whole chunks.

    scores is one layer's (n,) array with an int budget_pairs, giving
    a SelectionResult, or (layers, n) with one budget per layer, giving
    a tuple of one SelectionResult per layer. scores[..., j] is chunk
    j's score; rows is its pair count, an int or an (n,) array, each at
    least 1. Stops at the first chunk that would overflow the budget;
    with uniform chunk size this equals the brute-force top floor(budget/c).
    """
    n = scores.shape[-1]
    budgets = _shaped(budget_pairs, scores.shape[:-1]).ravel().tolist()
    if min(budgets, default=0) < 0:
        raise ValueError("negative budget")
    rows = _shaped(rows, (n,))
    least = int(rows.min()) if n else 1
    if least < 1:
        raise ValueError(f"chunk of {least} rows; each needs at least 1")
    # no layer takes more than k chunks, so only the first k of its
    # descending order are needed; stable, so equal scores (0.0 and
    # -0.0 included) keep id order
    k = min(n, int(max(budgets, default=0)) // least)
    neg = -scores.reshape(len(budgets), n)
    # the full stable sort is the cheaper one up to ~256 chunks, or when
    # k is a quarter of them or more (timed at k 2-256, n 64-1,024)
    if k and n > max(256, 4 * k):
        # chunks at or above the k-th best score, ties included, in id
        # order; their stable sort is the full sort's prefix (a NaN cut
        # keeps every chunk)
        cut = np.partition(neg, k - 1, axis=-1)[:, k - 1:k]
        layer, ids = (~(neg > cut)).nonzero()
        ids = ids[np.lexsort((neg[layer, ids], layer))]
        # every layer keeps at least k, and nonzero lists the layers in turn
        top = ids[layer.searchsorted(np.arange(len(neg)))[:, None]
                  + np.arange(k)]
    else:
        top = np.argsort(neg, axis=-1, kind="stable")[:, :k]
    picks = []
    for best, used, budget in zip(top.tolist(),
                                  rows[top].cumsum(axis=-1).tolist(), budgets):
        # the prefix sums rise, so a binary search finds where the
        # greedy loop would stop
        t = bisect_right(used, budget)
        picks.append(SelectionResult(selected=tuple(best[:t]),
                                     pairs_used=used[t - 1] if t else 0))
    return tuple(picks) if scores.ndim > 1 else picks[0]


def selected_rows(selections: Sequence[SelectionResult], view: CacheView
                  ) -> list[np.ndarray]:
    """Token rows of each selection's chunks, ascending: one array per
    selection (per layer)."""
    n, c, total = view.n_candidates, view.chunk, view.total_pairs
    offsets = view.n_sink + np.arange(c)
    out = []
    for sel in selections:
        ids = sorted(sel.selected)
        if ids and (ids[0] < 0 or ids[-1] >= n):
            raise UnknownChunk(ids[0] if ids[0] < 0 else ids[-1])
        rows = (c * np.array(ids, dtype=np.intp)[:, None] + offsets).ravel()
        # only the open chunk, the last id, may be partial
        extra = view.n_sink + c * (ids[-1] + 1) - total if ids else 0
        out.append(rows[:len(rows) - extra] if extra > 0 else rows)
    return out


def materialize(selection: SelectionResult, view: CacheView
                ) -> tuple[np.ndarray, np.ndarray]:
    """Gather the selected chunks' keys, (rows, *dim), and values,
    (rows, *dim[:-1], 1) value sums, in ascending token position."""
    rows, = selected_rows([selection], view)
    return view.keys[rows], view.values[rows]


class Gathered:
    """Each layer's selected rows of a view's (pairs, layers, heads,
    width) keys (width d_head) or values (width 1): item l is layer
    l's (heads, rows, width), gathered when it is read. shape is the
    block's shape padded to its widest layer, and sizes holds each
    layer's rows."""

    def __init__(self, data: np.ndarray, rows: list[np.ndarray]):
        self._data, self._rows = data, rows
        self.sizes = tuple(map(len, rows))
        self.shape = (len(rows), data.shape[2], max(self.sizes, default=0),
                      data.shape[3])

    def __getitem__(self, l: int) -> np.ndarray:
        # take beats fancy indexing when the layer is one contiguous
        # block, as in the cache's layer-major buffers; on another layout
        # it would first copy the whole layer
        return self._data[:, l].take(self._rows[l], axis=0).transpose(1, 0, 2)
