"""Chunked, tiered KV cache: one cache holds every layer of a stream.

The stream lives in one float32 K buffer and one float32 V buffer. A
row is dim: (layers, heads, d_head) in the engine, or (heads, d_head)
or an int for a single layer. A row's value is the sum of its d_head
values, added in float64 and rounded once: attention is linear in V
and a step's output is read only as its sum over d_head, so the V
buffer is (capacity, *dim[:-1], 1). The buffers are stored layer-major,
(layers, capacity, heads, width), so each layer's rows are one
contiguous token-ordered block; every array is read token first,
(capacity, ...), through a transposed view. Every tier is a row
range:

    sinks       [0, n_sink)
    chunk j     [n_sink + j*c, n_sink + (j+1)*c), sealed once full;
                only the last chunk may be open (partly filled)
    local tail  [tail_start, total), the newest n_local non-sink pairs

One append commits a token's (or a window's) rows for every layer, and
one snapshot serves every layer. Appends only write rows past the
current total, so a snapshot is a set of read-only slices and copies
nothing; a later regrowth moves the cache to new buffers and leaves
old snapshots on the old ones. An append takes d_head-wide values, or
values already summed (last axis 1), and sums them from its argument:
the float64 sum of one float32 is that float32. A writer may fill the
next rows in place, one layer and head at a time, through the
writable views that staged(rows) returns: the K rows and value-sum
rows the append commits. Appending those same views copies no key:
the replay reads each pre-fill window into the cache this way, so it
holds no window-sized buffer of keys or values beside the cache.
When a chunk seals, its representative key and that key's
float64 norms (one per layer and head) go to (chunks, *dim) arrays. A
cache built with key_norms (the default, and what the engine asks for
in max-score mode only, the one reader) also writes every appended
row's float64 key norms at append time; without it no member-key norm
exists. Scoring reads only these arrays, and the rows of the open
chunk when it is a candidate.

A cache built with rows=False, as the engine builds it when no step
attends and scoring reads only the reps (mean mode), keeps only the
rows from the open chunk's first on: a view's start. Sinks, sealed
chunks and the tail before it lose their keys and value sums (a tier
or chunk that begins before start shows no rows); the reps stay. Its
row buffers hold one append (a window) plus a chunk. When an append
does not fit, the open chunk's fewer than a chunk of rows move to new
buffers of that size, as in a regrowth, and never within the old
ones, so a snapshot taken before the move keeps its open chunk; the
rows past the append are zeroed then, so the decode tokens that fill
them later find their pages resident. A replay moves them once per
pre-fill window and once per window of decode tokens.

The retrieval candidates are the chunks whose span ends before
tail_start. A chunk that straddles tail_start is not one, and its
rows before tail_start are neither retrievable nor in the tail, so no
step attends them. With n_local = 0 the tail is empty and the open
partial chunk is a candidate too.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import DimMismatch, row_norms

N_SINK, CHUNK, N_LOCAL = 64, 32, 512  # the default tier geometry


def tail_start_of(total: int, n_sink: int, n_local: int) -> int:
    """First row of the local tail: the newest n_local rows, no sinks."""
    return max(min(total, n_sink), total - n_local)


def sealed_chunks(rows: int, n_sink: int, chunk: int) -> int:
    """Full chunks among the first `rows` rows of a stream."""
    return max(0, rows - n_sink) // chunk


def rep_key_of(keys) -> np.ndarray:
    """Representative key of a chunk: per-dimension mean of its rows
    (the first axis), per head when rows are (heads, d_head).

    The "max-score" rep mode changes how a chunk is *scored* (max over
    member-key cosines, see retrieval), not what is stored.
    """
    k = np.asarray(keys, dtype=np.float32)
    if k.ndim < 2 or k.shape[0] < 1:
        raise DimMismatch(f"representative of keys shaped {k.shape}")
    # summed in float64 a buffer at a time: no float64 copy of the chunk
    return np.mean(k, axis=0, dtype=np.float64).astype(np.float32)


@dataclass(frozen=True)
class KVChunk:
    """One chunk's rows of a snapshot (slices, built only when read);
    values holds each row's value sum, (rows, *dim[:-1], 1)."""

    chunk_id: int
    start: int  # inclusive token positions
    end: int
    keys: np.ndarray
    values: np.ndarray

    @property
    def rows(self) -> int:
        return int(self.keys.shape[0])


@dataclass(frozen=True)
class CacheView:
    """Immutable snapshot of a cached stream.

    keys, values and key_norms hold every cached pair in token order;
    values is (pairs, *dim[:-1], 1), each row's values summed over
    d_head, and key_norms is None when the cache keeps no member-key
    norms.
    rep_keys (float64) and rep_norms hold one row per sealed chunk.
    All are read-only slices of the cache's buffers, indexed token
    first: keys is (pairs, *dim). keys[0] is stream row start, 0
    unless the cache drops rows; a tier or chunk that begins before
    start shows no rows.
    """

    n_sink: int
    chunk: int
    keys: np.ndarray
    values: np.ndarray
    key_norms: np.ndarray | None
    rep_keys: np.ndarray
    rep_norms: np.ndarray
    tail_start: int
    start: int

    @property
    def total_pairs(self) -> int:
        return self.start + int(self.keys.shape[0])

    def _held(self, a: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Stream rows [lo, hi) of keys or values; none if lo < start."""
        at = self.start
        return a[lo - at:hi - at] if lo >= at else a[:0]

    @property
    def sink_keys(self) -> np.ndarray:
        return self._held(self.keys, 0, self.n_sink)

    @property
    def sink_values(self) -> np.ndarray:
        return self._held(self.values, 0, self.n_sink)

    @property
    def local_keys(self) -> np.ndarray:
        return self._held(self.keys, self.tail_start, self.total_pairs)

    @property
    def local_values(self) -> np.ndarray:
        return self._held(self.values, self.tail_start, self.total_pairs)

    @property
    def n_candidates(self) -> int:
        """Chunks whose span ends before tail_start: the sealed chunks
        fully behind the tail, plus the open one when the tail is empty."""
        span = max(0, self.tail_start - self.n_sink)
        if self.tail_start == self.total_pairs:
            return -(-span // self.chunk)
        return span // self.chunk

    def chunk_rows(self, chunk_id: int) -> tuple[int, int]:
        """[start, stop) rows of a chunk; the open chunk stops at total."""
        start = self.n_sink + chunk_id * self.chunk
        return start, min(start + self.chunk, self.total_pairs)

    @property
    def candidate_rows(self) -> np.ndarray:
        """Pair count of each candidate chunk: c, except a partial open one."""
        rows = np.full(self.n_candidates, self.chunk)
        if rows.size:
            start, stop = self.chunk_rows(rows.size - 1)
            rows[-1] = stop - start
        return rows

    @property
    def chunks(self) -> Sequence[KVChunk]:
        """Every chunk, the open partial one included."""
        return _Chunks(self, -(-max(0, self.total_pairs - self.n_sink)
                               // self.chunk))

    @property
    def retrievable(self) -> Sequence[KVChunk]:
        return _Chunks(self, self.n_candidates)


class _Chunks(Sequence):
    """The first n chunks of a view, each built when it is read."""

    def __init__(self, view: CacheView, n: int):
        self._view = view
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(self._n)[i])
        j = range(self._n)[i]
        view = self._view
        start, stop = view.chunk_rows(j)
        return KVChunk(chunk_id=j, start=start, end=stop - 1,
                       keys=view._held(view.keys, start, stop),
                       values=view._held(view.values, start, stop))


def _resized(a: np.ndarray, rows: int, keep: int, lead: int) -> np.ndarray:
    """A new `rows`-row buffer holding the first `keep` rows of the
    token-first a, stored with its token axis after the `lead` layer
    axes and viewed token first."""
    shape = a.shape[1:]
    out = np.empty((*shape[:lead], rows, *shape[lead:]), dtype=a.dtype)
    out = np.moveaxis(out, lead, 0)
    out[:keep] = a[:keep]
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class LayerCache:
    """Single-writer cache for a stream of rows shaped dim, whose axes
    before the last two, if any, are layers. key_norms=False keeps no
    per-row key norms, which only max-score scoring reads. rows=False
    keeps only the rows from the open chunk's first on (see start),
    and needs key_norms=False."""

    def __init__(self, dim: int | tuple[int, ...], n_sink: int = N_SINK,
                 n_local: int = N_LOCAL, chunk: int = CHUNK,
                 key_norms: bool = True, rows: bool = True):
        if np.min(dim) < 1 or chunk < 1 or n_sink < 0 or n_local < 0:
            raise ValueError("cache geometry must be positive")
        if key_norms and not rows:
            raise ValueError("key norms are kept only with the rows")
        self.n_sink = n_sink
        self.n_local = n_local
        self.chunk = chunk
        self.keeps_rows = rows
        self.total_pairs = 0
        self._sealed = 0
        self._base = 0  # stream row of the row buffers' first row
        row = np.empty(dim).shape  # dim as a shape tuple
        self._lead = max(0, len(row) - 2)  # layer axes
        self._k = np.empty((0, *row), dtype=np.float32)
        self._v = np.empty((0, *row[:-1], 1), dtype=np.float32)
        self._knorm = np.empty((0, *row[:-1])) if key_norms else None
        self._rep = np.empty((0, *row))
        self._rep_norm = np.empty((0, *row[:-1]))

    @property
    def capacity(self) -> int:
        """Rows the row buffers hold."""
        return int(self._k.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes of every buffer the cache holds."""
        return sum(a.nbytes for a in (self._k, self._v, self._knorm,
                                      self._rep, self._rep_norm)
                   if a is not None)

    @property
    def start(self) -> int:
        """First row a snapshot shows: 0, or without rows the open
        chunk's first row (total_pairs while sinks are still arriving)."""
        if self.keeps_rows:
            return 0
        return min(self.total_pairs, self.n_sink + self._sealed * self.chunk)

    def reserve(self, rows: int) -> None:
        """Size the reps, and the row buffers if the cache keeps its
        rows, for at least `rows` pairs, so appends up to that total
        never regrow them; a regrowth at least doubles them."""
        chunks = -(-max(0, rows - self.n_sink) // self.chunk)
        if chunks > len(self._rep):
            chunks = max(chunks, 2 * len(self._rep))
            self._rep = _resized(self._rep, chunks, self._sealed, self._lead)
            self._rep_norm = _resized(self._rep_norm, chunks, self._sealed,
                                      self._lead)
        if self.keeps_rows:
            self._room(rows)

    def _room(self, stop: int) -> None:
        """Make the row buffers reach stream row `stop`. If they do not,
        the rows from start on move to new buffers, never in place, as a
        snapshot may still read the old ones. Without rows the new ones
        hold the rows to append plus a chunk, so the fewer than a chunk
        of rows they carry over always fit; they never shrink."""
        if stop <= self._base + self.capacity:
            return
        base, lead = self.start, self._lead
        rows = (max(stop, 2 * self.capacity) if self.keeps_rows else
                max(self.capacity, stop - self.total_pairs + self.chunk))
        at, n = base - self._base, self.total_pairs - base
        self._k, self._v, self._knorm = (
            None if a is None else _resized(a[at:], rows, n, lead)
            for a in (self._k, self._v, self._knorm))
        self._base = base
        if not self.keeps_rows:
            # touch the rows past this append now, so later decode rows
            # land on resident pages: buffers this small get no huge pages
            # (numpy asks for them from 4 MiB), and each token's row would
            # fault in pages of its own (+5 % on multi-head's decode step)
            self._k[stop - base:] = 0
            self._v[stop - base:] = 0

    def staged(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Writable views of the (rows, *dim) K rows and the (rows,
        *dim[:-1], 1) value-sum rows that the next append of `rows` rows
        fills. They lie past total_pairs, so no snapshot sees them until
        that append commits them."""
        stop = self.total_pairs + rows
        self._room(stop)
        at = self.total_pairs - self._base
        return self._k[at:at + rows], self._v[at:at + rows]

    def append(self, keys, values) -> int:
        """Append KV pairs, rows first: keys (rows, *dim) and values of
        the same shape or already summed, (rows, *dim[:-1], 1); returns
        how many chunks this call sealed. The values are summed straight
        from `values`, so a row's d_head values are not stored. Given
        the views staged(rows) returned, it copies no key: numpy skips
        assigning an array to itself."""
        k = np.asarray(keys, dtype=np.float32)
        v = np.asarray(values, dtype=np.float32)
        if (k.shape[1:] != self._k.shape[1:] or v.shape[:-1] != k.shape[:-1]
                or v.shape[-1] not in (1, k.shape[-1])):
            raise DimMismatch(f"keys {k.shape}, values {v.shape} for rows "
                              f"{self._k.shape[1:]}")
        if k.shape[0] < 1:
            raise DimMismatch("append of zero rows")
        stop = self.total_pairs + k.shape[0]
        self._room(stop)
        base = self._base
        at, to = self.total_pairs - base, stop - base
        self._k[at:to] = k
        self._v[at:to] = v.sum(axis=-1, dtype=np.float64, keepdims=True)
        if self._knorm is not None:
            self._knorm[at:to] = row_norms(self._k[at:to])
        self.total_pairs = stop
        full = sealed_chunks(stop, self.n_sink, self.chunk)
        if full > len(self._rep):
            self.reserve(stop)
        first = self._sealed
        # one chunk at a time, so each rep is rep_key_of's, bit for bit
        for j in range(first, full):
            lo = self.n_sink + j * self.chunk - base
            rep = rep_key_of(self._k[lo:lo + self.chunk]).astype(np.float64)
            self._rep[j] = rep
            self._rep_norm[j] = row_norms(rep)
        self._sealed = full
        return full - first

    @property
    def tail_start(self) -> int:
        return tail_start_of(self.total_pairs, self.n_sink, self.n_local)

    def snapshot(self) -> CacheView:
        start = self.start
        at, n = start - self._base, self.total_pairs - self._base
        return CacheView(
            n_sink=self.n_sink, chunk=self.chunk,
            keys=_read_only(self._k[at:n]),
            values=_read_only(self._v[at:n]),
            key_norms=(None if self._knorm is None
                       else _read_only(self._knorm[at:n])),
            rep_keys=_read_only(self._rep[:self._sealed]),
            rep_norms=_read_only(self._rep_norm[:self._sealed]),
            tail_start=self.tail_start, start=start,
        )
