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
old snapshots on the old ones. An append takes d_head-wide values and
sums them from its argument. A writer may fill the next rows in place,
one layer at a time, through the writable views that staged(rows)
returns: the K rows the append fills and a V staging buffer of one
append's rows, reused by the next staged call. Appending those same
views copies no key: the replay reads each pre-fill window into the
cache this way, so the cache plus one window of values is all it
holds. When a chunk seals, its representative key and that key's
float64 norms (one per layer and head) go to (chunks, *dim) arrays. A
cache built with key_norms (the default, and what the engine asks for
in max-score mode only, the one reader) also writes every appended
row's float64 key norms at append time; without it no member-key norm
exists. Scoring reads only these arrays.

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
    return np.mean(k.astype(np.float64), axis=0).astype(np.float32)


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
    first: keys is (pairs, *dim).
    """

    n_sink: int
    chunk: int
    keys: np.ndarray
    values: np.ndarray
    key_norms: np.ndarray | None
    rep_keys: np.ndarray
    rep_norms: np.ndarray
    tail_start: int

    @property
    def total_pairs(self) -> int:
        return int(self.keys.shape[0])

    @property
    def sink_keys(self) -> np.ndarray:
        return self.keys[:self.n_sink]

    @property
    def sink_values(self) -> np.ndarray:
        return self.values[:self.n_sink]

    @property
    def local_keys(self) -> np.ndarray:
        return self.keys[self.tail_start:]

    @property
    def local_values(self) -> np.ndarray:
        return self.values[self.tail_start:]

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
        start, stop = self._view.chunk_rows(j)
        return KVChunk(chunk_id=j, start=start, end=stop - 1,
                       keys=self._view.keys[start:stop],
                       values=self._view.values[start:stop])


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
    per-row key norms, which only max-score scoring reads."""

    def __init__(self, dim: int | tuple[int, ...], n_sink: int = 64,
                 n_local: int = 512, chunk: int = 32,
                 key_norms: bool = True):
        if np.min(dim) < 1 or chunk < 1 or n_sink < 0 or n_local < 0:
            raise ValueError("cache geometry must be positive")
        self.n_sink = n_sink
        self.n_local = n_local
        self.chunk = chunk
        self.total_pairs = 0
        self._sealed = 0
        row = np.empty(dim).shape  # dim as a shape tuple
        self._lead = max(0, len(row) - 2)  # layer axes
        self._k = np.empty((0, *row), dtype=np.float32)
        self._v = np.empty((0, *row[:-1], 1), dtype=np.float32)
        self._v_staged = np.empty((0, *row), dtype=np.float32)
        self._knorm = np.empty((0, *row[:-1])) if key_norms else None
        self._rep = np.empty((0, *row))
        self._rep_norm = np.empty((0, *row[:-1]))

    @property
    def capacity(self) -> int:
        return int(self._k.shape[0])

    def reserve(self, rows: int) -> None:
        """Size the buffers for at least `rows` pairs, so appends up to
        that total never regrow them; a regrowth at least doubles them."""
        if rows <= self.capacity:
            return
        rows = max(rows, 2 * self.capacity)
        chunks = -(-max(0, rows - self.n_sink) // self.chunk)
        n, sealed, lead = self.total_pairs, self._sealed, self._lead
        self._k = _resized(self._k, rows, n, lead)
        self._v = _resized(self._v, rows, n, lead)
        if self._knorm is not None:
            self._knorm = _resized(self._knorm, rows, n, lead)
        self._rep = _resized(self._rep, chunks, sealed, lead)
        self._rep_norm = _resized(self._rep_norm, chunks, sealed, lead)

    def staged(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Writable (rows, *dim) views of the K rows that the next append
        of `rows` rows fills and of a V staging buffer for its values.
        The K rows lie past total_pairs, so no snapshot sees them until
        that append commits them; the staging buffer holds one append's
        rows and is reused by the next staged call."""
        start, stop = self.total_pairs, self.total_pairs + rows
        self.reserve(stop)
        if rows > self._v_staged.shape[0]:
            self._v_staged = _resized(self._v_staged, rows, 0, self._lead)
        return self._k[start:stop], self._v_staged[:rows]

    def append(self, keys, values) -> int:
        """Append KV pairs, rows first: (rows, *dim); returns how many
        chunks this call sealed. The values are summed straight from
        `values`, so a row's d_head values are not stored. Given the K
        view staged(rows) returned, it copies no key: numpy skips
        assigning an array to itself."""
        k = np.asarray(keys, dtype=np.float32)
        v = np.asarray(values, dtype=np.float32)
        if k.shape[1:] != self._k.shape[1:] or v.shape != k.shape:
            raise DimMismatch(f"keys {k.shape}, values {v.shape} for rows "
                              f"{self._k.shape[1:]}")
        if k.shape[0] < 1:
            raise DimMismatch("append of zero rows")
        start, stop = self.total_pairs, self.total_pairs + k.shape[0]
        self.reserve(stop)
        self._k[start:stop] = k
        self._v[start:stop] = v.sum(axis=-1, dtype=np.float64, keepdims=True)
        if self._knorm is not None:
            self._knorm[start:stop] = row_norms(self._k[start:stop])
        self.total_pairs = stop
        full = sealed_chunks(stop, self.n_sink, self.chunk)
        first = self._sealed
        # one chunk at a time on purpose: a one-call mean over a window's
        # chunks gives the same reps but holds a window-sized float64 copy
        # (4 MiB for 256 rows x 4 layers x 8 heads x 64), more than the
        # pre-fill memory bounds in test_engine and test_cli allow
        for j in range(first, full):
            lo = self.n_sink + j * self.chunk
            rep = rep_key_of(self._k[lo:lo + self.chunk]).astype(np.float64)
            self._rep[j] = rep
            self._rep_norm[j] = row_norms(rep)
        self._sealed = full
        return full - first

    @property
    def values(self) -> np.ndarray:
        """Read-only value sums of every committed row, as in a snapshot
        taken now."""
        return _read_only(self._v[:self.total_pairs])

    @property
    def tail_start(self) -> int:
        return tail_start_of(self.total_pairs, self.n_sink, self.n_local)

    def snapshot(self) -> CacheView:
        n = self.total_pairs
        return CacheView(
            n_sink=self.n_sink, chunk=self.chunk,
            keys=_read_only(self._k[:n]),
            values=_read_only(self._v[:n]),
            key_norms=(None if self._knorm is None
                       else _read_only(self._knorm[:n])),
            rep_keys=_read_only(self._rep[:self._sealed]),
            rep_norms=_read_only(self._rep_norm[:self._sealed]),
            tail_start=self.tail_start,
        )
