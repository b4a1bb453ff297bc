"""Chunked, tiered KV cache per (layer, head) stream.

Incoming pairs route to three tiers: the first n_sink pairs become
attention sinks (immutable once filled), everything after accumulates
into an open chunk that seals every c pairs into the retrievable cold
tier, and a ring of the most recent n_local non-sink pairs forms the
hot local tail. The tail is a view for attention purposes: its pairs
also live in sealed chunks or the open buffer, which is where the
"every pair in exactly one tier" bookkeeping happens.

Chunks whose token span has fully left the local tail are the
retrieval candidates; a chunk still overlapping the tail is already
attendable and retrieving it again would double-count its pairs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .linalg import DimMismatch, as_matrix

def rep_key_of(keys) -> np.ndarray:
    """Representative key of a chunk: per-dimension mean of its rows.

    The "max-score" rep mode changes how a chunk is *scored* (max over
    member-key cosines, see retrieval), not what is stored.
    """
    k = as_matrix(keys)
    if k.shape[0] < 1:
        raise DimMismatch("representative of an empty key set")
    return np.mean(k.astype(np.float64), axis=0).astype(np.float32)


@dataclass(frozen=True)
class KVChunk:
    """A sealed group of consecutive KV pairs with its representative key."""

    chunk_id: int
    layer: int
    head: int
    start: int  # inclusive token positions
    end: int
    keys: np.ndarray
    values: np.ndarray
    rep_key: np.ndarray

    @property
    def rows(self) -> int:
        return int(self.keys.shape[0])


@dataclass(frozen=True)
class CacheView:
    """Immutable snapshot of one (layer, head) stream.

    chunks includes the trailing partial chunk (if the open buffer is
    non-empty) so it can be scored like any other; retrievable filters
    to chunks whose span ends before tail_start.
    """

    layer: int
    head: int
    sink_keys: np.ndarray
    sink_values: np.ndarray
    chunks: tuple[KVChunk, ...]
    local_keys: np.ndarray
    local_values: np.ndarray
    tail_start: int
    total_pairs: int

    @property
    def retrievable(self) -> tuple[KVChunk, ...]:
        return tuple(ch for ch in self.chunks if ch.end < self.tail_start)


class LayerCache:
    """Single-writer cache for one (layer, head) stream."""

    def __init__(self, dim: int, n_sink: int = 64, n_local: int = 512,
                 chunk: int = 32, layer: int = 0, head: int = 0):
        if dim < 1 or chunk < 1 or n_sink < 0 or n_local < 0:
            raise ValueError("cache geometry must be positive")
        self.dim = dim
        self.n_sink = n_sink
        self.n_local = n_local
        self.chunk = chunk
        self.layer = layer
        self.head = head
        self._sink_k: list[np.ndarray] = []
        self._sink_v: list[np.ndarray] = []
        self._chunks: list[KVChunk] = []
        self._open_k: list[np.ndarray] = []
        self._open_v: list[np.ndarray] = []
        self._tail: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=n_local)
        self.total_pairs = 0

    def append(self, keys, values) -> int:
        """Append KV pairs; returns how many chunks this call sealed."""
        k = as_matrix(keys, cols=self.dim)
        v = as_matrix(values, cols=self.dim)
        if k.shape != v.shape:
            raise DimMismatch(f"keys {k.shape} vs values {v.shape}")
        if k.shape[0] < 1:
            raise DimMismatch("append of zero rows")
        sealed = 0
        for row in range(k.shape[0]):
            kr = k[row].copy()
            vr = v[row].copy()
            if len(self._sink_k) < self.n_sink:
                self._sink_k.append(kr)
                self._sink_v.append(vr)
            else:
                self._open_k.append(kr)
                self._open_v.append(vr)
                if self.n_local > 0:
                    self._tail.append((kr, vr))
                if len(self._open_k) == self.chunk:
                    self._seal()
                    sealed += 1
            self.total_pairs += 1
        return sealed

    def _seal(self) -> None:
        cid = len(self._chunks)
        start = self.n_sink + cid * self.chunk
        keys = np.stack(self._open_k)
        vals = np.stack(self._open_v)
        self._chunks.append(KVChunk(
            chunk_id=cid, layer=self.layer, head=self.head,
            start=start, end=start + keys.shape[0] - 1,
            keys=keys, values=vals, rep_key=rep_key_of(keys),
        ))
        self._open_k = []
        self._open_v = []

    @property
    def tail_start(self) -> int:
        return max(min(self.total_pairs, self.n_sink),
                   self.total_pairs - self.n_local)

    def snapshot(self) -> CacheView:
        chunks = list(self._chunks)
        if self._open_k:
            cid = len(self._chunks)
            start = self.n_sink + cid * self.chunk
            keys = np.stack(self._open_k)
            vals = np.stack(self._open_v)
            chunks.append(KVChunk(
                chunk_id=cid, layer=self.layer, head=self.head,
                start=start, end=start + keys.shape[0] - 1,
                keys=keys, values=vals, rep_key=rep_key_of(keys),
            ))
        empty = np.zeros((0, self.dim), dtype=np.float32)
        return CacheView(
            layer=self.layer, head=self.head,
            sink_keys=np.stack(self._sink_k) if self._sink_k else empty,
            sink_values=np.stack(self._sink_v) if self._sink_v else empty,
            chunks=tuple(chunks),
            local_keys=np.stack([k for k, _ in self._tail]) if self._tail else empty,
            local_values=np.stack([v for _, v in self._tail]) if self._tail else empty,
            tail_start=self.tail_start,
            total_pairs=self.total_pairs,
        )
