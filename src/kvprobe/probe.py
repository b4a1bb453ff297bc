"""Streaming query statistics and probe-query construction.

A window's probe is a weighted sum of its query vectors. Weights come
from an activation bias: the per-dimension squared deviation of each
query from the running mean, normalized by the running variance, so
query tokens that deviate strongly from what the stream has seen so
far (anchor tokens) dominate the probe. Forcing uniform weights
recovers plain mean pooling, which is the comparison baseline.

Statistics accumulate over all windows seen so far, including the
window whose bias is being computed; the engine keeps one set per
layer and head. Queries are (rows, d), or (heads, rows, d) with
(heads, d) statistics; each head then gets the same arithmetic as a
call of its own. Float64 queries are read in place, never copied or
written, and each step makes one temporary of their size (the
squares, the deviations, the weighted rows), so a caller can convert
a window's queries to float64 once and pass that copy to all three;
queries of another dtype are converted to float64 by each call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimMismatch

VAR_FLOOR = 1e-6


class StatsUndefined(ValueError):
    """Not enough samples for the requested statistic."""


class LengthMismatch(ValueError):
    pass


def _queries(window_queries, row_shape=None) -> np.ndarray:
    """(..., rows, d) queries as float64, not copied when they are
    float64 already; rows checked against row_shape."""
    q = np.asarray(window_queries, dtype=np.float64)
    if q.ndim < 2 or row_shape not in (None, q.shape[:-2] + q.shape[-1:]):
        raise DimMismatch(f"queries {q.shape} for rows {row_shape}")
    return q


class StreamingStats:
    """Running per-dimension sum and sum of squares over query vectors.

    Accumulators are float64 arrays of shape dim; variance uses the
    Bessel-corrected denominator (count - 1), clamped at zero.
    """

    def __init__(self, dim: int | tuple[int, int]):
        self.count = 0
        self.sum = np.zeros(dim, dtype=np.float64)
        self.sumsq = np.zeros(dim, dtype=np.float64)

    def update(self, window_queries) -> "StreamingStats":
        q = _queries(window_queries, self.sum.shape)
        self.count += q.shape[-2]
        self.sum += q.sum(axis=-2)
        self.sumsq += np.square(q).sum(axis=-2)
        return self

    def mean(self) -> np.ndarray:
        if self.count < 1:
            raise StatsUndefined("mean needs at least one sample")
        return self.sum / self.count

    def variance(self) -> np.ndarray:
        if self.count < 2:
            raise StatsUndefined("variance needs at least two samples")
        z = self.mean()
        var = (self.sumsq - self.count * z * z) / (self.count - 1)
        return np.maximum(var, 0.0)


@dataclass(frozen=True)
class ActivationBias:
    weights: np.ndarray   # (..., m), each row sums to 1


@dataclass(frozen=True)
class ProbeQuery:
    vector: np.ndarray    # (d,), (heads, d) or (layers, heads, d)


def uniform_bias(rows: int) -> ActivationBias:
    """Degenerate fallback: uniform weights (mean pooling)."""
    if rows < 1:
        raise DimMismatch("bias of an empty window")
    return ActivationBias(weights=np.full(rows, 1.0 / rows))


def activation_bias(window_queries, stats: StreamingStats) -> ActivationBias:
    """Weights[j] proportional to ||phi_j||_1, where the per-token bias
    phi_j = (q_j - mean)^2 / max(var, 1e-6), elementwise. phi is this
    call's one temporary and is not returned.

    Precondition: stats already include this window's queries. Raises
    StatsUndefined when fewer than two samples exist; callers fall back
    to uniform weights. A head whose bias is all zero (every query
    equal to the mean) also falls back to uniform weights.
    """
    q = _queries(window_queries, stats.sum.shape)
    if q.shape[-2] < 1:
        raise DimMismatch("bias of an empty window")
    z = stats.mean()[..., None, :]  # raises StatsUndefined when count < 1
    var = stats.variance()[..., None, :]  # StatsUndefined when count < 2
    phi = np.subtract(q, z)
    np.square(phi, out=phi)
    phi /= np.maximum(var, VAR_FLOOR)
    row_mass = phi.sum(axis=-1)  # ||phi_j||_1; phi is non-negative
    total = row_mass.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(total <= 0.0, 1.0 / q.shape[-2], row_mass / total)
    return ActivationBias(weights=weights)


def build_probe(window_queries, bias: ActivationBias) -> ProbeQuery:
    """Pre-filling probe: convex combination of the window's queries."""
    q = _queries(window_queries)
    w = np.asarray(bias.weights, dtype=np.float64)
    if w.shape[-1] != q.shape[-2]:
        raise LengthMismatch(f"{w.shape[-1]} weights for "
                             f"{q.shape[-2]} queries")
    vec = np.multiply(w[..., None], q).sum(axis=-2).astype(np.float32)
    return ProbeQuery(vector=vec)


def decoding_probe(q) -> ProbeQuery:
    """Decoding probe is the current query itself, unweighted."""
    return ProbeQuery(vector=np.array(q, dtype=np.float32))
