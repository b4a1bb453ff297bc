"""Streaming query statistics and probe-query construction.

A window's probe is a weighted sum of its query vectors. Weights come
from an activation bias: the per-dimension squared deviation of each
query from the running mean, normalized by the running variance, so
query tokens that deviate strongly from what the stream has seen so
far (anchor tokens) dominate the probe. Forcing uniform weights
recovers plain mean pooling, which is the comparison baseline.

Statistics are kept per layer and accumulate over all windows seen so
far, including the window whose bias is being computed. Queries are
(rows, d), or (heads, rows, d) with (heads, d) statistics; each head
then gets the same arithmetic as a call of its own.
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
    """(..., rows, d) queries as float64; rows checked against row_shape."""
    q = np.asarray(window_queries, dtype=np.float32)
    if q.ndim < 2 or row_shape not in (None, q.shape[:-2] + q.shape[-1:]):
        raise DimMismatch(f"queries {q.shape} for rows {row_shape}")
    return q.astype(np.float64)


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
        # in place: q is this call's own copy
        self.sumsq += np.square(q, out=q).sum(axis=-2)
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
    phi: np.ndarray       # (..., m, d), non-negative
    weights: np.ndarray   # (..., m), each row sums to 1


@dataclass(frozen=True)
class ProbeQuery:
    vector: np.ndarray    # (d,), (heads, d) or (layers, heads, d)


def uniform_bias(rows: int, dim: int) -> ActivationBias:
    """Degenerate fallback: zero bias, uniform weights (mean pooling)."""
    if rows < 1:
        raise DimMismatch("bias of an empty window")
    return ActivationBias(phi=np.zeros((rows, dim), dtype=np.float32),
                          weights=np.full(rows, 1.0 / rows))


def activation_bias(window_queries, stats: StreamingStats) -> ActivationBias:
    """Per-token bias phi_j = (q_j - mean)^2 / max(var, 1e-6), elementwise,
    with weights[j] proportional to ||phi_j||_1.

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
    phi = np.subtract(q, z, out=q)  # in place: q is this call's own copy
    np.square(phi, out=phi)
    phi /= np.maximum(var, VAR_FLOOR)
    row_mass = phi.sum(axis=-1)  # ||phi_j||_1; phi is non-negative
    total = row_mass.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(total <= 0.0, 1.0 / q.shape[-2], row_mass / total)
    return ActivationBias(phi=phi.astype(np.float32), weights=weights)


def build_probe(window_queries, bias: ActivationBias) -> ProbeQuery:
    """Pre-filling probe: convex combination of the window's queries."""
    q = _queries(window_queries)
    w = np.asarray(bias.weights, dtype=np.float64)
    if w.shape[-1] != q.shape[-2]:
        raise LengthMismatch(f"{w.shape[-1]} weights for "
                             f"{q.shape[-2]} queries")
    # in place: q is this call's own copy
    vec = np.multiply(w[..., None], q, out=q).sum(axis=-2).astype(np.float32)
    return ProbeQuery(vector=vec)


def decoding_probe(q) -> ProbeQuery:
    """Decoding probe is the current query itself, unweighted."""
    return ProbeQuery(vector=np.array(q, dtype=np.float32))
