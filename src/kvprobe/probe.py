"""Streaming query statistics and probe-query construction.

A window's probe is a weighted sum of its query vectors. Weights come
from an activation bias: the per-dimension squared deviation of each
query from the running mean, normalized by the running variance, so
query tokens that deviate strongly from what the stream has seen so
far (anchor tokens) dominate the probe. Forcing uniform weights
recovers plain mean pooling, which is the comparison baseline.

Statistics are kept per (layer, head) and accumulate over all windows
seen so far, including the window whose bias is being computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimMismatch, as_matrix, as_vector

VAR_FLOOR = 1e-6


class StatsUndefined(ValueError):
    """Not enough samples for the requested statistic."""


class LengthMismatch(ValueError):
    pass


class StreamingStats:
    """Running per-dimension sum and sum of squares over query vectors.

    Accumulators are float64; variance uses the Bessel-corrected
    denominator (count - 1) and is clamped at zero per dimension.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.sum = np.zeros(dim, dtype=np.float64)
        self.sumsq = np.zeros(dim, dtype=np.float64)

    def update(self, window_queries) -> "StreamingStats":
        q = as_matrix(window_queries, cols=self.dim).astype(np.float64)
        self.count += q.shape[0]
        self.sum += q.sum(axis=0)
        self.sumsq += (q * q).sum(axis=0)
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
    phi: np.ndarray       # (m, d), non-negative
    weights: np.ndarray   # (m,), sums to 1


@dataclass(frozen=True)
class ProbeQuery:
    vector: np.ndarray
    layer: int = 0
    head: int = 0
    stage: str = "pre-filling"


def uniform_bias(rows: int, dim: int) -> ActivationBias:
    """Degenerate fallback: zero bias, uniform weights (mean pooling)."""
    return ActivationBias(phi=np.zeros((rows, dim), dtype=np.float32),
                          weights=np.full(rows, 1.0 / rows))


def activation_bias(window_queries, stats: StreamingStats) -> ActivationBias:
    """Per-token bias phi_j = (q_j - mean)^2 / max(var, 1e-6), elementwise,
    with weights[j] proportional to ||phi_j||_1.

    Precondition: stats already include this window's queries. Raises
    StatsUndefined when fewer than two samples exist; callers fall back
    to uniform weights. An all-zero bias (every query equal to the
    mean) also falls back to uniform weights.
    """
    q = as_matrix(window_queries, cols=stats.dim).astype(np.float64)
    if q.shape[0] < 1:
        raise DimMismatch("bias of an empty window")
    z = stats.mean()  # raises StatsUndefined when count < 1
    var = stats.variance()  # raises StatsUndefined when count < 2
    delta = q - z
    phi = (delta * delta) / np.maximum(var, VAR_FLOOR)
    row_mass = phi.sum(axis=1)  # ||phi_j||_1; phi is non-negative
    total = row_mass.sum()
    if total <= 0.0:
        return uniform_bias(q.shape[0], stats.dim)
    return ActivationBias(phi=phi.astype(np.float32), weights=row_mass / total)


def build_probe(window_queries, bias: ActivationBias,
                layer: int = 0, head: int = 0) -> ProbeQuery:
    """Pre-filling probe: convex combination of the window's queries."""
    q = as_matrix(window_queries).astype(np.float64)
    w = np.asarray(bias.weights, dtype=np.float64)
    if w.shape[0] != q.shape[0]:
        raise LengthMismatch(f"{w.shape[0]} weights for {q.shape[0]} queries")
    vec = (w[:, None] * q).sum(axis=0).astype(np.float32)
    return ProbeQuery(vector=vec, layer=layer, head=head, stage="pre-filling")


def decoding_probe(q, layer: int = 0, head: int = 0) -> ProbeQuery:
    """Decoding probe is the current query vector itself, unweighted."""
    return ProbeQuery(vector=as_vector(q).copy(), layer=layer, head=head,
                      stage="decoding")
