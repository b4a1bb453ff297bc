"""Dense numeric kernels shared by every other module.

Vectors are 1-D float32 numpy arrays, matrices 2-D float32 row-major.
All reductions accumulate in float64 and only the stored payloads are
kept in float32, so results are reproducible across platforms at the
dimensions this engine targets (d <= 4096).
"""

from __future__ import annotations

import numpy as np

ZERO_NORM_EPS = 1e-12


class EmptyInput(ValueError):
    pass


class NotNormalized(ValueError):
    """Input is not a probability distribution."""


class DimMismatch(ValueError):
    pass


class NonFinite(ValueError):
    """A similarity came out NaN or infinite."""


def as_matrix(x, cols: int | None = None) -> np.ndarray:
    m = np.asarray(x, dtype=np.float32)
    if m.ndim != 2:
        raise DimMismatch(f"expected 2-D matrix, got shape {m.shape}")
    if cols is not None and m.shape[1] != cols:
        raise DimMismatch(f"expected {cols} columns, got {m.shape[1]}")
    return m


def row_norms(m) -> np.ndarray:
    """float64 L2 norm along the last axis."""
    x = np.asarray(m, dtype=np.float64)
    return np.sqrt(np.sum(x * x, axis=-1))


def softmax(scores) -> np.ndarray:
    """Probabilities proportional to exp(score), stabilized by max-subtraction."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    if s.size == 0:
        raise EmptyInput("softmax of empty score list")
    if not np.all(np.isfinite(s)):
        raise NotNormalized("softmax input contains non-finite entries")
    e = np.exp(s - np.max(s))
    return e / np.sum(e)


def entropy(probs) -> float:
    """Shannon entropy in nats, with 0*log(0) = 0."""
    p = np.asarray(probs, dtype=np.float64).ravel()
    if p.size == 0:
        raise EmptyInput("entropy of empty distribution")
    if np.any(p < 0):
        raise NotNormalized("negative probability entry")
    total = float(np.sum(p))
    if abs(total - 1.0) > 1e-4:
        raise NotNormalized(f"probabilities sum to {total}, not 1")
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)))
