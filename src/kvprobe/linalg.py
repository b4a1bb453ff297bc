"""Dense numeric kernels and error types shared by every other module.

Stored payloads are float32. Norms, softmax and entropy accumulate in
float64, so scores and densities are reproducible across platforms at
the dimensions this engine targets (d <= 4096). Attention
(engine.reference_attention) is the exception: its logits and
weighted value sums are float32 products on the cached rows, and only
its softmax runs in float64.
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
