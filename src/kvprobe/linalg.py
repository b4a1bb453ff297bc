"""Dense numeric kernels and error types shared by every other module.

Stored payloads are float32. Norms, softmax and entropy accumulate in
float64 at the dimensions this engine targets (d <= 4096). Max-score
scores take their exact dots without BLAS and are the same on any
BLAS kernel. Mean-mode scores and attention are BLAS products, which
another kernel may move in the last bit, and densities (theta) use
numpy's SIMD exp and log, which another SIMD level
(NPY_DISABLE_CPU_FEATURES) may move. Attention
(engine.reference_attention, one call per step for every layer and
head, made only by an engine that attends: ``kvprobe run --records``)
keeps less precision: its logits are float32 products on the cached
keys and its weighted sums float32 products on the cached values,
each row's value sum; only its softmax runs in float64. No report
reads it, so reports never depend on its bits.
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
    return np.sqrt(np.square(m, dtype=np.float64).sum(axis=-1))


def softmax(scores) -> np.ndarray:
    """Probabilities proportional to exp(score) along the last axis,
    stabilized by max-subtraction; each row is one distribution."""
    s = np.atleast_1d(np.asarray(scores, dtype=np.float64))
    if s.size == 0:
        raise EmptyInput("softmax of empty score list")
    if not np.isfinite(s).all():
        raise NotNormalized("softmax input contains non-finite entries")
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def entropy(probs):
    """Shannon entropy in nats along the last axis, with 0*log(0) = 0:
    a float for one distribution, one per row for several."""
    p = np.atleast_1d(np.asarray(probs, dtype=np.float64))
    if p.size == 0:
        raise EmptyInput("entropy of empty distribution")
    if (p < 0).any():
        raise NotNormalized("negative probability entry")
    total = p.sum(axis=-1)
    off = ~(np.abs(total - 1.0) <= 1e-4)  # a NaN row is off too
    if off.any():
        raise NotNormalized(f"probabilities sum to {total[off].flat[0]}, "
                            "not 1")
    return unchecked_entropy(p)


def unchecked_entropy(p: np.ndarray):
    """entropy of a float64 array whose rows are known distributions,
    such as softmax's output, without its checks."""
    log_p = np.log(p, out=np.zeros(p.shape), where=p > 0)
    h = -(p * log_p).sum(axis=-1)
    return float(h) if h.ndim == 0 else h
