"""Scalar reference implementations that tests compare vectorized
kvprobe code against."""

import numpy as np

from kvprobe.linalg import DimMismatch, NonFinite


def cosine(a, b) -> float:
    """Cosine similarity of two vectors in float64, in [-1, 1].

    A pair where either norm falls below 1e-12 carries no direction
    and scores 0, the scorer's convention.
    """
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    if av.shape != bv.shape:
        raise DimMismatch(f"cosine dims differ: {av.shape} vs {bv.shape}")
    na = np.sqrt(np.sum(av * av))
    nb = np.sqrt(np.sum(bv * bv))
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    c = float(np.dot(av, bv) / (na * nb))
    if not np.isfinite(c):
        raise NonFinite(f"cosine is {c}")
    # guard float round-off just outside the interval
    return min(1.0, max(-1.0, c))
