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
    with np.errstate(invalid="ignore"):  # inf / inf is NaN, raised below
        c = float(np.dot(av, bv) / (na * nb))
    if not np.isfinite(c):
        raise NonFinite(f"cosine is {c}")
    # guard float round-off just outside the interval
    return min(1.0, max(-1.0, c))


def dense_attention(q, k, v, causal: bool = True) -> np.ndarray:
    """Scaled dot-product attention in float64, one query row at a time.

    q is (rows, d), k and v are (keys, d) single arrays. With causal=True
    query i sees keys 0..(keys - rows) + i.
    """
    Q = np.asarray(q, dtype=np.float64)
    K = np.asarray(k, dtype=np.float64)
    V = np.asarray(v, dtype=np.float64)
    n_hist = K.shape[0] - Q.shape[0]
    out = np.empty((Q.shape[0], V.shape[1]))
    for i, row in enumerate(Q):
        seen = K.shape[0] if not causal else n_hist + i + 1
        logits = K[:seen] @ row / np.sqrt(Q.shape[1])
        w = np.exp(logits - logits.max())
        out[i] = (w / w.sum()) @ V[:seen]
    return out
