"""Scalar reference implementations that tests compare vectorized
kvprobe code against."""

import numpy as np

from kvprobe.cache import CacheView
from kvprobe.linalg import DimMismatch, NonFinite


def layer_view(view: CacheView, l: int) -> CacheView:
    """Layer l's part of a view of (layers, heads, d_head) rows: the same
    tiers over that layer's contiguous rows, slices only."""
    norms = None if view.key_norms is None else view.key_norms[:, l]
    return CacheView(view.n_sink, view.chunk, view.keys[:, l],
                     view.values[:, l], view.value_sums[:, l], norms,
                     view.rep_keys[:, l], view.rep_norms[:, l],
                     view.tail_start)


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


def dense_attention(q, k, v) -> np.ndarray:
    """Scaled dot-product attention in float64, one query row at a time.

    q is (rows, d), k and v are (keys, d) single arrays; every row sees
    every key.
    """
    Q = np.asarray(q, dtype=np.float64)
    K = np.asarray(k, dtype=np.float64)
    V = np.asarray(v, dtype=np.float64)
    out = np.empty((Q.shape[0], V.shape[1]))
    for i, row in enumerate(Q):
        logits = K @ row / np.sqrt(Q.shape[1])
        w = np.exp(logits - logits.max())
        out[i] = (w / w.sum()) @ V
    return out
