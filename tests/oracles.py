"""Scalar reference implementations that tests compare vectorized
kvprobe code against."""

import numpy as np

from kvprobe.cache import CacheView
from kvprobe.linalg import DimMismatch, NonFinite
from kvprobe.tracefile import TraceData


def layer_view(view: CacheView, l: int) -> CacheView:
    """Layer l's part of a view of (layers, heads, d_head) rows: the same
    tiers over that layer's contiguous rows, slices only."""
    norms = None if view.key_norms is None else view.key_norms[:, l]
    return CacheView(view.n_sink, view.chunk, view.keys[:, l],
                     view.values[:, l], norms, view.rep_keys[:, l],
                     view.rep_norms[:, l], view.tail_start, view.start)


def trace_values(trace: TraceData) -> np.ndarray:
    """Every position's d_head-wide values in token order, (positions,
    layers, heads, d_head): the windows' rows, then the decode tokens'.
    The cache keeps only their sums."""
    h = trace.header
    windows = trace.windows[:, :, :, 2].transpose(0, 3, 1, 2, 4)
    return np.concatenate([
        windows.reshape(-1, h.layers, h.heads, h.d_head),
        trace.decode[:, :, :, 2, 0]])


def value_sums(values) -> np.ndarray:
    """One layer's (pairs, heads, d_head) values as the cache keeps them:
    each row's sum, added in float64 and rounded once to float32, in a
    contiguous (pairs, heads, 1) array like a layer of the cache."""
    return (np.ascontiguousarray(values, dtype=np.float32)
            .sum(axis=-1, dtype=np.float64, keepdims=True)
            .astype(np.float32))


def max_score_scores(probe, view: CacheView) -> np.ndarray:
    """Max-score scores, bit for bit, from every member key: each row's
    float64 dot with the probe summed in numpy's fixed order along the
    row, the cosines (0 below a norm of 1e-12), each chunk's best and
    the mean over heads, summed in C order. probe and the scores are
    shaped as score_chunks_across_heads takes and gives them."""
    vec = np.asarray(probe, dtype=np.float64)
    if vec.ndim == 1:
        vec = vec[None]  # one head
    shape, c, lo, n = vec.shape[:-1], view.chunk, view.n_sink, view.n_candidates
    span = (view.chunk_rows(n - 1)[1] if n else lo) - lo
    keys = np.moveaxis(view.keys[lo:lo + span].reshape(span, *vec.shape),
                       0, -2)
    dots = (keys.astype(np.float64) * vec[..., None, :]).sum(axis=-1)
    norms = np.moveaxis(view.key_norms[lo:lo + span].reshape(span, *shape),
                        0, -1)
    probe_norms = np.sqrt(np.square(vec).sum(axis=-1))[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = dots / (probe_norms * norms)
    cos[(norms < 1e-12) | (probe_norms < 1e-12)] = 0.0
    if not np.isfinite(cos).all():
        raise NonFinite("non-finite chunk score")
    np.clip(cos, -1.0, 1.0, out=cos)
    padded = np.full((*shape, n * c), -np.inf)
    padded[..., :span] = cos
    best = padded.reshape(*shape, n, c).max(axis=-1)
    return np.ascontiguousarray(np.moveaxis(best, -2, -1)).mean(axis=-1)


def activation_phi(queries, history) -> np.ndarray:
    """The per-token activation bias of (rows, d) queries against the
    (n, d) history rows, n >= 2, in float64: (q - mean)^2 / max(var,
    1e-6) elementwise, with the Bessel-corrected variance. The probe's
    weights are its row sums, normalized."""
    hist = np.asarray(history, dtype=np.float64)
    dev = np.asarray(queries, dtype=np.float64) - hist.mean(axis=0)
    return dev ** 2 / np.maximum(hist.var(axis=0, ddof=1), 1e-6)


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
