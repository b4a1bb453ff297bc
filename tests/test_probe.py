import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvprobe.linalg import DimMismatch
from kvprobe.probe import (ActivationBias, LengthMismatch, StatsUndefined,
                           StreamingStats, activation_bias, build_probe,
                           decoding_probe, uniform_bias)
from oracles import activation_phi

finite = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


def matrices(rows, cols):
    return st.lists(st.lists(finite, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
                        lambda m: np.asarray(m, dtype=np.float32))


def test_running_mean_and_variance_example():
    st_ = StreamingStats(1).update(np.array([[0.0], [2.0], [4.0]]))
    assert st_.mean() == pytest.approx([2.0])
    assert st_.variance() == pytest.approx([4.0])  # Bessel-corrected


def test_stats_undefined_until_two_rows():
    s = StreamingStats(2)
    with pytest.raises(StatsUndefined):
        s.mean()
    s.update(np.array([[1.0, 2.0]]))
    assert s.mean() == pytest.approx([1.0, 2.0])
    with pytest.raises(StatsUndefined):
        s.variance()
    s.update(np.array([[1.0, 2.0]]))
    assert s.variance() == pytest.approx([0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(matrices(2, 3), min_size=1, max_size=5))
def test_streaming_matches_batch(groups):
    s = StreamingStats(3)
    for g in groups:
        s.update(g)
    full = np.concatenate(groups).astype(np.float64)
    assert s.mean() == pytest.approx(full.mean(axis=0), abs=1e-6)
    if full.shape[0] >= 2:
        want = full.var(axis=0, ddof=1)
        assert s.variance() == pytest.approx(want, abs=1e-4)


def test_activation_bias_example():
    """Per-dimension squared deviation over variance: stats {0,2,4}
    give mean 2 and variance 4, so a row at 4 scores (4-2)^2/4 = 1."""
    history = np.array([[0.0], [2.0], [4.0]])
    q = np.array([[4.0], [3.0]], dtype=np.float32)
    phi = activation_phi(q, history)
    assert phi.ravel() == pytest.approx([1.0, 0.25])
    bias = activation_bias(q, StreamingStats(1).update(history))
    assert bias.weights == pytest.approx([0.8, 0.2])


def test_weights_proportional_to_row_mass():
    s = StreamingStats(2).update(np.array([[0.0, 0.0], [2.0, 2.0],
                                           [-2.0, -2.0]]))
    # variance is 4 per dim; rows deviating by (2,0) and (2,4) have
    # phi row sums 1 and 1+4=... pick rows with l1 masses 1 and 3
    q = np.array([[2.0, 0.0], [2.0, np.sqrt(8.0)]], dtype=np.float32)
    bias = activation_bias(q, s)
    assert bias.weights == pytest.approx([0.25, 0.75], abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(matrices(4, 3), matrices(3, 3))
def test_weights_normalize(history, window):
    s = StreamingStats(3).update(history)
    bias = activation_bias(window, s)
    assert bias.weights.sum() == pytest.approx(1.0, abs=1e-5)
    assert (bias.weights >= 0).all()
    mass = activation_phi(window, history).sum(axis=1)
    if mass.sum() > 0:
        assert bias.weights == pytest.approx(mass / mass.sum(), rel=1e-4,
                                             abs=1e-6)


def test_identical_rows_fall_back_to_uniform():
    """Zero variance and zero deviation leave no activation signal;
    the bias degrades to plain mean pooling."""
    rows = np.tile(np.array([[1.0, -2.0]], dtype=np.float32), (5, 1))
    s = StreamingStats(2).update(rows)
    bias = activation_bias(rows, s)
    assert bias.weights == pytest.approx(np.full(5, 0.2))


def test_uniform_bias_shape():
    bias = uniform_bias(4)
    assert bias.weights.shape == (4,)
    assert bias.weights == pytest.approx(np.full(4, 0.25))


def test_uniform_bias_of_an_empty_window_raises():
    """As activation_bias does, not with a division by zero rows."""
    with pytest.raises(DimMismatch, match="empty window"):
        uniform_bias(0)


def test_build_probe_example():
    q = np.array([[4.0, 0.0], [0.0, 4.0]], dtype=np.float32)
    bias = ActivationBias(weights=np.array([0.25, 0.75], dtype=np.float32))
    probe = build_probe(q, bias)
    assert probe.vector == pytest.approx([1.0, 3.0])


def test_build_probe_rejects_length_mismatch():
    q = np.zeros((3, 2), dtype=np.float32)
    with pytest.raises(LengthMismatch):
        build_probe(q, uniform_bias(2))


@settings(max_examples=60, deadline=None)
@given(matrices(5, 4), matrices(4, 4))
def test_probe_stays_in_row_convex_hull(history, window):
    s = StreamingStats(4).update(history)
    probe = build_probe(window, activation_bias(window, s))
    lo = window.min(axis=0) - 1e-4
    hi = window.max(axis=0) + 1e-4
    assert ((probe.vector >= lo) & (probe.vector <= hi)).all()


def test_decoding_probe_is_identity():
    q = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    probe = decoding_probe(q)
    assert probe.vector == pytest.approx(q)
    q[0] = 99.0  # the probe must hold its own copy
    assert probe.vector[0] == pytest.approx(1.0)


def bias_or_error(window, stats):
    try:
        return activation_bias(window, stats)
    except StatsUndefined:
        return StatsUndefined


@settings(max_examples=150, deadline=None)
@given(heads=st.integers(1, 4), rows=st.integers(1, 6), d=st.integers(1, 5),
       history=st.integers(0, 6), flat_head=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_batched_probe_math_equals_per_head_calls(heads, rows, d, history,
                                                  flat_head, seed):
    """Stats, bias and probe on (heads, rows, d) queries are bit for bit
    H separate 2-D calls; a head whose queries all equal its running
    mean falls back to uniform weights on its own."""
    rng = np.random.default_rng(seed)
    hist = (rng.standard_normal((heads, history, d)) * 3).astype(np.float32)
    window = rng.standard_normal((heads, rows, d)).astype(np.float32)
    if flat_head < heads:
        row = rng.standard_normal(d).astype(np.float32)
        hist[flat_head] = row
        window[flat_head] = row

    batched = StreamingStats((heads, d))
    singles = [StreamingStats(d) for _ in range(heads)]
    for block in (hist, window):
        batched.update(block)
        for h, s in enumerate(singles):
            s.update(block[h])
    assert batched.count == singles[0].count == history + rows
    assert np.array_equal(batched.sum, np.stack([s.sum for s in singles]))
    assert np.array_equal(batched.sumsq,
                          np.stack([s.sumsq for s in singles]))

    bias = bias_or_error(window, batched)
    per_head = [bias_or_error(window[h], s) for h, s in enumerate(singles)]
    if bias is StatsUndefined:  # a single sample in all
        assert all(b is StatsUndefined for b in per_head)
        bias = uniform_bias(rows)
        per_head = [bias] * heads
    else:
        assert np.array_equal(bias.weights,
                              np.stack([b.weights for b in per_head]))
        if flat_head < heads:
            assert np.array_equal(bias.weights[flat_head],
                                  np.full(rows, 1.0 / rows))
    probe = build_probe(window, bias)
    want = np.stack([build_probe(window[h], b).vector
                     for h, b in enumerate(per_head)])
    assert probe.vector.shape == (heads, d)
    assert np.array_equal(probe.vector, want)


def test_probe_steps_read_float64_queries_in_place():
    """Stats, bias and probe neither write into float64 queries nor copy
    them: each holds at most one temporary of their size, beside
    numpy's 64 KiB buffer for broadcast operands (8192 float64), so a
    caller's one float64 copy feeds all three."""
    rng = np.random.default_rng(0)
    q = rng.standard_normal((2, 256, 64))
    q.setflags(write=False)
    stats = StreamingStats((2, 64)).update(rng.standard_normal((2, 8, 64)))
    for step in (lambda: stats.update(q), lambda: activation_bias(q, stats),
                 lambda: build_probe(q, uniform_bias(256))):
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < q.nbytes + 8192 * 8 + 16 * 1024, peak
