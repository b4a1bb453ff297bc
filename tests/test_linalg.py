import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kvprobe.linalg import (DimMismatch, EmptyInput, NonFinite, NotNormalized,
                            entropy, softmax)
from oracles import cosine  # the scoring oracle of test_retrieval

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
vectors = st.lists(finite, min_size=1, max_size=32)


def test_cosine_known_value():
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
        0.70710678, abs=1e-8)


def test_cosine_orthogonal_and_opposite():
    assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    assert cosine([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(-1.0)


def test_cosine_zero_vector_rules():
    # a degenerate side has no direction and scores zero
    assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0
    assert cosine([1.0, 2.0], [0.0, 0.0]) == 0.0


def test_cosine_rejects_non_finite_input():
    """NaN used to come out as -1.0 through the [-1, 1] clamp."""
    with pytest.raises(NonFinite):
        cosine([math.nan, 1.0], [1.0, 1.0])
    with pytest.raises(NonFinite):
        cosine([math.inf, 1.0], [1.0, 1.0])


def test_cosine_dim_mismatch():
    with pytest.raises(DimMismatch):
        cosine([1.0, 2.0], [1.0, 2.0, 3.0])


@given(vectors, st.floats(min_value=0.1, max_value=100.0))
def test_cosine_scale_invariant(v, a):
    arr = np.asarray(v)
    if np.linalg.norm(arr) < 1e-6:
        return
    assert cosine(arr, a * arr) == pytest.approx(1.0, abs=1e-6)
    assert abs(cosine(arr, np.roll(arr, 1))) <= 1.0 + 1e-12


def test_softmax_known_value():
    out = softmax([0.0, math.log(3.0)])
    assert out == pytest.approx([0.25, 0.75], abs=1e-12)


def test_softmax_rejects_empty_and_nonfinite():
    with pytest.raises(EmptyInput):
        softmax([])
    with pytest.raises(NotNormalized):
        softmax([0.0, float("nan")])
    with pytest.raises(NotNormalized):
        softmax([0.0, float("inf")])


@given(vectors)
def test_softmax_normalizes(v):
    out = softmax(v)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)
    assert (out >= 0).all()


@given(vectors, st.floats(min_value=-50, max_value=50))
def test_softmax_shift_invariant(v, c):
    a = softmax(np.asarray(v))
    b = softmax(np.asarray(v) + c)
    assert a == pytest.approx(b, abs=1e-9)


def test_entropy_known_value():
    assert entropy([0.25, 0.75]) == pytest.approx(0.5623351, abs=1e-7)


def test_entropy_handles_zero_mass_terms():
    assert entropy([1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_entropy_rejects_bad_distributions():
    with pytest.raises(NotNormalized):
        entropy([0.5, 0.6])
    with pytest.raises(NotNormalized):
        entropy([1.5, -0.5])


@given(vectors)
def test_entropy_of_softmax_bounded(v):
    h = entropy(softmax(v))
    assert -1e-12 <= h <= math.log(len(v)) + 1e-9



def test_softmax_and_entropy_reduce_each_row():
    """A (layers, n) call is one distribution per row: it equals the
    stacked 1-D calls bit for bit, not one distribution over all rows."""
    scores = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 301))
    probs = softmax(scores)
    assert np.array_equal(probs, np.stack([softmax(s) for s in scores]))
    h = entropy(probs)
    assert h.shape == (4,)
    assert np.array_equal(h, np.array([entropy(p) for p in probs]))
    assert isinstance(entropy(probs[0]), float)


def test_a_bad_row_raises_in_two_dimensional_calls():
    scores = np.zeros((3, 5))
    scores[1, 2] = np.nan
    with pytest.raises(NotNormalized):
        softmax(scores)
    probs = np.full((3, 4), 0.25)
    for bad in (np.nan, 0.5, -0.25):
        p = probs.copy()
        p[2, 0] = bad
        with pytest.raises(NotNormalized):
            entropy(p)
