import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvprobe.cutoff import allocate, layer_density, recall_layer
from kvprobe.linalg import entropy, softmax

densities = st.lists(st.floats(min_value=0.0, max_value=10.0,
                               allow_nan=False), min_size=1, max_size=32)


def hand_allocate(theta, total):
    """Independent sequential recurrence at unit granularity: each
    layer takes density/(density + remaining densities) of what is
    left; the final layer absorbs the remainder."""
    remaining = float(total)
    out = []
    for i, th in enumerate(theta):
        denom = th + sum(theta[i + 1:])
        if denom <= 0:
            share = remaining / (len(theta) - i)
            out.extend([share] * (len(theta) - i))
            return out
        take = remaining * th / denom
        out.append(take)
        remaining -= take
    return out


def test_example_allocation():
    assert allocate([3.0, 1.0], 100, chunk_size=1).budgets == (75, 25)


def test_last_layer_absorbs_remainder():
    b = allocate([1.0, 1.0, 2.0], 100, chunk_size=1).budgets
    assert sum(b) == 100
    assert b == (25, 25, 50)


def test_zero_density_tail_splits_evenly():
    assert allocate([0.0, 0.0], 100, chunk_size=1).budgets == (50, 50)
    # a nonzero layer followed by zero-density layers absorbs the rest
    assert allocate([2.0, 0.0, 0.0], 90, chunk_size=1).budgets == (90, 0, 0)


def test_chunk_granularity():
    b = allocate([3.0, 1.0], 128, chunk_size=32).budgets
    assert sum(b) == 128
    assert all(x % 32 == 0 for x in b)
    assert b == (96, 32)


def test_allocate_validates_inputs():
    with pytest.raises(ValueError):
        allocate([], 100, chunk_size=1)
    with pytest.raises(ValueError):
        allocate([1.0], -1, chunk_size=1)
    with pytest.raises(ValueError):
        allocate([1.0], 100, chunk_size=0)
    with pytest.raises(ValueError):
        allocate([1.0, 1.0], 100, chunk_size=32)  # not divisible
    with pytest.raises(ValueError):
        allocate([-0.5, 1.0], 100, chunk_size=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_allocate_rejects_non_finite_density(bad):
    """A NaN density would split the budget evenly, and an infinite one
    would fail converting NaN to an int: both are named instead."""
    with pytest.raises(ValueError, match=rf"densities \[{bad}, 1.0\]"):
        allocate([bad, 1.0], 96, chunk_size=32)


@settings(max_examples=150, deadline=None)
@given(densities, st.integers(0, 64), st.integers(1, 8))
def test_allocation_conserves_total(theta, chunks_per_layer, chunk_size):
    total = len(theta) * chunks_per_layer * chunk_size
    b = allocate(theta, total, chunk_size=chunk_size).budgets
    assert sum(b) == total
    assert all(x >= 0 and x % chunk_size == 0 for x in b)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 32), st.integers(0, 50), st.integers(1, 8),
       st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
def test_uniform_density_splits_evenly(layers, chunks_per_layer, chunk_size,
                                       level):
    total = layers * chunks_per_layer * chunk_size
    b = allocate([level] * layers, total, chunk_size=chunk_size).budgets
    assert max(b) - min(b) <= chunk_size


@settings(max_examples=100, deadline=None)
@given(densities, st.integers(0, 200))
def test_allocation_tracks_hand_recurrence(theta, total):
    got = allocate(theta, total, chunk_size=1).budgets
    want = hand_allocate(theta, total)
    assert sum(got) == total
    # integer apportionment moves each layer less than one unit from
    # the real-valued recurrence
    for g, w in zip(got, want):
        assert abs(g - w) < 1.0 + 1e-9


def test_layer_density_is_score_entropy():
    scores = [0.0, math.log(3.0)]
    want = entropy(softmax(np.asarray(scores)))
    got = layer_density(np.asarray(scores))
    assert got == pytest.approx(want, abs=1e-12)
    assert layer_density(np.zeros(0)) == 0.0


def test_recall_layer_respects_budget():
    scores = 1.0 - 0.1 * np.arange(5)
    sel = recall_layer(scores, budget_pairs=8, rows=4)
    assert sel.selected == (0, 1)
    assert sel.pairs_used == 8
