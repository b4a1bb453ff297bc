"""Decoding-stage dynamic KV cut-off.

Each layer's information density is the entropy of its softmax-
normalized chunk scores: a flat score distribution means the probe
cannot tell chunks apart and the layer needs a bigger slice of the
shared budget. A step computes every layer's density in one call over
its (layers, n) scores, and selects every layer's chunks in one call.
Each layer's real-valued budget is its share of the total density,

    B_l = theta_l / sum(theta) * total,

which is what the sequential rule "each layer takes
theta_l / (theta_l + remaining layers' theta) of what is left"
telescopes to. Integerization uses largest-remainder apportionment in
chunk units (ties go to the shallower layer), which conserves the
total exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import softmax, unchecked_entropy
from .retrieval import SelectionResult, select_topk


@dataclass(frozen=True)
class BudgetAllocation:
    budgets: tuple[int, ...]


def layer_density(scores: np.ndarray):
    """Entropy (nats) of softmax over each layer's chunk scores, along
    the last axis: a float for one layer's (n,) scores, one per layer
    for (layers, n); 0 for a layer with no candidates (nothing cached
    to tell apart)."""
    if scores.shape[-1] == 0:
        return np.zeros(scores.shape[:-1]) if scores.ndim > 1 else 0.0
    # softmax's rows are distributions, so entropy's checks could not fail
    return unchecked_entropy(softmax(scores))


def allocate(theta, initial_total: int, chunk_size: int = 1) -> BudgetAllocation:
    """Split initial_total KV pairs across layers by information density.

    chunk_size > 1 apportions in whole chunks (initial_total must then
    be divisible by it; the engine passes c, which divides L*k). With
    all densities zero the split is equal, the uniform-density limit.
    """
    th = [float(t) for t in theta]
    n_layers = len(th)
    if n_layers < 1:
        raise ValueError("allocate needs at least one layer")
    if initial_total < 0:
        raise ValueError("negative budget total")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if initial_total % chunk_size != 0:
        raise ValueError(
            f"total {initial_total} not divisible by chunk size {chunk_size}")
    if any(t < 0 for t in th):
        raise ValueError("negative density")

    mass = sum(th)
    if not math.isfinite(mass):
        raise ValueError(f"densities {th} sum to {mass}, not a finite mass")
    if mass > 0.0:
        real = [t / mass * initial_total for t in th]
    else:
        real = [initial_total / n_layers] * n_layers

    units = initial_total // chunk_size
    shares = [r / chunk_size for r in real]
    floors = [math.floor(s) for s in shares]
    leftover = units - sum(floors)
    assert 0 <= leftover <= n_layers, "apportionment drifted"
    by_remainder = sorted(range(n_layers),
                          key=lambda i: (-(shares[i] - floors[i]), i))
    for i in by_remainder[:leftover]:
        floors[i] += 1
    return BudgetAllocation(budgets=tuple(f * chunk_size for f in floors))


def recall_layer(scores: np.ndarray, budget_pairs, rows
                 ) -> SelectionResult | tuple[SelectionResult, ...]:
    """Select each layer's chunks under its dynamic budget (scores,
    budgets and rows as in select_topk)."""
    return select_topk(scores, budget_pairs, rows)
