"""Acceptance gate: seven criteria, one test (and one pass/fail line
under pytest -v) each. Every tolerance is stated inline."""

import json
import math

import numpy as np

from kvprobe.cutoff import allocate
from kvprobe.engine import Engine, EngineConfig, run_trace
from kvprobe.linalg import entropy, softmax
from kvprobe.metrics import build_report
from kvprobe.probe import StreamingStats, activation_bias, build_probe, uniform_bias
from kvprobe.retrieval import select_topk
from oracles import activation_phi
from kvprobe.tracefile import (PlantedSpec, SyntheticConfig,
                               generate_synthetic, read_trace, write_trace)


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want) /
                        np.maximum(np.abs(want), 1e-8)))


def reference_allocate(theta, total):
    """Independent allocator: sequential share recurrence, then
    largest-remainder rounding at unit granularity."""
    remaining = float(total)
    real = []
    for i, th in enumerate(theta):
        denom = th + sum(theta[i + 1:])
        if denom <= 0:
            real.extend([remaining / (len(theta) - i)] * (len(theta) - i))
            remaining = 0.0
            break
        take = remaining * th / denom
        real.append(take)
        remaining = max(0.0, remaining - take)
    floors = [math.floor(x) for x in real]
    left = total - sum(floors)
    order = sorted(range(len(real)), key=lambda i: (-(real[i] - floors[i]), i))
    for i in order[:left]:
        floors[i] += 1
    return tuple(floors)


def test_criterion_1_formula_oracles():
    """Streaming stats, activation bias, and probe construction match
    batch recomputation on 1000 random windows (rel err <= 1e-5);
    score entropy matches an independent implementation to <= 1e-9 on
    1000 vectors; allocation matches hand execution for
    L in {1, 2, 3, 8, 32} including Theta=(3,1) -> (75,25)."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 12))
        rows = int(rng.integers(2, 12))
        n_groups = int(rng.integers(1, 4))
        groups = [rng.standard_normal(
            (int(rng.integers(2, 10)), d)).astype(np.float32)
            for _ in range(n_groups)]
        stats = StreamingStats(d)
        for g in groups:
            stats.update(g)
        batch = np.concatenate(groups).astype(np.float64)
        worst = max(worst, rel_err(stats.mean(), batch.mean(axis=0)))
        worst = max(worst, rel_err(stats.variance(),
                                   batch.var(axis=0, ddof=1)))
        window = rng.standard_normal((rows, d)).astype(np.float32)
        bias = activation_bias(window, stats)
        mass = activation_phi(window, batch).sum(axis=1)
        worst = max(worst, rel_err(bias.weights, mass / mass.sum()))
        probe = build_probe(window, bias)
        worst = max(worst, rel_err(
            probe.vector,
            (mass / mass.sum()) @ window.astype(np.float64)))
    assert worst <= 1e-5

    from scipy.special import softmax as sp_softmax
    from scipy.stats import entropy as sp_entropy
    worst_h = 0.0
    for _ in range(1000):
        scores = rng.standard_normal(int(rng.integers(1, 64))) * 3.0
        got = entropy(softmax(scores))
        want = float(sp_entropy(sp_softmax(scores)))
        worst_h = max(worst_h, abs(got - want))
    assert worst_h <= 1e-9

    assert allocate([3.0, 1.0], 100, chunk_size=1).budgets == (75, 25)
    for layers in (1, 2, 3, 8, 32):
        for _ in range(50):
            theta = rng.uniform(0.0, 5.0, size=layers)
            theta[rng.random(layers) < 0.15] = 0.0
            total = int(rng.integers(0, 64)) * layers
            got = allocate(theta.tolist(), total, chunk_size=1).budgets
            assert got == reference_allocate(theta.tolist(), total)
    print("criterion 1 PASS: formula oracles within 1e-5 / 1e-9, "
          "allocation matches hand recurrence")


def test_criterion_2_budget_conservation():
    """10^4 random density profiles: budgets sum to the shared total
    exactly; uniform densities split within one chunk."""
    rng = np.random.default_rng(7)
    for i in range(10_000):
        layers = int(rng.integers(1, 33))
        chunk = int(rng.integers(1, 9))
        per_layer = int(rng.integers(0, 47))
        total = layers * per_layer * chunk
        theta = rng.uniform(0.0, 4.0, size=layers)
        theta[rng.random(layers) < 0.1] = 0.0
        budgets = allocate(theta.tolist(), total, chunk_size=chunk).budgets
        assert sum(budgets) == total
        if i % 10 == 0:
            uniform = allocate([1.0] * layers, total, chunk_size=chunk).budgets
            assert max(uniform) - min(uniform) <= chunk
    print("criterion 2 PASS: 10^4 profiles conserve the total exactly; "
          "uniform splits within one chunk")


def test_criterion_3_topk_oracle():
    """Greedy selection equals the brute-force sorted prefix on 10^3
    random instances up to 10^4 chunks, ties included."""
    rng = np.random.default_rng(11)
    for i in range(1000):
        n = int(rng.integers(0, 10_001)) if i % 10 == 0 else int(
            rng.integers(0, 512))
        c = int(rng.integers(1, 65))
        # quantized scores force plenty of ties
        levels = int(rng.integers(1, 8))
        scores = rng.integers(0, levels, size=n) / max(levels - 1, 1)
        budget_chunks = int(rng.integers(0, n + 2))
        got = select_topk(scores, budget_chunks * c, c)
        order = sorted(range(n), key=lambda j: (-scores[j], j))
        want = tuple(order[:budget_chunks])
        assert got.selected == want
        assert got.pairs_used == len(want) * c
    print("criterion 3 PASS: 10^3 instances match brute force, "
          "ties break toward the lower chunk id")


def test_criterion_4_baseline_reduction():
    """Mean-pooling probes equal per-dimension means (<= 1e-6), and
    the activation path on degenerate windows falls back to the same."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        rows = int(rng.integers(1, 20))
        d = int(rng.integers(1, 16))
        window = rng.standard_normal((rows, d)).astype(np.float32)
        probe = build_probe(window, uniform_bias(rows))
        assert rel_err(probe.vector, window.astype(np.float64).mean(axis=0)) \
            <= 1e-6
        # identical rows: zero variance and zero deviation, no signal
        flat = np.tile(rng.standard_normal((1, d)).astype(np.float32),
                       (max(rows, 2), 1))
        stats = StreamingStats(d).update(flat)
        bias = activation_bias(flat, stats)
        act_probe = build_probe(flat, bias)
        mean_probe = build_probe(flat, uniform_bias(flat.shape[0]))
        assert np.max(np.abs(act_probe.vector - mean_probe.vector)) <= 1e-6
    print("criterion 4 PASS: mean probes are per-dimension means; "
          "degenerate activation windows reduce to mean pooling")


def test_criterion_5_default_geometry_constants():
    """Default geometry: 8 windows x 256 rows leave exactly 46
    retrievable chunks of 32 pairs behind 64 sinks, and every decode
    step attends 64 + 1472 + 512 = 2048 historical pairs per layer."""
    cfg = SyntheticConfig()  # the CLI's defaults
    spec = PlantedSpec.auto(cfg, per_step=1)
    trace = generate_synthetic(cfg, spec, seed=7)
    engine = Engine(EngineConfig(d=64, layers=4, heads=1, window=256))
    result = engine.run(trace)
    decode_steps = [s for s in result.steps if s.stage == "decoding"]
    assert len(decode_steps) == 16
    for step in decode_steps:
        for rec in step.layers:
            assert len(rec.candidate_ids) == 46
            assert rec.pairs_used == 46 * 32 == 1472
            assert rec.attended_pairs == 64 + 1472 + 512 == 2048
    view = engine.cache.snapshot()
    assert view.sink_keys.shape[0] == 64
    assert all(ch.rows == 32 for ch in view.retrievable)
    print("criterion 5 PASS: 46 retrievable chunks of 32 pairs; decode "
          "attends exactly 2048 pairs per layer")


def test_criterion_6_planted_recall_direction():
    """Over 100 seeds (d=64, L=4, signal 0.8, anchors 10%), the
    activation probe beats mean pooling on recall and on score
    perplexity in >= 70% of seeds."""
    cfg = SyntheticConfig(d=64, layers=4, heads=1, window=256,
                          num_windows=12, num_decode_steps=5)
    spec = PlantedSpec.auto(cfg, per_step=3, signal=0.8,
                            anchor_fraction=0.10, anchor_scale=4.0,
                            drift_scale=3.0)
    seeds = range(100)
    wins = 0
    for seed in seeds:
        trace = generate_synthetic(cfg, spec, seed=seed)
        overall = {}
        for mode in ("act", "mean"):
            ec = EngineConfig(d=64, layers=4, heads=1, window=256,
                              budget=256, probe_mode=mode)
            rep = build_report(run_trace(trace, ec), trace.ground_truth)
            overall[mode] = rep["overall"]
        recall_up = (overall["act"]["recall"]["mean"] >
                     overall["mean"]["recall"]["mean"])
        ppl_down = (overall["act"]["perplexity"]["mean"] <
                    overall["mean"]["perplexity"]["mean"])
        wins += recall_up and ppl_down
    assert wins >= 0.70 * len(seeds), f"only {wins} wins in {len(seeds)}"
    print(f"criterion 6 PASS: activation probe wins recall and "
          f"perplexity in {wins}/{len(seeds)} seeds (need >= 70)")


def test_criterion_7_determinism(tmp_path):
    """Identical runs yield byte-identical reports; the trace container
    round-trips bit-exactly."""
    from kvprobe.cli import main
    trace_path = tmp_path / "t.akvt"
    assert main(["gen-trace", "--seed", "7",
                 "--out", str(trace_path)]) == 0
    reports = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(["run", "--trace", str(trace_path),
                     "--report", str(path)]) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    json.loads(reports[0])  # the report is valid JSON

    _, reader = read_trace(trace_path)
    copy_path = tmp_path / "copy.akvt"
    write_trace(copy_path, reader.load())
    assert copy_path.read_bytes() == trace_path.read_bytes()
    print("criterion 7 PASS: byte-identical reports and bit-exact "
          "trace round-trip")
