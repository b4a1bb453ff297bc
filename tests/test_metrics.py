import copy
import math

import numpy as np
import pytest

from kvprobe.cutoff import layer_density
from kvprobe.engine import EngineConfig, run_trace
from kvprobe.metrics import (ConfigMismatch, EmptyTruth, build_report,
                             compare_runs, recall_at_budget, report_to_csv)
from kvprobe.tracefile import (PlantedSpec, SyntheticConfig, TraceFormatError,
                               generate_synthetic)

CFG = SyntheticConfig(d=8, layers=2, heads=1, window=8, num_windows=6,
                      num_decode_steps=3, n_sink=2, chunk=2, n_local=4)


def run_report(seed=0, probe_mode="act", sha="abc", planted=True):
    spec = PlantedSpec.auto(CFG, per_step=1) if planted else None
    trace = generate_synthetic(CFG, spec, seed=seed)
    ec = EngineConfig(d=8, layers=2, heads=1, window=8, chunk=2, n_sink=2,
                      n_local=4, budget=4, probe_mode=probe_mode)
    return build_report(run_trace(trace, ec), trace.ground_truth,
                        trace_sha256=sha)


def perplexity(scores) -> float:
    """A report's perplexity sample: exp of the layer density theta."""
    return math.exp(layer_density(np.asarray(scores, dtype=np.float64)))


def test_score_perplexity_uniform_equals_count():
    assert perplexity([0.5] * 7) == pytest.approx(7.0)
    assert perplexity([]) == 1.0


def test_score_perplexity_sharp_scores_head_toward_one():
    sharp = perplexity([50.0, 0.0, 0.0, 0.0])
    assert sharp == pytest.approx(1.0, abs=1e-6)


def test_recall_at_budget():
    assert recall_at_budget([1, 2, 3], [2, 9]) == pytest.approx(0.5)
    assert recall_at_budget([], [1]) == 0.0
    with pytest.raises(EmptyTruth):
        recall_at_budget([1, 2], [])


def test_report_structure():
    rep = run_report()
    assert rep["version"] == 1
    assert rep["trace_sha256"] == "abc"
    assert rep["config"]["probe_mode"] == "act"
    assert len(rep["layers"]) == 2
    for row in rep["layers"]:
        m = row["metrics"]
        assert set(m) == {"score", "perplexity", "recall", "prefill_recall",
                          "decode_recall", "budget"}
        # every step contributes one perplexity sample
        assert m["perplexity"]["count"] == 6 + 3
        assert m["budget"]["count"] == 3
        assert m["recall"]["count"] == (m["prefill_recall"]["count"] +
                                        m["decode_recall"]["count"])
    assert rep["overall"]["recall"]["count"] == sum(
        row["metrics"]["recall"]["count"] for row in rep["layers"])


def test_report_without_ground_truth_has_no_recall_samples():
    rep = run_report(planted=False)
    assert rep["overall"]["recall"]["count"] == 0
    assert rep["overall"]["recall"]["mean"] is None
    assert rep["overall"]["perplexity"]["count"] > 0


def test_ground_truth_geometry_must_match_run():
    spec = PlantedSpec.auto(CFG, per_step=1)
    trace = generate_synthetic(CFG, spec, seed=0)
    ec = EngineConfig(d=8, layers=2, heads=1, window=8, chunk=2, n_sink=2,
                      n_local=4, budget=4)
    result = run_trace(trace, ec)
    gt = copy.deepcopy(trace.ground_truth)
    gt["chunk"] = 4
    with pytest.raises(ConfigMismatch):
        build_report(result, gt)


def test_report_checks_the_footer_against_the_replayed_trace():
    """build_report applies the trace reader's footer rules to a footer a
    library caller passes in."""
    spec = PlantedSpec.auto(CFG, per_step=1)
    trace = generate_synthetic(CFG, spec, seed=0)
    ec = EngineConfig(d=8, layers=2, heads=1, window=8, chunk=2, n_sink=2,
                      n_local=4, budget=4)
    result = run_trace(trace, ec)
    gt = trace.ground_truth
    entry = next(e for e in gt["entries"] if any(e["layers"]))
    for bad in (dict(gt, version=2),
                dict(gt, entries=[dict(entry, probe_window=None)]),
                dict(gt, entries=[dict(entry, decode_step=3)])):
        with pytest.raises(TraceFormatError):
            build_report(result, bad)


def test_prefill_recall_skips_chunks_that_are_not_candidates_yet():
    """At pre-fill window 3 the candidates are chunks 0..n-1; a planted
    chunk n counts toward the decode recall only."""
    trace = generate_synthetic(CFG, None, seed=0)
    ec = EngineConfig(d=8, layers=2, heads=1, window=8, chunk=2, n_sink=2,
                      n_local=4, budget=4)
    result = run_trace(trace, ec)
    pre = {rec.layer: rec for step, rec in result.layer_records("pre-filling")
           if step.index == 3}
    n = len(pre[0].candidate_ids)
    assert n == len(pre[1].candidate_ids) == 9
    gt = {"version": 1, "n_sink": 2, "chunk": 2, "n_local": 4,
          "entries": [{"decode_step": 0, "probe_window": 3,
                       "layers": [[n - 1, n], [n - 1, n]]}]}
    rep = build_report(result, gt)
    want = [recall_at_budget(pre[l].selected, [n - 1]) for l in (0, 1)]
    assert rep["overall"]["prefill_recall"]["count"] == 2
    assert rep["overall"]["prefill_recall"]["mean"] == pytest.approx(
        np.mean(want))
    assert rep["overall"]["decode_recall"]["count"] == 2


def test_compare_runs_reports_deltas():
    a = run_report(probe_mode="act")
    b = run_report(probe_mode="mean")
    diff = compare_runs(a, b)
    assert diff["pairs"] == 1
    assert diff["a_config"]["probe_mode"] == "act"
    ov = diff["overall"]
    assert set(ov) == {"delta_recall", "a_better_recall_fraction",
                       "delta_perplexity", "a_lower_perplexity_fraction"}
    self_diff = compare_runs(a, a)
    assert self_diff["overall"]["delta_recall"] == pytest.approx(0.0)
    assert self_diff["overall"]["a_better_recall_fraction"] == 0.0


def test_compare_runs_accepts_seed_sweeps():
    a = [run_report(seed=s, probe_mode="act", sha=f"s{s}") for s in range(3)]
    b = [run_report(seed=s, probe_mode="mean", sha=f"s{s}") for s in range(3)]
    diff = compare_runs(a, b)
    assert diff["pairs"] == 3
    frac = diff["overall"]["a_better_recall_fraction"]
    assert frac is None or 0.0 <= frac <= 1.0


def test_compare_rejects_different_traces():
    a = run_report(sha="one")
    b = run_report(probe_mode="mean", sha="two")
    with pytest.raises(ConfigMismatch):
        compare_runs(a, b)


def test_compare_rejects_config_drift_beyond_modes():
    a = run_report()
    b = copy.deepcopy(a)
    b["config"]["budget"] = 999
    with pytest.raises(ConfigMismatch):
        compare_runs(a, b)
    # probe and cutoff modes are the comparison's whole point
    c = copy.deepcopy(a)
    c["config"]["probe_mode"] = "mean"
    c["config"]["cutoff_mode"] = "fixed"
    assert compare_runs(a, c)["pairs"] == 1


def test_compare_rejects_length_mismatch():
    a = run_report()
    with pytest.raises(ConfigMismatch):
        compare_runs([a, a], [a])


def test_csv_lists_every_layer_metric():
    rep = run_report()
    csv = report_to_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0] == "layer,metric,mean,p25,p50,p75"
    assert len(lines) == 1 + 2 * 6  # layers x metrics
    budget_line = [ln for ln in lines if ln.startswith("0,budget")][0]
    mean_field = budget_line.split(",")[2]
    assert float(mean_field) > 0
