"""Run-quality metrics: score spread, selection perplexity, recall.

A report summarizes one engine run per layer:

    score       every candidate score the layer produced, pooled over
                all steps (pre-filling and decoding)
    perplexity  exp of the score-distribution entropy, one sample per
                step; flat scores push it toward the candidate count,
                confident scores push it toward 1
    recall      fraction of planted chunks recovered, one sample per
                ground-truth event; each planted step yields a
                decoding event (full truth) and a pre-filling event at
                its probe window (truth restricted to chunks that were
                candidates at that moment, since later plants cannot
                possibly be retrieved yet)
    budget      pairs granted per decoding step, showing how a dynamic
                cut-off shifts capacity between layers

Comparisons pair two runs (or two equal-length sweeps) over identical
traces and report per-layer deltas plus the fraction of pairs where
the first run wins.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .engine import EngineConfig, LayerStepRecord, RunResult
from .tracefile import check_footer

REPORT_VERSION = 1
METRIC_ORDER = ("score", "perplexity", "recall", "prefill_recall",
                "decode_recall", "budget")


class EmptyTruth(ValueError):
    """Recall asked against an empty ground-truth set."""


class ConfigMismatch(ValueError):
    """Report inputs disagree on trace or configuration."""


def recall_at_budget(selected: Iterable[int], truth: Iterable[int]) -> float:
    truth_set = set(truth)
    if not truth_set:
        raise EmptyTruth("ground-truth set is empty")
    return len(truth_set & set(selected)) / len(truth_set)


def _summary(values: Sequence[float]) -> dict:
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        return {"count": 0, "mean": None, "p25": None, "p50": None,
                "p75": None}
    q25, q50, q75 = np.percentile(vals, [25, 50, 75])
    return {"count": int(vals.size), "mean": float(vals.mean()),
            "p25": float(q25), "p50": float(q50), "p75": float(q75)}


def check_geometry(config: EngineConfig, ground_truth: dict) -> None:
    """Raise ConfigMismatch unless the run's cache geometry is the one a
    ground-truth footer's chunk ids assume."""
    for key in ("n_sink", "chunk", "n_local"):
        want, have = ground_truth.get(key), getattr(config, key)
        if want != have:
            raise ConfigMismatch(
                f"ground truth assumes {key}={want}, run used {have}")


def build_report(result: RunResult, ground_truth: dict | None = None,
                 trace_sha256: str | None = None) -> dict:
    """Summarize one run; ground truth unlocks the recall metrics. A
    footer is checked against the run's geometry (ConfigMismatch), then
    against the replayed trace's header (TraceFormatError)."""
    cfg = result.config
    if ground_truth is not None:
        # geometry first: under another chunk size the ids may not exist
        check_geometry(cfg, ground_truth)
        check_footer(ground_truth, result.header)

    by_layer: dict[int, dict[str, list[float]]] = {
        l: {name: [] for name in METRIC_ORDER} for l in range(cfg.layers)}
    index: dict[tuple[str, int, int], LayerStepRecord] = {}
    for step, rec in result.layer_records():
        index[(step.stage, step.index, rec.layer)] = rec
        bucket = by_layer[rec.layer]
        bucket["score"].extend(rec.scores)
        bucket["perplexity"].append(math.exp(rec.theta))
        if step.stage == "decoding":
            bucket["budget"].append(float(rec.budget_pairs))

    if ground_truth is not None:
        for entry in ground_truth.get("entries", ()):
            for l, truth in enumerate(entry["layers"]):
                if not truth:
                    continue
                dec = index[("decoding", entry["decode_step"], l)]
                r = recall_at_budget(dec.selected, truth)
                by_layer[l]["recall"].append(r)
                by_layer[l]["decode_recall"].append(r)
                pre = index[("pre-filling", entry["probe_window"], l)]
                # candidate ids are 0..n-1
                visible = [j for j in truth if j < len(pre.candidate_ids)]
                if visible:
                    r = recall_at_budget(pre.selected, visible)
                    by_layer[l]["recall"].append(r)
                    by_layer[l]["prefill_recall"].append(r)

    layers = []
    pooled: dict[str, list[float]] = {name: [] for name in METRIC_ORDER}
    for l in range(cfg.layers):
        metrics = {}
        for name in METRIC_ORDER:
            metrics[name] = _summary(by_layer[l][name])
            pooled[name].extend(by_layer[l][name])
        layers.append({"layer": l, "metrics": metrics})
    overall = {name: _summary(pooled[name]) for name in METRIC_ORDER}
    return {
        "version": REPORT_VERSION,
        "trace_sha256": trace_sha256,
        "config": cfg.to_dict(),
        "layers": layers,
        "overall": overall,
    }


def _as_report_list(x) -> list[dict]:
    if isinstance(x, dict):
        return [x]
    reports = list(x)
    if not reports or not all(isinstance(r, dict) for r in reports):
        raise ConfigMismatch("expected a report or a non-empty list of them")
    return reports


def _comparable_config(report: dict) -> dict:
    cfg = dict(report.get("config", {}))
    cfg.pop("probe_mode", None)
    cfg.pop("cutoff_mode", None)
    return cfg


def compare_runs(a, b) -> dict:
    """Pairwise comparison of run a against run b.

    Accepts single reports or equal-length lists (one pair per seed).
    Pairs must share their trace and agree on every configuration
    field except probe_mode and cutoff_mode.
    """
    la, lb = _as_report_list(a), _as_report_list(b)
    if len(la) != len(lb):
        raise ConfigMismatch(f"{len(la)} reports vs {len(lb)}")
    base = _comparable_config(la[0])
    for r in la + lb:
        if _comparable_config(r) != base:
            raise ConfigMismatch("reports differ beyond probe/cutoff modes")
    for ra, rb in zip(la, lb):
        ha, hb = ra.get("trace_sha256"), rb.get("trace_sha256")
        if ha is None or hb is None or ha != hb:
            raise ConfigMismatch(f"paired reports ran different traces "
                                 f"({ha} vs {hb})")

    n_layers = len(la[0]["layers"])
    if any(len(r["layers"]) != n_layers for r in la + lb):
        raise ConfigMismatch("reports disagree on layer count")

    def pick(report: dict, layer: int | None, metric: str) -> float | None:
        node = (report["overall"] if layer is None
                else report["layers"][layer]["metrics"])
        return node[metric]["mean"]

    def cell(layer: int | None) -> dict:
        out: dict = {} if layer is None else {"layer": layer}
        for metric, key in (("recall", "recall"),
                            ("perplexity", "perplexity")):
            deltas, wins = [], []
            for ra, rb in zip(la, lb):
                va, vb = pick(ra, layer, metric), pick(rb, layer, metric)
                if va is None or vb is None:
                    continue
                deltas.append(va - vb)
                wins.append(va > vb if metric == "recall" else va < vb)
            out[f"delta_{key}"] = (float(np.mean(deltas)) if deltas else None)
            frac = (float(np.mean(wins)) if wins else None)
            name = ("a_better_recall_fraction" if metric == "recall"
                    else "a_lower_perplexity_fraction")
            out[name] = frac
        return out

    return {
        "version": REPORT_VERSION,
        "pairs": len(la),
        "a_config": la[0].get("config"),
        "b_config": lb[0].get("config"),
        "layers": [cell(l) for l in range(n_layers)],
        "overall": cell(None),
    }


def report_to_csv(report: dict) -> str:
    """Flat per-layer view: layer,metric,mean,p25,p50,p75 rows."""
    def fmt(x) -> str:
        return "" if x is None else format(x, ".10g")

    lines = ["layer,metric,mean,p25,p50,p75"]
    for row in report["layers"]:
        for name in METRIC_ORDER:
            s = row["metrics"][name]
            lines.append(",".join([str(row["layer"]), name, fmt(s["mean"]),
                                   fmt(s["p25"]), fmt(s["p50"]),
                                   fmt(s["p75"])]))
    return "\n".join(lines) + "\n"
