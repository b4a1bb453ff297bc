"""Smoke test of the benchmark itself, at toy geometry.

    python3 -m pytest perfbench

Runs every workload once untraced and once traced, and checks that each
metric declared in BENCHMARK.json is emitted with its unit and a sample
count, and that every replay passed the output check (traced and
untraced reports byte-identical).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_smoke_emits_every_metric(trace, declared):
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    detail = json.loads(lines[-2])["detail"]
    want = {m["name"]: m["unit"] for m in SPEC[declared]}
    assert [d["workload"] for d in detail] == [w["name"]
                                               for w in SPEC["workloads"]]
    for d in detail:
        assert d["failed"] == 0 and d["errors"] == []
        assert len(d["report_sha256"]) == 64
        assert d["env"]["seed"] == 3 and d["env"]["nproc"] >= 1
        got = d["metrics"]
        extra = set(run.DETAIL_ONLY) if trace == 0 else set()
        assert set(got) == set(want) | extra
        for name, m in got.items():
            assert m["unit"] == want.get(name, run.END_TO_END.get(name)), name
            assert m["samples"] >= 1, name
            assert isinstance(m["value"], (int, float)), name
            key = f"{d['workload']}/{name}"
            if name in extra:
                assert key not in result["metrics"]
            else:
                assert result["metrics"][key] == {"value": m["value"],
                                                  "unit": m["unit"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "max-score", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        ["engine.Engine.decode_step", 0.0, 10.0, -1, "decode", 0, None],
        ["retrieval.score_chunks_across_heads", 1.0, 5.0, 0, "decode", 0,
         None],
        ["cutoff.allocate", 6.0, 7.0, 0, "decode", 0, None],
        ["cache.LayerCache.snapshot", 2.0, 3.0, 1, "decode", 0,
         {"bytes": 128}],
    ]
    out = run.span_metrics(spans)
    assert out["engine.decode_self_s"] == 5.0
    assert out["retrieval.score_s.decode"] == 3.0
    assert out["cache.snapshot_s.decode"] == 1.0
    assert out["cache.snapshot_calls"] == 1
    assert out["cache.snapshot_bytes"] == 128
    assert out["cutoff.allocate_calls"] == 1


def test_step_record_counts():
    wl = run.Workload("toy", dim=8, layers=1, heads=2, windows=2,
                      decode_steps=1, planted=1, probe="act",
                      cutoff="dynamic", rep="max-score", window=64, chunk=4)
    side = {"spans": [],
            # stage, index, layer, candidates, selected, used, attended
            "steps": [["prefill", 1, 0, 3, 1, 4, 40],
                      ["decode", 0, 0, 5, 2, 8, 30]]}
    out = run.layer_metrics(side, run_s=1.0, wl=wl)
    assert out["retrieval.chunks_scored"] == 8
    assert out["retrieval.cosine_calls"] == 8 * 2 * 4
    assert out["retrieval.select_share"] == 3 / 8
    assert out["retrieval.pairs_materialized"] == (4 + 8) * 2
    assert out["engine.pairs_attended"] == (40 + 30) * 2
    assert out["engine.attend_flops"] == 4 * 4 * 2 * (64 * 40 + 1 * 30)
    # 129 cached after the token; 22 sinks + local; 5 candidate chunks
    assert out["engine.unreachable_pairs"] == 129 - 22 - 20
    assert out["cli.self_s"] == 1.0
