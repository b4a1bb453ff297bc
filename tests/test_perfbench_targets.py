"""The benchmark's instrumentation shim (perfbench/child.py) patches
kvprobe names given as strings, reads snapshot fields and times the
engine's step methods; a rename, deletion or signature change in
kvprobe would otherwise only show up in a benchmark run."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from kvprobe.cache import LayerCache
from kvprobe.cli import main

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_name_resolves():
    for target in load_child().TARGETS:
        mod_name, *path = target.split(".")
        obj = importlib.import_module(f"kvprobe.{mod_name}")
        for attr in path:
            assert hasattr(obj, attr), target
            obj = getattr(obj, attr)
        assert callable(obj), target


def test_snapshot_counter_reads_the_open_chunk():
    cache = LayerCache(dim=2, n_sink=1, n_local=2, chunk=4)
    rows = np.ones((3, 2), dtype=np.float32)
    cache.append(rows, rows)
    counts = load_child()._snapshot_counts((cache,), cache.snapshot())
    # k (8 B a row) and v (a row's value sum, 4 B) of 1 sink, 2 local
    # rows and the 2-row open chunk
    assert counts == {"bytes": (1 + 2 + 2) * (8 + 4)}


WINDOWS, DECODE, WINDOW, LAYERS = 6, 3, 16, 2
GEOMETRY = ["--sinks", "4", "--chunk", "4", "--local", "8"]


@pytest.fixture
def run_child(tmp_path, monkeypatch):
    """Runs child.main on a tiny trace in this process, as the benchmark
    runs it in a child; every kvprobe name it rebinds is restored after
    the test. Returns the side file it wrote."""
    trace = tmp_path / "t.akvt"
    assert main(["gen-trace", "--dim", "16", "--layers", str(LAYERS),
                 "--heads", "2", "--window-size", str(WINDOW),
                 "--windows", str(WINDOWS), "--decode-steps", str(DECODE),
                 "--seed", "5", "--out", str(trace)] + GEOMETRY) == 0
    child = load_child()
    for name, mod in list(sys.modules.items()):
        if name == "kvprobe" or name.startswith("kvprobe."):
            for key, val in list(vars(mod).items()):
                if callable(val):
                    monkeypatch.setattr(mod, key, val)
    for target in child.TARGETS:
        mod_name, *path = target.split(".")
        if len(path) == 2:
            cls = getattr(importlib.import_module(f"kvprobe.{mod_name}"),
                          path[0])
            monkeypatch.setattr(cls, path[1], vars(cls)[path[1]])

    def run(mode: str) -> dict:
        side = tmp_path / f"{mode}.json"
        assert child.main(["--mode", mode, "--out", str(side), "--", "run",
                           "--trace", str(trace), "--budget", "8",
                           "--report", str(tmp_path / f"{mode}.r.json")]
                          + GEOMETRY) == 0
        return json.loads(side.read_text())

    return run


def test_step_timer_times_one_call_per_window_and_token(run_child):
    times = run_child("steps")["step_times"]
    assert {stage: len(t) for stage, t in times.items()} == {
        "prefill": WINDOWS, "decode": DECODE}


def test_every_span_carries_its_steps_index(run_child):
    side = run_child("spans")
    spans = side["spans"]
    steps = {"engine.Engine.prefill_step": "prefill",
             "engine.Engine.decode_step": "decode"}
    order = [(span[4], span[5]) for span in spans if span[0] in steps]
    assert order == ([("prefill", i) for i in range(WINDOWS)]
                     + [("decode", i) for i in range(DECODE)])
    appended = {"prefill": [], "decode": []}
    for span in spans:
        owner = span
        while owner[0] not in steps and owner[3] != -1:
            owner = spans[owner[3]]
        if owner[0] in steps:
            assert span[4:6] == [steps[owner[0]], owner[5]], span
        else:
            assert span[4:6] == [None, -1], span
        if span[0] == "cache.LayerCache.append":
            appended[span[4]].append(span[6]["rows"])
    # one append per step, of the window's rows or of one token
    assert appended == {"prefill": [WINDOW] * WINDOWS, "decode": [1] * DECODE}
    assert len(side["steps"]) == (WINDOWS + DECODE) * LAYERS
