import hashlib
import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kvprobe
from kvprobe.cache import CHUNK, N_LOCAL, N_SINK
from kvprobe.cli import _dumps, main
from kvprobe.tracefile import read_trace

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
GEN = ["gen-trace", "--dim", "16", "--layers", "2", "--heads", "2",
       "--window-size", "16", "--windows", "6", "--decode-steps", "2",
       "--sinks", "4", "--chunk", "4", "--local", "8", "--seed", "5"]
RUN_GEOM = ["--chunk", "4", "--sinks", "4", "--local", "8", "--budget", "8"]


def gen(tmp_path, name="t.akvt", extra=()):
    path = tmp_path / name
    assert main(GEN + list(extra) + ["--out", str(path)]) == 0
    return path


def test_full_pipeline(tmp_path, capsys):
    trace = gen(tmp_path)
    act = tmp_path / "act.json"
    mean = tmp_path / "mean.json"
    assert main(["run", "--trace", str(trace), "--probe", "act",
                 "--report", str(act)] + RUN_GEOM) == 0
    assert main(["run", "--trace", str(trace), "--probe", "mean",
                 "--report", str(mean)] + RUN_GEOM) == 0
    out = tmp_path / "cmp.json"
    assert main(["compare", "--a", str(act), "--b", str(mean),
                 "--out", str(out)]) == 0
    diff = json.loads(out.read_text())
    assert diff["pairs"] == 1
    assert "delta_recall" in diff["overall"]


def test_identical_runs_write_identical_reports(tmp_path):
    trace = gen(tmp_path)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["run", "--trace", str(trace),
                     "--report", str(path)] + RUN_GEOM) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_omits_timing_but_manifest_carries_it(tmp_path):
    trace = gen(tmp_path)
    report = tmp_path / "r.json"
    manifest = tmp_path / "m.json"
    assert main(["run", "--trace", str(trace), "--report", str(report),
                 "--manifest", str(manifest)] + RUN_GEOM) == 0
    assert "elapsed" not in report.read_text()
    doc = json.loads(manifest.read_text())
    assert doc["elapsed_seconds"] >= 0
    assert doc["max_rss_mb"] > 0
    assert doc["trace_sha256"] == json.loads(report.read_text())["trace_sha256"]


def test_manifest_names_the_numeric_stack(tmp_path, monkeypatch):
    """The manifest names the numeric stack a report's last bits depend
    on, as np.show_config gives it: numpy's version, its SIMD extensions
    and its BLAS name and version; null where show_config cannot give
    dicts."""
    trace = gen(tmp_path)
    manifest = tmp_path / "m.json"
    argv = ["run", "--trace", str(trace), "--report",
            str(tmp_path / "r.json"), "--manifest", str(manifest)] + RUN_GEOM
    assert main(argv) == 0
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    assert json.loads(manifest.read_text())["numeric_stack"] == {
        "numpy": np.__version__, "simd": config["SIMD Extensions"]["found"],
        "blas": {"name": blas["name"], "version": blas["version"]}}

    def old_show_config():  # numpy before 1.26 takes no mode
        raise TypeError("show_config() got an unexpected keyword argument")

    monkeypatch.setattr(np, "show_config", old_show_config)
    assert main(argv) == 0
    assert json.loads(manifest.read_text())["numeric_stack"] == {
        "numpy": np.__version__, "simd": None, "blas": None}


def test_manifest_explains_the_run_and_leaves_the_report_alone(tmp_path):
    trace = gen(tmp_path)
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    records, manifest = tmp_path / "steps.jsonl", tmp_path / "m.json"
    assert main(["run", "--trace", str(trace), "--report", str(plain),
                 "--records", str(records)] + RUN_GEOM) == 0
    assert main(["run", "--trace", str(trace), "--report", str(timed),
                 "--manifest", str(manifest)] + RUN_GEOM) == 0
    assert plain.read_bytes() == timed.read_bytes()
    doc = json.loads(manifest.read_text())
    stages = doc["stages"]
    assert {k: v["steps"] for k, v in stages.items()} == {
        "pre-filling": 6, "decoding": 2}
    for timing in stages.values():
        assert 0 < timing["p50_ms"] <= timing["p90_ms"]
        assert timing["total_s"] >= timing["p90_ms"] / 1e3
    layers = [rec for line in records.read_text().splitlines()
              for rec in json.loads(line)["layers"]]
    assert doc["candidates_scored"] == sum(len(rec["candidate_ids"])
                                           for rec in layers) > 0
    assert doc["pairs_materialized"] == sum(rec["pairs_used"]
                                            for rec in layers) > 0
    # a stage with no steps has no percentiles
    trace = gen(tmp_path, "prefill-only.akvt", ["--decode-steps", "0"])
    assert main(["run", "--trace", str(trace), "--report", str(timed),
                 "--manifest", str(manifest)] + RUN_GEOM) == 0
    assert json.loads(manifest.read_text())["stages"]["decoding"] == {
        "steps": 0, "total_s": 0, "p50_ms": None, "p90_ms": None}


def test_trace_without_steps_reports_no_perplexity(tmp_path, capsys):
    """A trace with no steps has no perplexity mean; the summary line
    used to format that None and exit 1 after writing the report."""
    trace = tmp_path / "e.akvt"
    assert main(["gen-trace", "--windows", "0", "--decode-steps", "0",
                 "--planted", "0", "--out", str(trace)]) == 0
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["run", "--trace", str(trace), "--report", str(report)]) == 0
    assert "perplexity=n/a" in capsys.readouterr().out
    assert json.loads(report.read_text())["overall"]["perplexity"][
        "mean"] is None


def test_replay_leaves_openssl_unloaded_and_digests_the_trace(tmp_path):
    """Importing the front end does not load hashlib (and OpenSSL with
    it): the trace digest is taken after the replay has freed its cache,
    and only then is hashlib imported."""
    # the directory this suite imports kvprobe from
    src = Path(kvprobe.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, kvprobe.cli; "
         "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"
    trace = gen(tmp_path)
    report = tmp_path / "r.json"
    assert main(["run", "--trace", str(trace), "--report", str(report)]
                + RUN_GEOM) == 0
    assert json.loads(report.read_text())["trace_sha256"] == hashlib.sha256(
        trace.read_bytes()).hexdigest()


def test_run_leaves_numpy_ma_unloaded(tmp_path):
    """A run that writes a report and a manifest never imports numpy.ma
    (np.percentile would, about 1 MB of the run's peak): their
    percentiles are worked by hand."""
    src = Path(kvprobe.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    trace = gen(tmp_path, extra=["--planted", "1"])
    argv = ["run", "--trace", str(trace), "--report", str(tmp_path / "r.json"),
            "--manifest", str(tmp_path / "m.json")] + RUN_GEOM
    out = subprocess.run(
        [sys.executable, "-c", "import sys; from kvprobe.cli import main; "
         f"assert main({argv!r}) == 0; print('numpy.ma' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"


def test_max_score_report_is_the_same_on_any_openblas_kernel(
        tmp_path, monkeypatch):
    """The smoke max-score workload's report is byte-identical whether
    OpenBLAS runs its default kernel or its Prescott one
    (OPENBLAS_CORETYPE, read when a child process loads it): max-score's
    exact dots call no BLAS routine."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # for dataclasses
    spec.loader.exec_module(mod)
    wl = mod.WORKLOADS["max-score"].smoke()
    trace = tmp_path / "t.akvt"
    assert main(wl.gen_args(0, trace)) == 0
    src = Path(kvprobe.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(src)
    reports = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        report = tmp_path / f"{len(reports)}.report.json"
        subprocess.run([sys.executable, "-m", "kvprobe.cli",
                        *wl.run_args(trace, report)],
                       env=env | kernel, capture_output=True, check=True)
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_records_and_csv_outputs(tmp_path):
    trace = gen(tmp_path)
    records = tmp_path / "steps.jsonl"
    csv = tmp_path / "r.csv"
    assert main(["run", "--trace", str(trace), "--report",
                 str(tmp_path / "r.json"), "--records", str(records),
                 "--csv", str(csv)] + RUN_GEOM) == 0
    lines = records.read_text().strip().split("\n")
    assert len(lines) == 6 + 2
    assert json.loads(lines[0])["stage"] == "pre-filling"
    assert csv.read_text().startswith("layer,metric,mean")


@pytest.mark.parametrize("settings", [[], ["--rep", "max-score", "--probe",
                                           "mean", "--cutoff", "fixed"]])
def test_run_without_records_attends_nothing(tmp_path, monkeypatch,
                                            settings):
    """Attention's only output is the records' attn_checksum, so a run
    without --records makes no attention call, and its report and CSV
    are byte for byte those of a run with records."""
    import kvprobe.engine as engine_module

    trace = gen(tmp_path)
    run = ["run", "--trace", str(trace)] + RUN_GEOM + settings
    records = tmp_path / "steps.jsonl"
    assert main(run + ["--report", str(tmp_path / "with.json"),
                       "--csv", str(tmp_path / "with.csv"),
                       "--records", str(records)]) == 0
    assert all(isinstance(rec["attn_checksum"], float)
               for line in records.read_text().splitlines()
               for rec in json.loads(line)["layers"])

    def refuse(*args, **kwargs):
        raise AssertionError("attention in a run without --records")

    monkeypatch.setattr(engine_module, "reference_attention", refuse)
    assert main(run + ["--report", str(tmp_path / "without.json"),
                       "--csv", str(tmp_path / "without.csv")]) == 0
    for suffix in ("json", "csv"):
        assert ((tmp_path / f"without.{suffix}").read_bytes()
                == (tmp_path / f"with.{suffix}").read_bytes())


def test_malformed_trace_exits_2(tmp_path):
    bad = tmp_path / "junk.akvt"
    bad.write_bytes(b"this is not a trace")
    assert main(["run", "--trace", str(bad),
                 "--report", str(tmp_path / "r.json")]) == 2
    report = tmp_path / "r.json"
    original = gen(tmp_path).read_bytes()
    hlen = struct.unpack("<I", original[8:12])[0]
    footer_at = 12 + hlen + json.loads(original[12:12 + hlen])["payload_bytes"]
    footer = json.loads(original[footer_at:])

    def run_with(header_edit=None, footer=footer) -> int:
        doc = json.loads(original[12:12 + hlen])
        doc.update(header_edit or {})
        header = json.dumps(doc, sort_keys=True,
                            separators=(",", ":")).encode()
        trace = tmp_path / "edited.akvt"
        trace.write_bytes(original[:8] + struct.pack("<I", len(header)) +
                          header + original[12 + hlen:footer_at] +
                          json.dumps(footer).encode())
        return main(["run", "--trace", str(trace), "--report", str(report)]
                    + RUN_GEOM)

    assert run_with() == 0  # the rewrite itself keeps the trace valid
    report.unlink()
    # a header with negative task_rows used to pass validation and die
    # in the payload reshape (exit 1); a float d died in np.fromfile
    for edit in ({"task_rows": -2}, {"d": 16.0}):
        assert run_with(header_edit=edit) == 2, edit
    # footers that are valid JSON but the wrong shape raised KeyError or
    # AttributeError (exit 1); a chunk id no pre-fill seals (6 windows of
    # 16 rows behind 4 sinks seal 23 chunks of 4) gave a recall of 0.0
    entry = footer["entries"][0]
    no_step = {k: v for k, v in entry.items() if k != "decode_step"}
    far = dict(entry, layers=[[9999]] * len(entry["layers"]))
    edge = dict(entry, layers=[[23]] * len(entry["layers"]))
    # a decode step or probe window the trace lacks (2 steps, 6 windows)
    # used to exit 4 after the whole replay, though no run flag fixes it
    late = dict(entry, decode_step=500)
    no_window = dict(entry, probe_window=99)
    # so did a layer list per entry that is not one per trace layer, a
    # footer version other than 1, and planted chunks with no probe window
    extra_layer = dict(entry, layers=entry["layers"] + [[]])
    null_window = dict(entry, probe_window=None)
    for gt in (dict(footer, entries=[no_step]), dict(footer, entries=[1, 2]),
               [footer], dict(footer, entries=[far]),
               dict(footer, entries=[edge]), dict(footer, entries=[late]),
               dict(footer, entries=[no_window]),
               dict(footer, entries=[extra_layer]), dict(footer, version=2),
               dict(footer, entries=[null_window])):
        assert run_with(footer=gt) == 2, gt
    assert not report.exists()


def test_footer_naming_a_decode_step_twice_exits_2(tmp_path, capsys):
    """A footer that repeated one decode step's entry used to pass, and
    the report counted that step's recall twice (exit 0)."""
    original = gen(tmp_path).read_bytes()
    hlen = struct.unpack("<I", original[8:12])[0]
    footer_at = 12 + hlen + json.loads(original[12:12 + hlen])["payload_bytes"]
    footer = json.loads(original[footer_at:])
    footer["entries"].append(footer["entries"][0])
    trace = tmp_path / "twice.akvt"
    trace.write_bytes(original[:footer_at] + json.dumps(footer).encode())
    report = tmp_path / "r.json"
    assert main(["run", "--trace", str(trace), "--report", str(report)]
                + RUN_GEOM) == 2
    assert_one_error_line(capsys)
    assert not report.exists()


def test_missing_file_exits_2(tmp_path):
    assert main(["run", "--trace", str(tmp_path / "absent.akvt"),
                 "--report", str(tmp_path / "r.json")]) == 2


def test_truncated_trace_exits_2(tmp_path):
    trace = gen(tmp_path)
    raw = trace.read_bytes()
    trace.write_bytes(raw[: len(raw) // 2])
    assert main(["run", "--trace", str(trace),
                 "--report", str(tmp_path / "r.json")] + RUN_GEOM) == 2


def test_non_finite_trace_exits_2(tmp_path):
    original = gen(tmp_path).read_bytes()
    hlen = struct.unpack("<I", original[8:12])[0]
    payload = 12 + hlen
    h = json.loads(original[12:payload])
    last = payload + h["payload_bytes"] - 4
    # a window is read one (layer, head, Q/K/V) block at a time: the last
    # layer's last head in a middle window, whose Q, K and V blocks are
    # `rows` bytes each
    d_head = h["d"] // h["heads"]
    rows = h["window"] * d_head * 4
    layer = h["heads"] * 3 * rows
    late = (payload + h["layers"] * h["heads"] * h["task_rows"] * d_head * 4
            + (h["num_windows"] // 2 * h["layers"] + h["layers"] - 1) * layer
            + (h["heads"] - 1) * 3 * rows)
    outputs = {flag: tmp_path / name for flag, name in (
        ("--report", "r.json"), ("--records", "steps.jsonl"),
        ("--csv", "r.csv"), ("--manifest", "m.json"))}
    trace = tmp_path / "nan.akvt"
    nan, inf = float("nan"), float("inf")
    # NaN inside the first window; in that late head's Q rows, its K
    # rows and its V rows; the last value of those V rows, the window's
    # last block; and the last value of the last decode token, which is
    # only read after every other step has run. Then +inf and -inf in
    # the late head's Q and K rows.
    for at, bad in ((payload + 400, nan), (late + 36, nan),
                    (late + rows + 36, nan), (late + 2 * rows + 36, nan),
                    (late + 3 * rows - 4, nan), (last, nan),
                    (late + 40, inf), (late + rows + 40, -inf)):
        raw = bytearray(original)
        raw[at:at + 4] = struct.pack("<f", bad)
        trace.write_bytes(bytes(raw))
        argv = ["run", "--trace", str(trace)] + RUN_GEOM
        for flag, path in outputs.items():
            argv += [flag, str(path)]
        assert main(argv) == 2, (at, bad)
        assert not any(path.exists() for path in outputs.values()), (at, bad)


def test_geometry_mismatch_exits_4_before_the_replay(tmp_path):
    """Run flags that disagree with the footer's geometry are caught
    before any step block is read: a NaN in the first window or the last
    decode token is never reached."""
    original = gen(tmp_path).read_bytes()
    hlen = struct.unpack("<I", original[8:12])[0]
    payload = 12 + hlen
    last = payload + json.loads(original[12:payload])["payload_bytes"] - 4
    trace = tmp_path / "nan.akvt"
    report = tmp_path / "r.json"
    for at in (payload + 400, last):
        raw = bytearray(original)
        raw[at:at + 4] = struct.pack("<f", float("nan"))
        trace.write_bytes(bytes(raw))
        assert main(["run", "--trace", str(trace), "--chunk", "16",
                     "--sinks", "4", "--local", "8", "--budget", "16",
                     "--report", str(report)]) == 4, at
        assert not report.exists()


def cache_bytes(header) -> int:
    """A replay's cache: float32 keys and value sums of every token."""
    tokens = header.num_windows * header.window + header.num_decode_steps
    return 4 * header.layers * tokens * (header.d + header.heads)


def test_run_holds_one_step_block_of_the_payload(tmp_path):
    """Traced peak of `run` on criterion 6's geometry stays under the
    payload plus the cache; holding the whole payload, as an eager read
    does, peaks near 2.3x the payload."""
    trace = tmp_path / "t.akvt"
    assert main(["gen-trace", "--windows", "12", "--decode-steps", "5",
                 "--planted", "3", "--anchor-scale", "4.0", "--drift", "3.0",
                 "--seed", "0", "--out", str(trace)]) == 0
    header, _ = read_trace(trace)
    tracemalloc.start()
    try:
        assert main(["run", "--trace", str(trace), "--budget", "256",
                     "--report", str(tmp_path / "r.json")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < header.payload_bytes() + cache_bytes(header), peak


def wide_trace_peak(tmp_path, *flags):
    """(traced peak, cache with its float64 chunk reps, trace header) of
    `run --budget 256` with flags on criterion 6's trace with 8 heads
    of d_head 64, generated before tracing starts."""
    trace = tmp_path / "t.akvt"
    assert main(["gen-trace", "--dim", "512", "--heads", "8",
                 "--windows", "12", "--decode-steps", "5", "--planted", "3",
                 "--anchor-scale", "4.0", "--drift", "3.0", "--seed", "0",
                 "--out", str(trace)]) == 0
    header, _ = read_trace(trace)
    tokens = header.num_windows * header.window + header.num_decode_steps
    chunks = -(-(tokens - N_SINK) // CHUNK)  # the default --sinks, --chunk
    reps = 8 * header.layers * chunks * (header.d + header.heads)
    tracemalloc.start()
    try:
        assert main(["run", "--trace", str(trace), "--budget", "256",
                     "--report", str(tmp_path / "r.json"), *flags]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, cache_bytes(header) + reps, header


def test_run_holds_less_than_one_step_block_beyond_its_cache(tmp_path):
    """Traced peak of `run --records` on criterion 6's geometry with 8
    heads of d_head 64 stays under the cache (keys, value sums and
    float64 chunk reps) plus what pre-fill attention holds, which sets
    that run's peak: one layer's gathered keys (`--budget` rows), the
    float64 logits of every layer and head over sinks, retrieved rows,
    tail and window and their float32 copy, beside the reader's one
    (window, d_head) block, with 128 KiB for the records and the
    smaller arrays. A window's probe works one head at a time: building
    it from a layer's queries, as a replay did before, holds 1.5 MiB
    more here and fails this bound."""
    peak, cache, header = wide_trace_peak(
        tmp_path, "--records", str(tmp_path / "steps.jsonl"))
    budget = 256
    attended = N_SINK + budget + N_LOCAL + header.window
    gathered = 4 * budget * header.d
    logits = (8 + 4) * header.layers * header.heads * attended
    block = 4 * header.window * header.d_head
    bound = cache + gathered + logits + block + 128 * 1024
    assert peak < bound, (peak - cache, bound - peak)


def test_run_without_records_holds_no_attention(tmp_path):
    """Without --records nothing attends and no sealed chunk's rows are
    kept: the cache holds its float64 chunk reps and two key and
    value-sum buffers of a window and a chunk of rows, the one in use
    and the one a pre-fill window's rows move out of. Beside them sit
    the reader's one (window, d_head) block, the probe statistics (two
    float64 vectors per layer and head) and 160 KiB for the records,
    the float64 sum of the chunk being sealed and the smaller arrays.
    A cache that keeps every row, as it did before, holds 24 MiB more
    here and fails this bound."""
    peak, cache, header = wide_trace_peak(tmp_path)
    reps = cache - cache_bytes(header)
    rows = 4 * header.layers * (header.window + CHUNK) * (
        header.d + header.heads)
    block = 4 * header.window * header.d_head
    stats = 2 * 8 * header.layers * header.d
    bound = reps + 2 * rows + block + stats + 160 * 1024
    assert peak < bound, (peak - reps - 2 * rows, bound - peak)


def test_bad_engine_config_exits_3(tmp_path):
    trace = gen(tmp_path)
    assert main(["run", "--trace", str(trace), "--budget", "7",
                 "--chunk", "4", "--report", str(tmp_path / "r.json")]) == 3


def test_no_sinks_and_no_local_exits_3_before_the_replay(tmp_path, capsys):
    """With no sinks and no local tail a decode step whose layer gets no
    chunks attends nothing; the run used to crash there, after the
    whole pre-fill, with a traceback."""
    trace = gen(tmp_path, extra=["--sinks", "0", "--local", "0",
                                 "--planted", "0"])
    report = tmp_path / "r.json"
    assert main(["run", "--trace", str(trace), "--budget", "0",
                 "--sinks", "0", "--local", "0", "--chunk", "4",
                 "--report", str(report)]) == 3
    assert "attend nothing" in capsys.readouterr().err
    assert not report.exists()
    assert main(["run", "--trace", str(trace), "--budget", "0",
                 "--sinks", "1", "--local", "0", "--chunk", "4",
                 "--report", str(report)]) == 0


def test_bad_generator_spec_exits_3(tmp_path):
    """Zero chunk or window sizes used to crash with ZeroDivisionError,
    and negative sizes wrote a trace (or ground truth) no run can use."""
    for bad in (["--signal", "1.5"], ["--task-rows", "-2"], ["--chunk", "0"],
                ["--window-size", "0"], ["--sinks", "-1"], ["--local", "-5"],
                ["--windows", "-1"], ["--decode-steps", "-1"],
                ["--heads", "0"], ["--heads", "3"]):
        out = tmp_path / "t.akvt"
        assert main(GEN + bad + ["--out", str(out)]) == 3, bad
        assert not out.exists(), bad


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("bad", [["--seed", "-1"], ["--planted", "-1"],
                                 ["--anchor-scale", "inf"], ["--drift", "inf"],
                                 ["--drift", "nan"],
                                 ["--anchor-scale", "nan"]])
def test_bad_seed_count_or_magnitude_exits_3(tmp_path, capsys, bad):
    """A negative seed used to crash in numpy (exit 1); a negative
    --planted wrote an unplanted trace, and an infinite or NaN magnitude
    a trace that run rejects or, for NaN drift, silently leaves undrifted
    (exit 0)."""
    out = tmp_path / "t.akvt"
    assert main(GEN + bad + ["--out", str(out)]) == 3
    assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("header", [b"[1,2]", b"7", b'"x"', b"null"])
def test_header_json_that_is_not_an_object_exits_2(tmp_path, capsys, header):
    """Valid header JSON that is not an object used to crash (exit 1)."""
    original = gen(tmp_path).read_bytes()
    hlen = struct.unpack("<I", original[8:12])[0]
    trace = tmp_path / "edited.akvt"
    trace.write_bytes(original[:8] + struct.pack("<I", len(header)) +
                      header + original[12 + hlen:])
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert main(["run", "--trace", str(trace), "--report", str(report)]
                + RUN_GEOM) == 2
    assert_one_error_line(capsys)
    assert not report.exists()


@pytest.mark.parametrize("config", ["x", 5, [1, 2]])
def test_compare_rejects_a_report_whose_config_is_not_an_object(
        tmp_path, capsys, config):
    """Such a config used to crash in the config comparison (exit 1)."""
    good = tmp_path / "good.json"
    assert main(["run", "--trace", str(gen(tmp_path)), "--report", str(good)]
                + RUN_GEOM) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(good.read_text()),
                               "config": config}))
    out = tmp_path / "d.json"
    capsys.readouterr()
    assert main(["compare", "--a", str(good), "--b", str(bad),
                 "--out", str(out)]) == 2
    assert_one_error_line(capsys)
    assert not out.exists()


def test_comparing_unrelated_runs_exits_4(tmp_path):
    t1 = gen(tmp_path, "t1.akvt", extra=["--seed", "5"])
    t2 = gen(tmp_path, "t2.akvt", extra=["--seed", "6"])
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["run", "--trace", str(t1), "--report", str(r1)]
                + RUN_GEOM) == 0
    assert main(["run", "--trace", str(t2), "--report", str(r2)]
                + RUN_GEOM) == 0
    assert main(["compare", "--a", str(r1), "--b", str(r2),
                 "--out", str(tmp_path / "d.json")]) == 4


def test_compare_rejects_invalid_report_json(tmp_path):
    good = tmp_path / "good.json"
    trace = gen(tmp_path)
    assert main(["run", "--trace", str(trace), "--report", str(good)]
                + RUN_GEOM) == 0
    bad = tmp_path / "bad.json"
    # not JSON; JSON that is not a report; bytes that are not UTF-8
    for content in (b"{not json", b'{"config":{},"trace_sha256":"x"}',
                    b"\xff\xfe\x00 not text"):
        bad.write_bytes(content)
        assert main(["compare", "--a", str(good), "--b", str(bad),
                     "--out", str(tmp_path / "d.json")]) == 2, content
        assert main(["compare", "--a", str(bad), "--b", str(bad),
                     "--out", str(tmp_path / "d.json")]) == 2, content


def test_report_to_stdout_when_no_path(tmp_path, capsys):
    trace = gen(tmp_path)
    capsys.readouterr()  # drop the generator's status line
    assert main(["run", "--trace", str(trace)] + RUN_GEOM) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 1


def test_reports_never_carry_nan_or_infinity():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            _dumps({"overall": {"recall": {"mean": bad}}})


def test_gen_trace_without_planting(tmp_path):
    path = tmp_path / "plain.akvt"
    assert main(GEN[:1] + ["--planted", "0", "--out", str(path)]) == 0
    from kvprobe.tracefile import read_trace
    header, reader = read_trace(path)
    assert not header.has_ground_truth
    assert reader.ground_truth() is None


def test_cli_defaults_are_the_librarys(tmp_path, monkeypatch):
    """Criterion 5 builds SyntheticConfig() as the CLI's defaults: pin
    that a bare gen-trace and run reach the library's defaults, that
    EngineConfig's geometry defaults are SyntheticConfig's, and that
    run's choices are the engine's mode lists."""
    import argparse
    import dataclasses

    import kvprobe.cli as cli
    from kvprobe.engine import (CUTOFF_MODES, PROBE_MODES, REP_MODES,
                                EngineConfig)
    from kvprobe.tracefile import PlantedSpec, SyntheticConfig

    calls = {}

    def capture(name):
        fn = getattr(cli, name)

        def wrapped(*args, **kwargs):
            calls[name] = args
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapped)

    capture("generate_synthetic")
    capture("run_trace")
    trace = tmp_path / "t.akvt"
    assert main(["gen-trace", "--out", str(trace)]) == 0
    assert main(["run", "--trace", str(trace),
                 "--report", str(tmp_path / "r.json")]) == 0
    cfg, planted = calls["generate_synthetic"]
    assert cfg == SyntheticConfig()
    assert planted == PlantedSpec.auto(SyntheticConfig(), per_step=1)
    assert calls["run_trace"][1] == EngineConfig(d=64, layers=4, heads=1,
                                                 window=256)
    # the trace geometry's defaults are written once, in SyntheticConfig
    shared = {f.name for f in dataclasses.fields(EngineConfig)
              if f.default is not dataclasses.MISSING}.intersection(
                  f.name for f in dataclasses.fields(SyntheticConfig))
    assert shared == {"heads", "window", "chunk", "n_sink", "n_local"}
    for name in shared:
        assert getattr(EngineConfig, name) == getattr(SyntheticConfig, name)
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    choices = {a.dest: tuple(a.choices)
               for a in sub.choices["run"]._actions if a.choices}
    assert choices == {"probe": PROBE_MODES, "cutoff": CUTOFF_MODES,
                       "rep": REP_MODES}


class Captured(Exception):
    """Stops main() once the call under test has its arguments."""


def test_every_field_flag_reaches_its_field(tmp_path, monkeypatch):
    """Give every field flag of gen-trace and run a non-default value at
    once: each value lands in its own field of what generate_synthetic,
    PlantedSpec.auto and run_trace receive. The flags come from
    cli.FIELD_FLAGS, so a new row there is covered here unedited."""
    import kvprobe.cli as cli
    from kvprobe.engine import FIELD_MODES, EngineConfig
    from kvprobe.tracefile import PlantedSpec, SyntheticConfig

    def other(default, choices):
        """A valid non-default value: another mode, twice an int (so
        the budget stays a multiple of the chunk; 0 becomes 1), or half
        a float (so a magnitude stays in range)."""
        if choices:
            return next(c for c in choices if c != default)
        return (2 * default or 1) if isinstance(default, int) else default / 2

    values = {cls: {name: other(getattr(cls, name), FIELD_MODES.get(name))
                    for name in flags.values()}
              for cls, flags in cli.FIELD_FLAGS.items()}

    def argv(*classes):
        return [arg for cls in classes
                for flag, name in cli.FIELD_FLAGS[cls].items()
                for arg in (flag, str(values[cls][name]))]

    trace = tmp_path / "t.akvt"
    assert main(["gen-trace", "--dim", "8", "--layers", "1",
                 "--window-size", "8", "--windows", "2", "--decode-steps",
                 "1", "--planted", "0", "--out", str(trace)]) == 0
    calls = {}

    def capture(owner, name, stop):
        fn = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] = args, kwargs
            if stop:
                raise Captured
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    capture(PlantedSpec, "auto", stop=False)
    capture(cli, "generate_synthetic", stop=True)
    capture(cli, "run_trace", stop=True)
    with pytest.raises(Captured):
        main(["gen-trace", *argv(SyntheticConfig, PlantedSpec),
              "--out", str(tmp_path / "unwritten.akvt")])
    with pytest.raises(Captured):
        main(["run", "--trace", str(trace), *argv(EngineConfig)])
    assert calls["auto"][1] == {"per_step": 1, **values[PlantedSpec]}
    (cfg, planted), _ = calls["generate_synthetic"]
    (_, config), _ = calls["run_trace"]
    for obj, cls in ((cfg, SyntheticConfig), (planted, PlantedSpec),
                     (config, EngineConfig)):
        for name, value in values[cls].items():
            assert value != getattr(cls, name), name
            assert getattr(obj, name) == value, (cls.__name__, name)
