import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import kvprobe
from kvprobe.cli import _dumps, main
from kvprobe.tracefile import read_trace

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
    # a window is read one layer at a time: the last layer's last head
    # in a middle window, whose Q, K and V rows are `rows` bytes each
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
    # inside the first window; in that late layer's K rows and in its V
    # rows; and the last value of the last decode token, which is only
    # read after every other step has run
    for at in (payload + 400, late + rows + 36, late + 2 * rows + 36, last):
        raw = bytearray(original)
        raw[at:at + 4] = struct.pack("<f", float("nan"))
        trace.write_bytes(bytes(raw))
        argv = ["run", "--trace", str(trace)] + RUN_GEOM
        for flag, path in outputs.items():
            argv += [flag, str(path)]
        assert main(argv) == 2, at
        assert not any(path.exists() for path in outputs.values()), at


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
    """A replay's cache: float32 keys and value sums of every token, and
    one staged window of d_head-wide values."""
    tokens = header.num_windows * header.window + header.num_decode_steps
    return 4 * header.layers * (tokens * (header.d + header.heads)
                                + header.window * header.d)


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


def test_run_holds_less_than_one_step_block_beyond_its_cache(tmp_path):
    """Traced peak of `run` on criterion 6's geometry with 8 heads of
    d_head 64 stays under the cache plus one (L, H, 3, window, d_head)
    float32 step block: a window goes from the file into the cache one
    layer at a time, so no whole step block is ever held (reading the
    block whole and then copying it peaks ~1.5 blocks above the
    cache), and the cache keeps no d_head-wide value row beyond one
    window (keeping them all would add 24 MiB here)."""
    trace = tmp_path / "t.akvt"
    assert main(["gen-trace", "--dim", "512", "--heads", "8",
                 "--windows", "12", "--decode-steps", "5", "--planted", "3",
                 "--anchor-scale", "4.0", "--drift", "3.0", "--seed", "0",
                 "--out", str(trace)]) == 0
    header, _ = read_trace(trace)
    cache = cache_bytes(header)
    block = header.layers * 3 * header.window * header.d * 4
    tracemalloc.start()
    try:
        assert main(["run", "--trace", str(trace), "--budget", "256",
                     "--report", str(tmp_path / "r.json")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cache + block, (peak - cache, block)


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
    """Criterion 5 builds SyntheticConfig() as the CLI's defaults, and
    cli.py restates each default as a literal: pin that they agree."""
    import argparse

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
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    choices = {a.dest: tuple(a.choices)
               for a in sub.choices["run"]._actions if a.choices}
    assert choices == {"probe": PROBE_MODES, "cutoff": CUTOFF_MODES,
                       "rep": REP_MODES}
