import json
import math
import struct
import tracemalloc

import pytest

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
    assert doc["trace_sha256"] == json.loads(report.read_text())["trace_sha256"]


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
    last = payload + json.loads(original[12:payload])["payload_bytes"] - 4
    outputs = {flag: tmp_path / name for flag, name in (
        ("--report", "r.json"), ("--records", "steps.jsonl"),
        ("--csv", "r.csv"), ("--manifest", "m.json"))}
    trace = tmp_path / "nan.akvt"
    # inside the first window, and the last value of the last decode
    # token, which is only read after every other step has run
    for at in (payload + 400, last):
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


def test_run_holds_one_step_block_of_the_payload(tmp_path):
    """Traced peak of `run` on criterion 6's geometry stays under the
    payload plus the caches' K/V buffers; holding the whole payload, as
    an eager read does, peaks near 2.3x the payload."""
    trace = tmp_path / "t.akvt"
    assert main(["gen-trace", "--windows", "12", "--decode-steps", "5",
                 "--planted", "3", "--anchor-scale", "4.0", "--drift", "3.0",
                 "--seed", "0", "--out", str(trace)]) == 0
    header, _ = read_trace(trace)
    tokens = header.num_windows * header.window + header.num_decode_steps
    kv_cache = 2 * header.layers * tokens * header.d * 4
    tracemalloc.start()
    try:
        assert main(["run", "--trace", str(trace), "--budget", "256",
                     "--report", str(tmp_path / "r.json")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < header.payload_bytes() + kv_cache, peak


def test_bad_engine_config_exits_3(tmp_path):
    trace = gen(tmp_path)
    assert main(["run", "--trace", str(trace), "--budget", "7",
                 "--chunk", "4", "--report", str(tmp_path / "r.json")]) == 3


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
