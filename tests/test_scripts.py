"""The experiment scripts under scripts/ call kvprobe's public API; run
each once at a toy size so an API change that breaks them fails here."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TOY = ["--seeds", "1", "--decode-steps", "2", "--planted", "1"]


def run_script(name: str, argv: list[str], monkeypatch) -> None:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    assert mod.main() is None


def test_probe_comparison_runs(tmp_path, monkeypatch):
    """claims.py at its default single budget writes one comparison."""
    out = tmp_path / "cmp.json"
    run_script("claims", TOY + ["--out", str(out)], monkeypatch)
    diffs = json.loads(out.read_text())
    assert list(diffs) == ["256"] and diffs["256"]["pairs"] == 1


def test_budget_sweep_runs(tmp_path, monkeypatch):
    """claims.py --csv writes one row of means per (budget, probe)."""
    out = tmp_path / "sweep.csv"
    run_script("claims", TOY + ["--budgets", "64", "--csv", str(out)],
               monkeypatch)
    lines = out.read_text().splitlines()
    assert lines[0] == "budget,probe,recall,perplexity"
    assert [line.split(",")[:2] for line in lines[1:]] == [["64", "act"],
                                                          ["64", "mean"]]


def test_claims_runs_and_repeats(tmp_path, monkeypatch):
    """Two runs write byte-identical files: the csv's means in (budget,
    probe) order and one comparison per budget, keyed by budget."""
    files = []
    for run in range(2):
        csv, out = tmp_path / f"{run}.csv", tmp_path / f"{run}.json"
        run_script("claims", TOY + ["--budgets", "64", "128", "--csv",
                                    str(csv), "--out", str(out)], monkeypatch)
        files.append((csv.read_bytes(), out.read_bytes()))
    assert files[0] == files[1]
    lines = files[0][0].decode().splitlines()
    assert lines[0] == "budget,probe,recall,perplexity"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["64", "act"], ["64", "mean"], ["128", "act"], ["128", "mean"]]
    diffs = json.loads(files[0][1])
    assert sorted(diffs) == ["128", "64"]
    assert all(diffs[b]["pairs"] == 1 and diffs[b]["a_config"]["budget"]
               == int(b) for b in diffs)


def test_decode_calls_runs(monkeypatch, capsys):
    for rep in ("mean", "max-score"):
        run_script("decode_calls", ["--windows", "3", "4", "--dim", "16",
                                    "--decode-steps", "2", "--planted", "0",
                                    "--rep", rep], monkeypatch)
        lines = capsys.readouterr().out.splitlines()
        # 3 and 4 windows of 256 rows leave 6 and 14 candidates behind
        # the 64 sinks and the 512-row tail
        # each geometry's step without attention, as `run` makes it, then
        # the step of `run --records`, which attends
        assert lines[0].split()[-6:] == ["6", "cand.", "records",
                                         "14", "cand.", "records"]
        counts = {line.rsplit(None, 4)[0]: [int(n) for n in
                                            line.split()[-4:]]
                  for line in lines[1:]}
        run, records = counts["total"][:2]
        assert 0 < run < records
        for name in ("engine.Engine.decode_step", "retrieval.select_topk"):
            assert min(counts[name]) > 0
        assert counts["engine.reference_attention"][1] > 0
        assert counts["engine.reference_attention"][0::2] == [0, 0]
        assert ("retrieval._screened_max" in counts) == (rep == "max-score")


def test_digests_are_repeatable(monkeypatch, capsys):
    outputs = []
    for _ in range(2):
        run_script("digests", ["--smoke"], monkeypatch)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    digests = dict(line.split("  ")[::-1] for line in outputs[0].splitlines())
    assert len(digests) == 39  # 6 traces, 11 runs of 3 files each
    for name in ("long-context", "multi-head", "max-score", "criterion-6",
                 "odd-h2", "odd-h3"):
        assert f"{name}.akvt" in digests
    # a run without records, which attends nothing, reports the same bytes
    for name, digest in digests.items():
        if name.endswith(" (no records)"):
            assert digest == digests[name.removesuffix(" (no records)")]


def test_replay_memory_runs(monkeypatch, capsys):
    for flags in ([], ["--records"]):
        run_script("replay_memory", ["--dim", "16", "--heads", "2", *flags],
                   monkeypatch)
        lines = capsys.readouterr().out.splitlines()
        assert [line.rsplit(None, 4)[0] for line in lines] == [
            "cache", "peak", "above cache", "pre-fill", "decode"]
        cache, peak, above, prefill, decode = (
            int(line.split()[-2].replace(",", "")) for line in lines)
        assert 0 < cache < peak and above == peak - cache
        # each stage holds the cache; the larger stage peak is the run's
        assert min(prefill, decode) > cache and peak == max(prefill, decode)
