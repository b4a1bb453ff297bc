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
    out = tmp_path / "cmp.json"
    run_script("probe_comparison", TOY + ["--out", str(out)], monkeypatch)
    assert json.loads(out.read_text())["pairs"] == 1


def test_budget_sweep_runs(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    run_script("budget_sweep", TOY + ["--budgets", "64", "--csv", str(out)],
               monkeypatch)
    lines = out.read_text().splitlines()
    assert lines[0] == "budget,probe,recall,perplexity"
    assert [line.split(",")[:2] for line in lines[1:]] == [["64", "act"],
                                                          ["64", "mean"]]
