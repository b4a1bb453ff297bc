#!/usr/bin/env python3
"""SHA-256 of every trace, report and per-step records file that a fixed
set of ``gen-trace`` and ``run`` cases writes: a byte-identity check of
the whole pipeline between two checkouts.

Each case runs ``kvprobe.cli.main`` in-process into a temporary
directory, each run twice: without --records, which attends nothing,
then with it. One ``sha256  name`` line is printed per file written,
the first report as ``name.report.json (no records)``. The
script needs only the CLI, so PYTHONPATH picks the checkout it checks:

    PYTHONPATH=src python3 scripts/digests.py > after.txt
    PYTHONPATH=../parent/src python3 scripts/digests.py > before.txt
    diff before.txt after.txt

Cases, all at --seed (default 0):
- the three benchmark workloads, their arguments taken from
  perfbench/run.py's WORKLOADS, and multi-head's trace again under
  ``--rep max-score --cutoff fixed``: 8 heads of 64 dims, the one
  max-score run on several heads;
- acceptance criterion 6's trace, run under the defaults, under
  ``--rep max-score`` and under ``--probe mean --cutoff fixed
  --budget 96``;
- two odd geometries: 2 heads, chunk 7 with an open partial chunk,
  ``--local 0`` and task rows, under max-score and the mean rep (whose
  run without records reads the cached rows of the open chunk); 3
  heads, chunk 6, no sinks and a non-zero local tail, at budgets 12
  and 600.

--smoke runs the workloads' ``Workload.smoke()`` geometries and
criterion 6 at toy size, in a few seconds.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from kvprobe.cli import main as kvprobe

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def criterion_6(smoke: bool) -> list[str]:
    size = (["--dim", "16", "--windows", "6", "--decode-steps", "2"] if smoke
            else ["--windows", "12", "--decode-steps", "5"])
    return ["gen-trace", *size, "--planted", "3", "--anchor-scale", "4.0",
            "--drift", "3.0"]


ODD_H2 = ["--chunk", "7", "--sinks", "3", "--local", "0"]
ODD_H3 = ["--chunk", "6", "--sinks", "0", "--local", "10"]


def cases(seed: int, smoke: bool, out: Path):
    """(trace path, gen-trace argv, [(name, run argv)]) per trace; a run
    named n writes the report n.report.json."""

    def report(name: str) -> str:
        return str(out / f"{name}.report.json")

    def own(name: str, gen: list[str], runs: dict[str, list[str]]):
        trace = out / f"{name}.akvt"
        return trace, [*gen, "--seed", str(seed), "--out", str(trace)], [
            (f"{name}-{run}", ["run", "--trace", str(trace), *extra,
                               "--report", report(f"{name}-{run}")])
            for run, extra in runs.items()]

    for wl in load_workloads().values():
        wl = wl.smoke() if smoke else wl
        trace = out / f"{wl.name}.akvt"
        runs = [(wl.name, wl.run_args(trace, report(wl.name)))]
        if wl.name == "multi-head":
            name = f"{wl.name}-max-score"
            runs.append((name, replace(wl, cutoff="fixed", rep="max-score")
                         .run_args(trace, report(name))))
        yield trace, wl.gen_args(seed, trace), runs
    yield own("criterion-6", criterion_6(smoke), {
        "defaults": [], "max-score": ["--rep", "max-score"],
        "mean-fixed-96": ["--probe", "mean", "--cutoff", "fixed",
                          "--budget", "96"]})
    yield own("odd-h2", ["gen-trace", "--dim", "16", "--layers", "2",
                         "--heads", "2", "--window-size", "20",
                         "--windows", "6", "--decode-steps", "3",
                         "--task-rows", "4", *ODD_H2],
              {"max-score": ["--rep", "max-score", "--budget", "21",
                             *ODD_H2],
               "mean": ["--budget", "21", *ODD_H2]})
    yield own("odd-h3", ["gen-trace", "--dim", "24", "--layers", "3",
                         "--heads", "3", "--window-size", "18",
                         "--windows", "8", "--decode-steps", "3",
                         "--planted", "2", *ODD_H3],
              {f"budget-{b}": ["--budget", str(b), *ODD_H3]
               for b in (12, 600)})


def cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = kvprobe(argv)
    if code != 0:
        sys.exit(f"kvprobe {' '.join(argv)} exited {code}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy geometries: seconds, not minutes")
    args = p.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for trace, gen, runs in cases(args.seed, args.smoke, out):
            cli(gen)
            print(f"{sha256(trace)}  {trace.name}")
            for name, run in runs:
                report, records = (out / f"{name}.report.json",
                                   out / f"{name}.records.jsonl")
                cli(run)
                print(f"{sha256(report)}  {report.name} (no records)")
                cli([*run, "--records", str(records)])
                for path in (report, records):
                    print(f"{sha256(path)}  {path.name}")
            trace.unlink()  # a workload trace may be 100 MB


if __name__ == "__main__":
    main()
