"""Replay benchmark for kvprobe.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

From the checkout root: generate the workload's trace from ``--seed``
with ``kvprobe gen-trace``, then replay it with ``kvprobe run`` in
fresh child processes (closed loop, one replay at a time) for about
``--seconds``. Each replay's report is checked (exit 0, strict JSON,
same SHA-256 across replays). The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced replay with ``--trace 1``. The line before it holds the full
record: environment, seed, report SHA-256 and each metric's sample
count. ``--workload all`` runs every workload; ``--smoke`` shrinks
every geometry so the whole benchmark runs in seconds.

See NOTES.md for the workloads, the metrics and what each layer
metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 9          # gen-trace repetitions behind setup_s
MIN_REPLAYS = 2         # so the cross-replay report check always has a pair
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SHARED_GEOMETRY = ("--chunk", "32", "--sinks", "64", "--local", "512")


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    layers: int
    heads: int
    windows: int
    decode_steps: int
    planted: int
    probe: str
    cutoff: str
    rep: str
    window: int = 256
    chunk: int = 32

    @property
    def d_head(self) -> int:
        return self.dim // self.heads

    @property
    def prefill_rows(self) -> int:
        return self.windows * self.window

    @property
    def tokens(self) -> int:
        return self.prefill_rows + self.decode_steps

    def gen_args(self, seed: int, out: Path) -> list[str]:
        return ["gen-trace", "--dim", str(self.dim),
                "--layers", str(self.layers), "--heads", str(self.heads),
                "--window-size", str(self.window),
                "--windows", str(self.windows),
                "--decode-steps", str(self.decode_steps),
                "--planted", str(self.planted), "--anchor-scale", "4.0",
                "--drift", "3.0", *SHARED_GEOMETRY,
                "--seed", str(seed), "--out", str(out)]

    def run_args(self, trace: Path, report: Path) -> list[str]:
        return ["run", "--trace", str(trace), "--probe", self.probe,
                "--cutoff", self.cutoff, "--rep", self.rep,
                "--budget", "256", *SHARED_GEOMETRY, "--report", str(report)]

    def smoke(self) -> "Workload":
        """Toy geometry with the same flags: 8 windows, 4 decode steps,
        d_head 8 or 16."""
        return replace(self, dim=8 * self.heads if self.heads > 1 else 16,
                       windows=8, decode_steps=4)


# Why each workload exists is in NOTES.md and BENCHMARK.json.
WORKLOADS = {
    "long-context": Workload("long-context", dim=64, layers=4, heads=1,
                             windows=64, decode_steps=64, planted=3,
                             probe="act", cutoff="dynamic", rep="mean"),
    "multi-head": Workload("multi-head", dim=512, layers=4, heads=8,
                           windows=16, decode_steps=24, planted=1,
                           probe="act", cutoff="dynamic", rep="mean"),
    "max-score": Workload("max-score", dim=64, layers=4, heads=1,
                          windows=12, decode_steps=24, planted=1,
                          probe="mean", cutoff="fixed", rep="max-score"),
}

# name -> unit; the order is the print order
END_TO_END = {
    "setup_s": "s", "run_s": "s", "replay_tokens_per_s": "1/s",
    "prefill_ms_p50": "ms", "prefill_ms_p90": "ms",
    "decode_ms_p50": "ms", "decode_ms_p90": "ms",
    "peak_rss_mb": "MB", "recall": "fraction",
}

# Printed in the detail line but not in the result line, and so not
# bounded. The host's speed flips between two levels, about 1.5x apart,
# for seconds to minutes at a time. These follow the share of time spent
# in the slow level and moved by more than the largest allowed bound
# (0.25) between passes of the same code (see NOTES.md); decode_ms_p90
# sits in the slow level in almost every run and stays within it.
DETAIL_ONLY = ("run_s", "replay_tokens_per_s", "prefill_ms_p50",
               "prefill_ms_p90", "decode_ms_p50")

# self time of each traced function -> per-layer metric; "{stage}" is
# "prefill" or "decode", from the engine step the span ran under
SELF_TIME = {
    "tracefile.read_trace": "tracefile.read_s",
    "tracefile.TraceReader.load": "tracefile.read_s",
    "tracefile.generate_synthetic": "tracefile.gen_s",
    "tracefile.write_trace": "tracefile.write_s",
    "cache.LayerCache.append": "cache.append_s.{stage}",
    "cache.LayerCache.snapshot": "cache.snapshot_s.{stage}",
    "probe.StreamingStats.update": "probe.stats_s",
    "probe.activation_bias": "probe.bias_s",
    "probe.uniform_bias": "probe.bias_s",
    "probe.build_probe": "probe.build_s",
    "probe.decoding_probe": "probe.build_s",
    "retrieval.score_chunks_across_heads": "retrieval.score_s.{stage}",
    "retrieval.materialize": "retrieval.materialize_s.{stage}",
    "cutoff.recall_layer": "cutoff.select_s.{stage}",
    "cutoff.layer_density": "cutoff.density_s.{stage}",
    "cutoff.allocate": "cutoff.allocate_s",
    "engine.reference_attention": "engine.attend_s.{stage}",
    "engine.Engine.prefill_step": "engine.prefill_self_s",
    "engine.Engine.decode_step": "engine.decode_self_s",
    "engine.run_trace": "engine.run_self_s",
    "metrics.build_report": "metrics.report_s",
}

# name -> unit
PER_LAYER = {
    "tracefile.read_s": "s", "tracefile.bytes_read": "bytes",
    "tracefile.gen_s": "s", "tracefile.write_s": "s",
    "cache.append_s.prefill": "s", "cache.append_s.decode": "s",
    "cache.append_rows": "count", "cache.chunks_sealed": "count",
    "cache.snapshot_s.prefill": "s", "cache.snapshot_s.decode": "s",
    "cache.snapshot_calls": "count", "cache.snapshot_bytes": "bytes",
    "probe.stats_s": "s", "probe.bias_s": "s", "probe.build_s": "s",
    "retrieval.score_s.prefill": "s", "retrieval.score_s.decode": "s",
    "retrieval.chunks_scored": "count", "retrieval.cosine_calls": "count",
    "retrieval.materialize_s.prefill": "s",
    "retrieval.materialize_s.decode": "s",
    "retrieval.pairs_materialized": "count",
    "retrieval.select_share": "fraction",
    "cutoff.density_s.prefill": "s", "cutoff.density_s.decode": "s",
    "cutoff.select_s.prefill": "s", "cutoff.select_s.decode": "s",
    "cutoff.allocate_s": "s", "cutoff.allocate_calls": "count",
    "engine.attend_s.prefill": "s", "engine.attend_s.decode": "s",
    "engine.pairs_attended": "count", "engine.attend_flops": "flop",
    "engine.prefill_self_s": "s", "engine.decode_self_s": "s",
    "engine.run_self_s": "s", "engine.unreachable_pairs": "count",
    "metrics.report_s": "s",
    "cli.self_s": "s",
    "tracing.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no result line is printed)."""


# -- child processes ----------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


@dataclass(frozen=True)
class Child:
    exit_code: int
    wall_s: float
    maxrss_kb: int


def spawn(argv: list[str], log: Path) -> Child:
    """Run one child to completion; wall time spans fork to reap."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss)


def kvprobe_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "kvprobe.cli", *args]


def shim_cmd(mode: str, side: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), "--mode", mode,
            "--out", str(side), "--", *args]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tail(path: Path, lines: int = 5) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


# -- output check -------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in report")


def check_report(path: Path, trace_sha: str, wl: Workload) -> float:
    """Parse a report strictly and check it against its inputs; returns
    overall recall. Raises ValueError on any defect."""
    doc = json.loads(path.read_bytes(), parse_constant=_reject_constant)
    if not isinstance(doc, dict):
        raise ValueError("report is not a JSON object")
    if doc.get("trace_sha256") != trace_sha:
        raise ValueError("report trace_sha256 does not match the trace")
    cfg = doc.get("config", {})
    want = {"probe_mode": wl.probe, "cutoff_mode": wl.cutoff,
            "rep_mode": wl.rep, "budget": 256, "chunk": wl.chunk,
            "d": wl.dim, "layers": wl.layers, "heads": wl.heads}
    bad = {k: cfg.get(k) for k, v in want.items() if cfg.get(k) != v}
    if bad:
        raise ValueError(f"report config disagrees with the run: {bad}")
    recall = doc["overall"]["recall"]["mean"]
    if not isinstance(recall, float) or not 0.0 <= recall <= 1.0:
        raise ValueError(f"overall recall {recall!r} not in [0, 1]")
    return recall


@dataclass
class Replay:
    traced: bool
    child: Child
    side: dict | None = None
    report_sha: str | None = None
    recall: float | None = None
    error: str | None = None


class Bench:
    """One benchmark invocation for one workload, inside a work dir."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.trace = work / "trace.akvt"
        self.trace_sha = ""
        self.replays: list[Replay] = []
        self.setup_s: list[float] = []
        self.gen_side: dict | None = None
        self.setup_error: str | None = None

    # -- set-up

    def setup(self, reps: int, traced: bool) -> None:
        """Generate the trace `reps` times; every copy must be identical."""
        digests = set()
        for i in range(reps):
            log = self.work / f"gen-{i}.log"
            args = self.wl.gen_args(self.seed, self.trace)
            if traced:
                side = self.work / "gen-spans.json"
                child = spawn(shim_cmd("spans", side, args), log)
            else:
                child = spawn(kvprobe_cmd(args), log)
            if child.exit_code != 0:
                raise BenchError(f"gen-trace exited {child.exit_code}:\n"
                                 f"{tail(log)}")
            self.setup_s.append(child.wall_s)
            # flush the fresh trace now so its write-back does not land
            # inside a timed replay
            with open(self.trace, "rb") as fh:
                os.fsync(fh.fileno())
            digests.add(sha256(self.trace))
            if traced:
                self.gen_side = json.loads(side.read_text())
        if len(digests) != 1:
            self.setup_error = f"gen-trace is not deterministic: {digests}"
        self.trace_sha = sha256(self.trace)

    # -- replays

    def replay(self, traced: bool) -> Replay:
        n = len(self.replays)
        side = self.work / f"replay-{n}.json"
        report = self.work / f"report-{n}.json"
        log = self.work / f"replay-{n}.log"
        args = self.wl.run_args(self.trace, report)
        child = spawn(shim_cmd("spans" if traced else "steps", side, args),
                      log)
        rp = Replay(traced=traced, child=child)
        self.replays.append(rp)
        if child.exit_code != 0:
            rp.error = f"exit {child.exit_code}: {tail(log)}"
            return rp
        try:
            rp.recall = check_report(report, self.trace_sha, self.wl)
            rp.side = json.loads(side.read_text())
        except (OSError, ValueError, KeyError, TypeError) as e:
            rp.error = f"report check: {e}"
            return rp
        rp.report_sha = sha256(report)
        return rp

    def measure(self, seconds: float, traced: bool) -> None:
        """Closed loop for `seconds`: start another round only while its
        expected length (median so far) still fits."""
        deadline = time.perf_counter() + seconds
        rounds: list[float] = []
        while (len(rounds) < (1 if traced else MIN_REPLAYS) or
               time.perf_counter() + statistics.median(rounds) <= deadline):
            t0 = time.perf_counter()
            self.replay(traced=False)
            if traced:
                self.replay(traced=True)
            rounds.append(time.perf_counter() - t0)

    def cross_check(self) -> str | None:
        """Every good replay, traced or not, must write the same report
        bytes as the first good untraced one; any other counts as failed."""
        good = [r for r in self.replays if r.error is None]
        ref = next((r.report_sha for r in good if not r.traced), None)
        for r in good:
            if r.report_sha != ref:
                r.error = f"report SHA-256 {r.report_sha} != {ref}"
        return ref

    def ok(self, traced: bool) -> list[Replay]:
        return [r for r in self.replays
                if r.error is None and r.traced == traced]

    # -- metrics

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        good = self.ok(traced=False)
        if not good:
            raise BenchError("no replay succeeded")
        pre = [t * 1e3 for r in good for t in r.side["step_times"]["prefill"]]
        dec = [t * 1e3 for r in good for t in r.side["step_times"]["decode"]]
        rates = [self.wl.tokens / (sum(r.side["step_times"]["prefill"]) +
                                   sum(r.side["step_times"]["decode"]))
                 for r in good]
        return {
            "setup_s": (statistics.median(self.setup_s), len(self.setup_s)),
            "run_s": (statistics.median(r.child.wall_s for r in good),
                      len(good)),
            "replay_tokens_per_s": (statistics.median(rates), len(rates)),
            "prefill_ms_p50": (statistics.median(pre), len(pre)),
            "prefill_ms_p90": (p90(pre), len(pre)),
            "decode_ms_p50": (statistics.median(dec), len(dec)),
            "decode_ms_p90": (p90(dec), len(dec)),
            "peak_rss_mb": (statistics.median(r.child.maxrss_kb / 1024
                                              for r in good), len(good)),
            "recall": (statistics.median(r.recall for r in good), len(good)),
        }

    def per_layer(self) -> dict[str, tuple[float, int]]:
        traced = self.ok(traced=True)
        plain = self.ok(traced=False)
        if not traced or not plain:
            raise BenchError("no traced/untraced replay pair succeeded")
        samples = [layer_metrics(r.side, r.child.wall_s, self.wl)
                   for r in traced]
        gen = span_metrics(self.gen_side["spans"])
        out = {}
        for name in PER_LAYER:
            if name in ("tracefile.gen_s", "tracefile.write_s"):
                out[name] = (gen[name], 1)
            elif name == "tracing.overhead_s":
                out[name] = (statistics.median(r.child.wall_s for r in traced)
                             - statistics.median(r.child.wall_s
                                                 for r in plain),
                             len(traced) + len(plain))
            else:
                out[name] = (statistics.median(s[name] for s in samples),
                             len(samples))
        return out


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# -- per-layer derivation -------------------------------------------------

def span_metrics(spans: list[list]) -> dict[str, float]:
    """Self times and wrapper counters summed per metric.

    A span is [name, start, end, parent, stage, step, counters]; its
    self time is its duration minus its direct children's durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = dict.fromkeys(PER_LAYER, 0)
    for i, (name, start, end, parent, stage, _, counts) in enumerate(spans):
        key = SELF_TIME[name].format(stage=stage)
        if key not in out:
            raise BenchError(f"span {name} ran outside an engine step")
        out[key] += end - start - child_time[i]
        if name == "cache.LayerCache.append":
            out["cache.append_rows"] += counts["rows"]
            out["cache.chunks_sealed"] += counts["sealed"]
        elif name == "cache.LayerCache.snapshot":
            out["cache.snapshot_calls"] += 1
            out["cache.snapshot_bytes"] += counts["bytes"]
        elif name == "cutoff.allocate":
            out["cutoff.allocate_calls"] += 1
        elif name == "tracefile.read_trace":
            out["tracefile.bytes_read"] += counts["bytes"]
    return out


def layer_metrics(side: dict, run_s: float, wl: Workload) -> dict[str, float]:
    """Per-layer metrics of one traced replay.

    Counts of hot inner calls come from the step records
    [stage, index, layer, candidates, selected, pairs_used, attended]
    rather than from wrappers, which would distort the timings.
    """
    spans = side["spans"]
    out = span_metrics(spans)
    out["cli.self_s"] = run_s - sum(end - start for _, start, end, parent,
                                    *_ in spans if parent < 0)
    per_cand = wl.chunk if wl.rep == "max-score" else 1
    scored = selected = 0
    for stage, index, _, n_cand, n_sel, used, attended in side["steps"]:
        rows = wl.window if stage == "prefill" else 1
        scored += n_cand
        selected += n_sel
        out["retrieval.pairs_materialized"] += used * wl.heads
        out["engine.pairs_attended"] += attended * wl.heads
        out["engine.attend_flops"] += (4 * rows * attended * wl.d_head *
                                       wl.heads)
        if stage == "decode":
            # cached pairs after this token's append, minus sinks + local
            # (attended - used) and whole candidate chunks
            cached = wl.prefill_rows + index + 1
            out["engine.unreachable_pairs"] += (
                cached - (attended - used) - wl.chunk * n_cand)
    out["retrieval.chunks_scored"] = scored
    out["retrieval.cosine_calls"] = scored * wl.heads * per_cand
    out["retrieval.select_share"] = selected / scored if scored else 0.0
    return out


# -- output ---------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    env = child_env()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "thread_caps": {v: env[v] for v in THREAD_VARS},
            "nproc": nproc(), "cpu": cpu_model(), "seed": seed,
            "loop": "closed, one replay at a time"}


def run_workload(wl: Workload, seed: int, seconds: float,
                 traced: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        bench = Bench(wl, seed, work)
        bench.setup(1 if traced else SETUP_REPS, traced)
        bench.measure(seconds, traced)
        report_sha = bench.cross_check()
        metrics = bench.per_layer() if traced else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if traced else END_TO_END
    failed = [r for r in bench.replays if r.error is not None]
    errors = [r.error for r in failed]
    if bench.setup_error is not None:
        errors.append(bench.setup_error)
    return {
        "workload": wl.name, "trace": int(traced),
        "geometry": {k: v for k, v in vars(wl).items() if k != "name"},
        "env": environment(seed),
        "trace_sha256": bench.trace_sha, "report_sha256": report_sha,
        "attempted": len(bench.replays), "failed": len(failed),
        "error_rate": len(failed) / max(1, len(bench.replays)),
        "errors": errors,
        "replay_s": [[r.child.wall_s, int(r.traced)] for r in bench.replays],
        "metrics": {name: {"value": v, "unit": units[name], "samples": n}
                    for name, (v, n) in metrics.items()},
    }


def _terminate(signum, frame):
    # unwind through spawn(), which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    p = argparse.ArgumentParser(description="kvprobe replay benchmark")
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="toy geometry that runs in seconds")
    args = p.parse_args(argv)

    if not (SRC / "kvprobe" / "cli.py").is_file():
        print(f"error: kvprobe sources not found under {SRC}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            wl = WORKLOADS[name].smoke() if args.smoke else WORKLOADS[name]
            res = run_workload(wl, args.seed, args.seconds, bool(args.trace))
            results.append(res)
            for mname, m in res["metrics"].items():
                print(f"{name:13s} {mname:32s} {m['value']:>16.6g} "
                      f"{m['unit']:8s} n={m['samples']}")
            for err in res["errors"]:
                print(f"{name}: {err}", file=sys.stderr)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    prefix = len(results) > 1
    line = {
        "correct": all(not r["errors"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k):
                    {"value": m["value"], "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()
                    if k not in DETAIL_ONLY},
    }
    print(json.dumps({"detail": results}, allow_nan=False))
    print(json.dumps(line, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
