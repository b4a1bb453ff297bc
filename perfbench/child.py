"""Child-process shim: run the kvprobe CLI with outside-in instrumentation.

    python3 perfbench/child.py --mode steps|spans --out SIDE.json -- ARGS...

runs ``kvprobe.cli.main(ARGS)`` in this fresh interpreter and exits
with its return code. Nothing under ``src/`` changes; instrumentation
is installed by rebinding names from here before ``main`` runs.

``steps``  Times only ``Engine.prefill_step`` and ``Engine.decode_step``
           with two ``perf_counter`` calls each (about 1 us against
           steps of 10 ms or more); nothing inside a step is timed.
``spans``  Wraps each per-call boundary the engine and CLI call into
           (see ``TARGETS``) and records one span per call: name,
           start, end, parent span, stage, step index and optional
           counters. It also keeps a compact copy of every step
           record. Hot inner helpers such as ``linalg.cosine`` are
           deliberately not wrapped: at ~187k calls per long-context
           run a wrapper would cost about a quarter of the run. Their
           counts are derived from the step records instead.

Spans and step timings stay in memory and are written to ``--out``
once, after ``main`` returns.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Span names are "<kvprobe module>.<function or Class.method>". Every
# kvprobe module-level name bound to a wrapped function is rebound, so
# calls through imported names (``kvprobe.engine.allocate``,
# ``kvprobe.cli.read_trace``, ...) are traced too. Methods are patched
# on their classes.
TARGETS = (
    "tracefile.read_trace", "tracefile.TraceReader.load",
    "tracefile.generate_synthetic", "tracefile.write_trace",
    "cache.LayerCache.append", "cache.LayerCache.snapshot",
    "probe.StreamingStats.update", "probe.activation_bias",
    "probe.uniform_bias", "probe.build_probe", "probe.decoding_probe",
    "retrieval.score_chunks_across_heads", "retrieval.materialize",
    "cutoff.layer_density", "cutoff.recall_layer", "cutoff.allocate",
    "engine.reference_attention", "engine.run_trace",
    "engine.Engine.prefill_step", "engine.Engine.decode_step",
    "metrics.build_report",
)

STEP_METHODS = {"prefill_step": "prefill", "decode_step": "decode"}


def _append_counts(args, out):
    return {"rows": len(args[1]), "sealed": int(out)}


def _snapshot_counts(args, out):
    # arrays re-stacked per call: sinks, local tail and the open chunk
    # (the only chunk with fewer than `chunk` rows); sealed chunks are
    # shared by reference
    restacked = (out.sink_keys.nbytes + out.sink_values.nbytes +
                 out.local_keys.nbytes + out.local_values.nbytes)
    if out.chunks and out.chunks[-1].rows < args[0].chunk:
        restacked += out.chunks[-1].keys.nbytes + out.chunks[-1].values.nbytes
    return {"bytes": restacked}


def _read_counts(args, out):
    return {"bytes": int(out[0].payload_bytes())}


COUNTERS = {
    "cache.LayerCache.append": _append_counts,
    "cache.LayerCache.snapshot": _snapshot_counts,
    "tracefile.read_trace": _read_counts,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.steps: list[list] = []
        self._stack: list[int] = []
        self.stage: str | None = None
        self.step = -1

    def wrap(self, name: str, fn, step_stage: str | None = None):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if step_stage is not None:
                self.stage = step_stage
                self.step = int(args[4] if len(args) > 4 else kwargs["index"])
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.stage, self.step, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[6] = count(args, out)
            if step_stage is not None:
                self._keep_step(step_stage, out)
                self.stage, self.step = None, -1
            return out

        return traced

    def _keep_step(self, stage: str, step) -> None:
        for rec in step.layers:
            self.steps.append([stage, step.index, rec.layer,
                               len(rec.candidate_ids), len(rec.selected),
                               rec.pairs_used, rec.attended_pairs])

    def install(self) -> None:
        import importlib

        importlib.import_module("kvprobe.cli")  # loads every module
        modules = [m for name, m in sys.modules.items()
                   if name == "kvprobe" or name.startswith("kvprobe.")]
        for span in TARGETS:
            mod_name, attr = span.split(".", 1)
            owner = importlib.import_module(f"kvprobe.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(span, getattr(cls, meth),
                                             STEP_METHODS.get(meth)))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(span, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)


class StepTimer:
    """Per-step wall times of Engine.prefill_step / decode_step only."""

    def __init__(self):
        self.times: dict[str, list[float]] = {"prefill": [], "decode": []}

    def install(self) -> None:
        from kvprobe.engine import Engine

        for meth, stage in STEP_METHODS.items():
            setattr(Engine, meth, self._timed(getattr(Engine, meth),
                                              self.times[stage]))

    @staticmethod
    def _timed(fn, sink: list):
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            sink.append(clock() - t0)
            return out

        return timed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=["steps", "spans"], required=True)
    p.add_argument("--out", required=True, help="side file (JSON)")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import kvprobe
    if Path(kvprobe.__file__).resolve().parent.parent != SRC:
        print(f"kvprobe imported from {kvprobe.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    from kvprobe import cli

    inst = Tracer() if args.mode == "spans" else StepTimer()
    inst.install()
    rc = cli.main(cli_args)
    if args.mode == "spans":
        side = {"spans": inst.spans, "steps": inst.steps}
    else:
        side = {"step_times": inst.times}
    with open(args.out, "w") as fh:
        json.dump(side, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    sys.exit(main())
