"""Command-line front end.

Subcommands:

    gen-trace   build a synthetic trace file, optionally with planted
                relevance structure and its ground truth
    run         replay a trace through the retrieval engine and write
                a JSON quality report (optionally per-step records and
                a timing manifest)
    compare     diff two reports, or two equal-length report sweeps

Exit codes: 0 success, 2 malformed input file, 3 rejected
configuration, 4 mismatched comparison inputs or run flags that
disagree with the trace's ground truth. Reports are written
with sorted keys and fixed separators so identical runs produce
byte-identical files; wall-clock timing only ever goes to the
separate manifest file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .engine import ConfigError, EngineConfig, run_trace
from .metrics import (ConfigMismatch, build_report, check_geometry,
                      compare_runs, report_to_csv)
from .tracefile import (PlantedSpec, SpecOutOfRange, SyntheticConfig,
                        TraceFormatError, generate_synthetic, read_trace)

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_CONFIG = 3
EXIT_MISMATCH = 4


def _dumps(obj) -> str:
    # strict JSON: a NaN or infinity raises instead of reaching a report
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def _emit(path: str | None, obj) -> None:
    text = _dumps(obj)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kvprobe",
        description="trace-driven KV-cache retrieval harness")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-trace", help="generate a synthetic trace")
    g.add_argument("--dim", type=int, default=64)
    g.add_argument("--layers", type=int, default=4)
    g.add_argument("--heads", type=int, default=1)
    g.add_argument("--window-size", type=int, default=256)
    g.add_argument("--windows", type=int, default=8)
    g.add_argument("--decode-steps", type=int, default=16)
    g.add_argument("--planted", type=int, default=1,
                   help="early target chunks per decode step; 0 disables "
                        "planting entirely")
    g.add_argument("--signal", type=float, default=0.8)
    g.add_argument("--anchor-fraction", type=float, default=0.10)
    g.add_argument("--anchor-scale", type=float, default=3.0)
    g.add_argument("--drift", type=float, default=1.0,
                   help="correlated background query offset magnitude")
    g.add_argument("--sinks", type=int, default=64)
    g.add_argument("--chunk", type=int, default=32)
    g.add_argument("--local", type=int, default=512)
    g.add_argument("--task-rows", type=int, default=0)
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--out", required=True)

    r = sub.add_parser("run", help="replay a trace through the engine")
    r.add_argument("--trace", required=True)
    r.add_argument("--probe", choices=["act", "mean"], default="act")
    r.add_argument("--cutoff", choices=["dynamic", "fixed"],
                   default="dynamic")
    r.add_argument("--budget", type=int, default=1472)
    r.add_argument("--chunk", type=int, default=32)
    r.add_argument("--sinks", type=int, default=64)
    r.add_argument("--local", type=int, default=512)
    r.add_argument("--rep", choices=["mean", "max-score"], default="mean")
    r.add_argument("--records", default=None,
                   help="write per-step records as JSON lines")
    r.add_argument("--report", default=None,
                   help="report path (stdout when omitted)")
    r.add_argument("--csv", default=None,
                   help="also write the report as CSV")
    r.add_argument("--manifest", default=None,
                   help="write wall-clock timing here, never in the report")

    c = sub.add_parser("compare", help="diff two runs or sweeps")
    c.add_argument("--a", nargs="+", required=True)
    c.add_argument("--b", nargs="+", required=True)
    c.add_argument("--out", default=None)
    return p


def _cmd_gen_trace(args) -> int:
    cfg = SyntheticConfig(d=args.dim, layers=args.layers, heads=args.heads,
                          window=args.window_size, num_windows=args.windows,
                          num_decode_steps=args.decode_steps,
                          n_sink=args.sinks, chunk=args.chunk,
                          n_local=args.local, task_rows=args.task_rows)
    planted = None
    if args.planted > 0:
        planted = PlantedSpec.auto(cfg, per_step=args.planted,
                                   signal=args.signal,
                                   anchor_fraction=args.anchor_fraction,
                                   anchor_scale=args.anchor_scale,
                                   drift_scale=args.drift)
    trace = generate_synthetic(cfg, planted, seed=args.seed,
                               out_path=args.out)
    h = trace.header
    print(f"wrote {args.out}: {h.num_windows} windows x {h.window} rows, "
          f"{h.num_decode_steps} decode steps, layers={h.layers} "
          f"heads={h.heads} d={h.d}, ground_truth={h.has_ground_truth}")
    return EXIT_OK


def _cmd_run(args) -> int:
    started = time.monotonic()
    header, reader = read_trace(args.trace)
    ground_truth = reader.ground_truth()
    config = EngineConfig(d=header.d, layers=header.layers,
                          heads=header.heads, window=header.window,
                          chunk=args.chunk, n_sink=args.sinks,
                          n_local=args.local, budget=args.budget,
                          probe_mode=args.probe, cutoff_mode=args.cutoff,
                          rep_mode=args.rep)
    if ground_truth is not None:
        # known from the header and footer alone, so no replay runs first
        check_geometry(config, ground_truth)
    # streamed: the payload is read one step block at a time, and any
    # NaN it holds stops the run before a file is written
    result = run_trace(reader, config)
    digest = _sha256(args.trace)
    report = build_report(result, ground_truth=ground_truth,
                          trace_sha256=digest)
    if args.records:
        with open(args.records, "w") as fh:
            for step in result.steps:
                fh.write(_dumps(step.to_json()))
    _emit(args.report, report)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report_to_csv(report))
    if args.manifest:
        _emit(args.manifest, {
            "argv": sys.argv[1:],
            "trace": args.trace,
            "trace_sha256": digest,
            "elapsed_seconds": time.monotonic() - started,
        })
    if args.report:
        rec = report["overall"]["recall"]["mean"]
        ppl = report["overall"]["perplexity"]["mean"]
        rec_txt = "n/a" if rec is None else f"{rec:.4f}"
        print(f"wrote {args.report}: steps={len(result.steps)} "
              f"probe={config.probe_mode} cutoff={config.cutoff_mode} "
              f"recall={rec_txt} perplexity={ppl:.4f}")
    return EXIT_OK


def _is_report(doc) -> bool:
    """Whether doc has the per-layer and overall means compare reads."""
    try:
        cells = [doc["overall"]] + [lay["metrics"] for lay in doc["layers"]]
        return all(isinstance(cell[m]["mean"], (int, float, type(None)))
                   for cell in cells for m in ("recall", "perplexity"))
    except (KeyError, TypeError):
        return False


def _load_reports(paths: list[str]):
    reports = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                reports.append(json.load(fh))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise TraceFormatError(f"{path}: not valid JSON: {e}")
        if not _is_report(reports[-1]):
            raise TraceFormatError(f"{path}: not a kvprobe report")
    return reports[0] if len(reports) == 1 else reports


def _cmd_compare(args) -> int:
    diff = compare_runs(_load_reports(args.a), _load_reports(args.b))
    _emit(args.out, diff)
    if args.out:
        ov = diff["overall"]
        print(f"wrote {args.out}: pairs={diff['pairs']} "
              f"delta_recall={ov['delta_recall']} "
              f"delta_perplexity={ov['delta_perplexity']}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-trace":
            return _cmd_gen_trace(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except TraceFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except (ConfigError, SpecOutOfRange) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
