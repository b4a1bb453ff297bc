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
import json
import sys
import time

import numpy as np

from .engine import FIELD_MODES, ConfigError, EngineConfig, run_trace
from .metrics import (ConfigMismatch, build_report, check_geometry,
                      compare_runs, percentiles, report_to_csv)
from .tracefile import (PlantedSpec, SpecOutOfRange, SyntheticConfig,
                        TraceFormatError, generate_synthetic, read_trace,
                        write_trace)

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
    import hashlib  # loads OpenSSL, so only once the replay has freed its cache
    h = hashlib.sha256()
    block = bytearray(1 << 16)  # one buffer for every read
    view = memoryview(block)
    with open(path, "rb") as fh:
        while got := fh.readinto(block):
            h.update(view[:got])
    return h.hexdigest()


def _numeric_stack() -> dict:
    """numpy's version, the SIMD extensions it dispatches to and its
    BLAS name and version: what a report's last bits depend on. null
    where numpy's show_config cannot give them as dicts (before 1.26)."""
    try:
        config = np.show_config(mode="dicts")
        simd = config["SIMD Extensions"]["found"]
        blas = {k: config["Build Dependencies"]["blas"].get(k)
                for k in ("name", "version")}
    except (TypeError, KeyError):
        simd = blas = None
    return {"numpy": np.__version__, "simd": simd, "blas": blas}


def _max_rss_mb() -> float | None:
    """The process's peak resident set so far in MB (2**20 bytes, as the
    benchmark counts them), None without the resource module (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # bytes on macOS, KiB on Linux
    return peak / (1 << (20 if sys.platform == "darwin" else 10))


def _step_timing(seconds: list[float]) -> dict:
    """Count, total and p50/p90 wall time of one stage's step calls."""
    p50, p90 = ([p * 1e3 for p in percentiles(np.asarray(seconds), (50, 90))]
                if seconds else (None, None))
    return {"steps": len(seconds), "total_s": sum(seconds),
            "p50_ms": p50, "p90_ms": p90}


# {config class: {flag: field}}: each flag takes its field's default and
# type, and a mode field's choices from FIELD_MODES.
FIELD_FLAGS = {
    SyntheticConfig: {
        "--dim": "d", "--layers": "layers", "--heads": "heads",
        "--window-size": "window", "--windows": "num_windows",
        "--decode-steps": "num_decode_steps", "--sinks": "n_sink",
        "--chunk": "chunk", "--local": "n_local", "--task-rows": "task_rows"},
    PlantedSpec: {
        "--signal": "signal", "--anchor-fraction": "anchor_fraction",
        "--anchor-scale": "anchor_scale", "--drift": "drift_scale"},
    EngineConfig: {
        "--probe": "probe_mode", "--cutoff": "cutoff_mode",
        "--budget": "budget", "--chunk": "chunk", "--sinks": "n_sink",
        "--local": "n_local", "--rep": "rep_mode"},
}
FLAG_HELP = {"--drift": "correlated background query offset magnitude"}


def _add_field_flags(parser: argparse.ArgumentParser, *classes) -> None:
    for cls in classes:
        for flag, name in FIELD_FLAGS[cls].items():
            default, choices = getattr(cls, name), FIELD_MODES.get(name)
            parser.add_argument(flag, default=default, choices=choices,
                                type=None if choices else type(default),
                                help=FLAG_HELP.get(flag))


def _field_values(args: argparse.Namespace, cls) -> dict:
    """{field: parsed value} of the flags that set a cls field."""
    return {name: getattr(args, flag[2:].replace("-", "_"))
            for flag, name in FIELD_FLAGS[cls].items()}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kvprobe",
        description="trace-driven KV-cache retrieval harness")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-trace", help="generate a synthetic trace")
    _add_field_flags(g, SyntheticConfig, PlantedSpec)
    g.add_argument("--planted", type=int, default=1,
                   help="early target chunks per decode step; 0 disables "
                        "planting entirely")
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--out", required=True)

    r = sub.add_parser("run", help="replay a trace through the engine")
    r.add_argument("--trace", required=True)
    _add_field_flags(r, EngineConfig)
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
    cfg = SyntheticConfig(**_field_values(args, SyntheticConfig))
    planted = None
    if args.planted != 0:  # auto rejects a negative count
        planted = PlantedSpec.auto(cfg, per_step=args.planted,
                                   **_field_values(args, PlantedSpec))
    trace = generate_synthetic(cfg, planted, seed=args.seed)
    write_trace(args.out, trace)
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
                          **_field_values(args, EngineConfig))
    if ground_truth is not None:
        # known from the header and footer alone, so no replay runs first
        check_geometry(config, ground_truth)
    # streamed: the payload is read one step block at a time, and any
    # NaN it holds stops the run before a file is written; attention
    # feeds only the records' checksums
    result = run_trace(reader, config, attend=args.records is not None)
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
            "stages": {stage: _step_timing(times)
                       for stage, times in result.step_seconds.items()},
            "candidates_scored": sum(len(rec.candidate_ids)
                                     for _, rec in result.layer_records()),
            "pairs_materialized": sum(rec.pairs_used
                                      for _, rec in result.layer_records()),
            "max_rss_mb": _max_rss_mb(),
            "numeric_stack": _numeric_stack(),
        })
    if args.report:
        rec = report["overall"]["recall"]["mean"]
        ppl = report["overall"]["perplexity"]["mean"]
        rec_txt = "n/a" if rec is None else f"{rec:.4f}"
        ppl_txt = "n/a" if ppl is None else f"{ppl:.4f}"
        print(f"wrote {args.report}: steps={len(result.steps)} "
              f"probe={config.probe_mode} cutoff={config.cutoff_mode} "
              f"recall={rec_txt} perplexity={ppl_txt}")
    return EXIT_OK


def _is_report(doc) -> bool:
    """Whether doc has the config object and metric means compare reads."""
    try:
        cells = [doc["overall"]] + [lay["metrics"] for lay in doc["layers"]]
        return isinstance(doc.get("config", {}), dict) and all(
            isinstance(cell[m]["mean"], (int, float, type(None)))
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
    except (TraceFormatError, OSError) as e:
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
