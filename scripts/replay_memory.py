#!/usr/bin/env python3
"""What one replay holds beyond its cache, traced by tracemalloc.

Generates acceptance criterion 6's trace (4 layers, 12 windows of 256
rows, 5 decode steps, 3 planted chunks per step) at the given --dim,
--heads and --windows, then replays it with ``run --budget 256`` (with
--records, ``run --budget 256 --records``, which attends); both go
through ``kvprobe.cli.main`` in-process, the replay under
tracemalloc. Prints the bytes of the replay's cache when the run ends
(its float64 chunk reps and their norms, and its float32 key and
value-sum buffers: every token's when the replay attends, a window
and a chunk of rows when it does not), the traced peak of the run and
their difference, and then the traced peak
of each stage: pre-fill's is the peak up to the first decode step,
where the peak is reset, and decode's the peak from there to the end
of the run (the report included), so the larger of the two sets the
run's peak:

    PYTHONPATH=src python3 scripts/replay_memory.py
    PYTHONPATH=src python3 scripts/replay_memory.py --dim 64 --heads 1
    PYTHONPATH=src python3 scripts/replay_memory.py --records
"""

import argparse
import contextlib
import io
import tempfile
import tracemalloc
from pathlib import Path

from kvprobe.cli import main as kvprobe
from kvprobe.engine import Engine


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dim", type=int, default=512)
    ap.add_argument("--heads", type=int, default=8)
    ap.add_argument("--windows", type=int, default=12)
    ap.add_argument("--records", action="store_true",
                    help="also write records, so the replay attends")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        trace, report = Path(tmp) / "t.akvt", Path(tmp) / "r.json"
        with contextlib.redirect_stdout(io.StringIO()):
            if kvprobe(["gen-trace", "--dim", str(args.dim),
                        "--heads", str(args.heads),
                        "--windows", str(args.windows),
                        "--decode-steps", "5", "--planted", "3",
                        "--anchor-scale", "4.0", "--drift", "3.0",
                        "--seed", "0", "--out", str(trace)]) != 0:
                raise SystemExit("gen-trace failed")
            prefill, engines = [], []
            decode_step = Engine.decode_step

            def first_decode_resets_peak(engine, token, index):
                if not prefill:
                    prefill.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.reset_peak()
                    engines.append(engine)
                return decode_step(engine, token, index)

            Engine.decode_step = first_decode_resets_peak
            records = (["--records", str(Path(tmp) / "steps.jsonl")]
                       if args.records else [])
            tracemalloc.start()
            try:
                code = kvprobe(["run", "--trace", str(trace),
                                "--budget", "256", "--report", str(report),
                                *records])
                _, decode = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
                Engine.decode_step = decode_step
        if code != 0:
            raise SystemExit(f"run exited {code}")
    cache = engines[0].cache.nbytes
    peak = max(prefill[0], decode)
    for name, n in (("cache", cache), ("peak", peak),
                    ("above cache", peak - cache),
                    ("pre-fill", prefill[0]), ("decode", decode)):
        print(f"{name:<12}{n / 2**20:8.2f} MiB {n:>12,} bytes")


if __name__ == "__main__":
    main()
