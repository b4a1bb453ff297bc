#!/usr/bin/env python3
"""Python and C calls made by one decode step, per kvprobe function.

Replays a planted trace at acceptance criterion 6's geometry (d=64,
4 layers, 1 head, 256-row windows, budget 256) twice per --windows
value, scoring chunks with --rep (mean or max-score): once without
attention, as ``kvprobe run`` replays, and once with it, as ``run
--records`` does. Each replay wraps its last decode step in
sys.setprofile. Every call event, Python or C, is charged to the
innermost kvprobe function on the stack when it is made, so a
function's count includes the numpy internals it runs. Prints two
columns per geometry, the first headed by its candidate count and the
second, "records", by the attending step; the total row is each
step's whole call count.

    PYTHONPATH=src python3 scripts/decode_calls.py --windows 16 64
    PYTHONPATH=src python3 scripts/decode_calls.py --rep max-score
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

from kvprobe import (Engine, EngineConfig, PlantedSpec, SyntheticConfig,
                     generate_synthetic)
from kvprobe.engine import REP_MODES

PACKAGE = str(Path(sys.modules["kvprobe"].__file__).parent)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--windows", type=int, nargs="+", default=[16, 64])
    p.add_argument("--window-size", type=int, default=SyntheticConfig.window)
    p.add_argument("--dim", type=int, default=SyntheticConfig.d)
    p.add_argument("--decode-steps", type=int, default=5)
    p.add_argument("--planted", type=int, default=3,
                   help="target chunks per decode step; 0 plants none")
    p.add_argument("--budget", type=int, default=256)
    p.add_argument("--rep", choices=REP_MODES, default=EngineConfig.rep_mode)
    p.add_argument("--seed", type=int, default=0)
    return p.parse_args()


def owner(frame) -> str | None:
    """Qualified name of the innermost kvprobe function at frame."""
    while frame is not None:
        code = frame.f_code
        if code.co_filename.startswith(PACKAGE):
            module = Path(code.co_filename).stem
            # co_qualname is new in Python 3.11
            return f"{module}.{getattr(code, 'co_qualname', code.co_name)}"
        frame = frame.f_back
    return None


def count_last_decode_step(windows: int, args, attend: bool
                           ) -> tuple[int, Counter]:
    """(candidates, calls per kvprobe function) of the trace's last
    decode step, the other steps replayed unprofiled, by an engine that
    attends or not."""
    cfg = SyntheticConfig(d=args.dim, window=args.window_size,
                          num_windows=windows,
                          num_decode_steps=args.decode_steps)
    spec = PlantedSpec.auto(cfg, per_step=args.planted, anchor_scale=4.0,
                            drift_scale=3.0) if args.planted else None
    trace = generate_synthetic(cfg, spec, seed=args.seed)
    engine = Engine(EngineConfig(d=cfg.d, layers=cfg.layers, heads=cfg.heads,
                                 window=cfg.window, budget=args.budget,
                                 rep_mode=args.rep), attend=attend)
    *blocks, last = trace.blocks()
    for blk in blocks:
        step = (engine.prefill_step if blk.stage == "pre-filling"
                else engine.decode_step)
        step(blk, blk.index)
    if last.stage != "decoding":
        raise SystemExit("the trace needs at least one decode step")
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":  # frame is the callee's; charge its caller
            calls[owner(frame.f_back)] += 1
        elif event == "c_call":  # frame is the caller's
            calls[owner(frame)] += 1

    sys.setprofile(profile)
    try:
        rec = engine.decode_step(last, last.index)
    finally:
        sys.setprofile(None)
    # the step's own call into decode_step, made from here
    calls.pop(None, None)
    return len(rec.layers[0].candidate_ids), calls


def main():
    args = parse_args()
    columns = []  # (heading, calls per function)
    for w in args.windows:
        for attend in (False, True):
            n, calls = count_last_decode_step(w, args, attend)
            columns.append(("records" if attend else f"{n} cand.", calls))
    names = sorted(set().union(*(c for _, c in columns)),
                   key=lambda n: (-columns[-1][1][n], n))
    head = "".join(f"{heading:>12}" for heading, _ in columns)
    print(f"{'kvprobe function':52s}{head}")
    for name in names:
        print(f"{name:52s}" + "".join(f"{c[name]:>12}" for _, c in columns))
    print(f"{'total':52s}"
          + "".join(f"{sum(c.values()):>12}" for _, c in columns))


if __name__ == "__main__":
    main()
