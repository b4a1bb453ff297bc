#!/usr/bin/env python3
"""Activation-weighted probes against mean pooling, over seeds and budgets.

For each seed: generate one planted trace and replay it under probe
act and mean at every --budgets value, everything else equal. Prints
each seed's overall recall and perplexity, each budget's means over the
seeds (--csv writes them) and compare_runs' win fractions and mean
deltas per budget (--out writes one comparison per budget, as JSON).

    python3 scripts/claims.py --seeds 25   # act vs mean, per-seed table
    python3 scripts/claims.py --seeds 10 --budgets 64 128 192 256 384 512
"""

import argparse
import json

import numpy as np

from kvprobe import (EngineConfig, PlantedSpec, SyntheticConfig,
                     build_report, compare_runs, generate_synthetic,
                     run_trace)
from kvprobe.engine import CUTOFF_MODES, PROBE_MODES


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=25)
    p.add_argument("--windows", type=int, default=12)
    p.add_argument("--decode-steps", type=int, default=5)
    p.add_argument("--planted", type=int, default=3)
    p.add_argument("--signal", type=float, default=PlantedSpec.signal)
    p.add_argument("--anchor-fraction", type=float,
                   default=PlantedSpec.anchor_fraction)
    p.add_argument("--anchor-scale", type=float, default=4.0)
    p.add_argument("--drift", type=float, default=3.0)
    p.add_argument("--budgets", type=int, nargs="+", default=[256])
    p.add_argument("--cutoff", choices=CUTOFF_MODES,
                   default=EngineConfig.cutoff_mode)
    p.add_argument("--csv", default=None, help="write the budget means here")
    p.add_argument("--out", default=None, help="write the comparisons here")
    return p.parse_args()


def replay(trace, seed, configs, reports):
    """Replay one seed's trace under every (budget, mode) config, without
    attention: a report reads none of its output."""
    for (budget, mode), ec in configs.items():
        reports[budget, mode].append(build_report(
            run_trace(trace, ec, attend=False), trace.ground_truth,
            trace_sha256=f"seed-{seed}"))
        if mode == PROBE_MODES[-1]:
            ra, rm, pa, pm = (reports[budget, x][-1]["overall"][k]["mean"]
                              for k in ("recall", "perplexity")
                              for x in PROBE_MODES)
            print(f"{seed:>4}  {budget:>6}  {ra:>10.4f}  {rm:>11.4f}  "
                  f"{pa:>8.3f}  {pm:>8.3f}")


def main():
    args = parse_args()
    cfg = SyntheticConfig(num_windows=args.windows,
                          num_decode_steps=args.decode_steps)
    spec = PlantedSpec.auto(cfg, per_step=args.planted, signal=args.signal,
                            anchor_fraction=args.anchor_fraction,
                            anchor_scale=args.anchor_scale,
                            drift_scale=args.drift)
    print(f"probe windows {spec.probe_windows}, "
          f"{args.planted} early targets per step, budgets {args.budgets}")
    print(f"{'seed':>4}  {'budget':>6}  {'recall act':>10}  "
          f"{'recall mean':>11}  {'ppl act':>8}  {'ppl mean':>8}")
    configs = {(b, m): EngineConfig(
        d=cfg.d, layers=cfg.layers, heads=cfg.heads, window=cfg.window,
        budget=b, probe_mode=m, cutoff_mode=args.cutoff)
        for b in args.budgets for m in PROBE_MODES}
    reports = {key: [] for key in configs}
    for seed in range(args.seeds):  # one trace held at a time
        replay(generate_synthetic(cfg, spec, seed=seed), seed, configs,
               reports)
    rows = ["budget,probe,recall,perplexity"]
    print(f"\n{'budget':>6}  {'probe':>5}  {'recall':>7}  {'ppl':>7}")
    for (budget, mode), reps in reports.items():
        r, p = (float(np.mean([rep["overall"][k]["mean"] for rep in reps]))
                for k in ("recall", "perplexity"))
        print(f"{budget:>6}  {mode:>5}  {r:>7.4f}  {p:>7.3f}")
        rows.append(f"{budget},{mode},{r:.6f},{p:.6f}")
    diffs = {}
    for budget in args.budgets:
        diffs[str(budget)] = compare_runs(*(reports[budget, m]
                                            for m in PROBE_MODES))
        ov = diffs[str(budget)]["overall"]
        print(f"\nbudget {budget}: act wins recall in "
              f"{ov['a_better_recall_fraction']:.0%} of seeds (mean delta "
              f"{ov['delta_recall']:+.4f}), perplexity in "
              f"{ov['a_lower_perplexity_fraction']:.0%} "
              f"(mean delta {ov['delta_perplexity']:+.4f})")
    for path, text in ((args.csv, "\n".join(rows) + "\n"),
                       (args.out, json.dumps(diffs, sort_keys=True,
                                             indent=2))):
        if path:
            with open(path, "w") as fh:
                fh.write(text)
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
