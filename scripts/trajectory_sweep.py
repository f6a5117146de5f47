"""Sweep the triangle removal process over several orders.

For each order the process runs once unconstrained (girth 0) and once
with the girth-6 constraint.  Every run writes a trajectory CSV (step,
plain available count, safe candidate count) and the sweep ends with a
summary table: coverage, measured log-density, the model integrated
over the same steps, and the closed-form full-run target, which exists
for the girth-6 process only and is left blank for girth 0.
"""

import argparse
import csv
import math
import os
import sys

from latinlab.process import (
    ProcessConfig,
    log_density_target,
    predicted_available,
    run_process,
)
from latinlab.rng import substream


def one_run(n: int, girth: int, seed: int, out_dir: str) -> dict:
    res = run_process(n, substream(seed, n, girth), ProcessConfig(girth=girth))
    path = os.path.join(out_dir, f"trajectory_n{n}_g{girth}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "available", "safe"])
        for t in range(res.steps):
            writer.writerow([t, res.available_trace[t], res.trace[t]])
    model = sum(math.log(predicted_available(n, t, girth))
                for t in range(res.steps)) / n**2
    return {
        "n": n,
        "girth": girth,
        "coverage": res.coverage,
        "stalled": res.stalled,
        "log_density": res.log_density(),
        "model_same_steps": model,
        "target_full_run": log_density_target(n) if girth else "",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[40, 60, 80, 100])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results")
    args = ap.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    rows = [one_run(n, g, args.seed, args.out)
            for n in args.sizes for g in (0, 6)]

    summary = os.path.join(args.out, "trajectory_summary.csv")
    with open(summary, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    print(f"{'n':>4s} {'girth':>5s} {'coverage':>9s} {'log-dens':>9s} "
          f"{'model':>9s} {'target':>9s}")
    for r in rows:
        target = r["target_full_run"]
        target = f"{target:9.4f}" if r["girth"] else f"{target:9s}"
        print(f"{r['n']:4d} {r['girth']:5d} {r['coverage']:9.3f} "
              f"{r['log_density']:9.4f} {r['model_same_steps']:9.4f} "
              f"{target}")
    print(f"trajectories and summary written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
