"""Histogram the intercalate count of sampled squares or rectangles.

Squares come from the Jacobson-Matthews chain and concentrate around
n^2/4; k x n rectangles come from the exact-rejection sampler and for
fixed k approach Poisson(k(k-1)/4) as n grows.  The histogram is
written as CSV; for rectangles a Poisson reference column and the
total variation distance are included.
"""

import argparse
import csv
import os
import sys

import numpy as np
from scipy import stats

from latinlab.counting import count_intercalates
from latinlab.rng import RandomStream
from latinlab.sampling import sample_rectangles, sample_squares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mode", choices=["square", "rectangle"],
                    default="square")
    ap.add_argument("--n", type=int, default=16, help="number of columns")
    ap.add_argument("--k", type=int, default=3, help="rectangle rows")
    ap.add_argument("--samples", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results")
    args = ap.parse_args(argv)

    rng = RandomStream(args.seed)
    if args.mode == "square":
        grids = sample_squares(args.n, args.samples, rng)
        target = args.n**2 / 4
    else:
        grids = sample_rectangles(args.k, args.n, args.samples, rng)
        target = args.k * (args.k - 1) / 4
    counts = np.array([count_intercalates(g) for g in grids])

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"intercalates_{args.mode}.csv")
    hist = np.bincount(counts)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if args.mode == "rectangle":
            writer.writerow(["intercalates", "observed", "poisson"])
            for v, c in enumerate(hist):
                writer.writerow([v, c, format(
                    args.samples * stats.poisson.pmf(v, target), ".6g")])
        else:
            writer.writerow(["intercalates", "observed"])
            writer.writerows(enumerate(hist))

    mean = counts.mean()
    print(f"{args.mode} mode, {args.samples} samples: "
          f"mean={mean:.3f} sd={counts.std():.3f} target={target:.3f}")
    if args.mode == "rectangle":
        support = np.arange(len(hist))
        tvd = 0.5 * np.abs(hist / args.samples
                           - stats.poisson.pmf(support, target)).sum()
        print(f"total variation vs Poisson({target:.2f}): {tvd:.4f}")
    print(f"histogram written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
