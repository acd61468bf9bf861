#!/usr/bin/env python3
"""Accuracy loss versus user traffic under a fixed exposure floor.

Serves single-interval instances at increasing traffic levels while holding
the same binding floor, then prints the loss curve and its Spearman rank
correlation (``bankfair.metrics.spearman_rho``). Lower traffic concentrates
the fixed floor on fewer lists, so the mean loss should fall as traffic
grows. Every count and traffic level is an int >= 1; anything else is a
usage error (exit 2) and no CSV is written.
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from bankfair.acceptance import UNPOPULAR_BANDS, binding_plan_loss
from bankfair.metrics import spearman_rho


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an int >= 1, got {value}")
    return value


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=positive_int, default=20)
    ap.add_argument("--seeds", type=positive_int, default=10)
    ap.add_argument("--min-traffic", type=positive_int, default=5)
    ap.add_argument("--max-traffic", type=positive_int, default=100)
    ap.add_argument("--out", default="results/traffic_sensitivity.csv")
    args = ap.parse_args()

    plan = np.array([12.0, 0.0, 0.0, 0.0])
    levels = np.linspace(args.min_traffic, args.max_traffic, args.levels).astype(int)

    losses: dict[int, list[float]] = {}  # repeated levels pool their seeds
    for traffic in levels.tolist():
        for seed in range(args.seeds):
            losses.setdefault(traffic, []).append(
                binding_plan_loss(traffic, seed, plan, UNPOPULAR_BANDS))
    points = [(traffic, float(np.mean(vals))) for traffic, vals in sorted(losses.items())]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["traffic", "mean_loss"])
        w.writerows(points)

    for traffic, loss in points:
        print(f"traffic={traffic:4d}  mean_loss={loss:.4f}")
    if len(points) < 3:
        print("spearman(traffic, loss) needs at least three traffic levels")
    else:
        rho = spearman_rho(*zip(*points))
        print(f"spearman(traffic, loss) = {rho:.3f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
