#!/usr/bin/env python3
"""Accuracy loss versus user traffic under a fixed exposure floor.

Serves single-interval instances at increasing traffic levels while holding
the same binding floor, then prints the loss curve and its rank correlation.
Lower traffic concentrates the fixed floor on fewer lists, so the mean loss
should fall as traffic grows.
"""

import argparse
import csv
from pathlib import Path

import numpy as np
from scipy import stats

from bankfair.acceptance import binding_plan_loss


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=20)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--min-traffic", type=int, default=5)
    ap.add_argument("--max-traffic", type=int, default=100)
    ap.add_argument("--out", default="results/traffic_sensitivity.csv")
    args = ap.parse_args()

    plan = np.array([12.0, 0.0, 0.0, 0.0])
    weights = [0.3, 1.0, 1.0, 1.0]
    levels = np.linspace(args.min_traffic, args.max_traffic, args.levels).astype(int)

    losses: dict[int, list[float]] = {}  # repeated levels pool their seeds
    for traffic in levels.tolist():
        for seed in range(args.seeds):
            losses.setdefault(traffic, []).append(
                binding_plan_loss(traffic, seed, plan, weights))
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
        rho = stats.spearmanr(*zip(*points)).statistic
        print(f"spearman(traffic, loss) = {rho:.3f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
