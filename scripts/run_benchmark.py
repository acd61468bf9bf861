#!/usr/bin/env python3
"""Compare allocation rules on the fluctuating-traffic benchmark.

Runs talmud / naive / prop / none over several seeds on the synthetic
two-tier instance (popular providers meet their floors organically, niche
providers need enforcement) and writes one CSV row per run plus a summary
table to stdout.
"""

import argparse
import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from bankfair import harness
from bankfair.acceptance import benchmark_config
from bankfair.errors import POSITIVE, ConfigError, check

RULES = ("talmud", "naive", "prop", "none")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an int >= 1, got {value}")
    return value


def tau(text: str) -> float:
    try:
        return check("tau", float(text), POSITIVE)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=positive_int, default=5, help="number of replicate seeds")
    ap.add_argument("--tau", type=tau, default=0.2, help="traffic fluctuation degree")
    ap.add_argument("--out", default="results/benchmark.csv")
    args = ap.parse_args()

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    for rule in RULES:
        for seed in range(args.seeds):
            rep = harness.run(replace(benchmark_config(rule, seed), tau=args.tau))
            rows.append({"rule": rule, "seed": seed, "ndcg": rep.ndcg_at_k,
                         "vio": rep.vio_at_k, "esp": rep.esp_at_k})

    with open(out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["rule", "seed", "ndcg", "vio", "esp"])
        w.writeheader()
        w.writerows(rows)

    print(f"{'rule':8s} {'ndcg':>8s} {'vio':>8s} {'esp':>6s}")
    for rule in RULES:
        sub = [r for r in rows if r["rule"] == rule]
        print(f"{rule:8s} {np.mean([r['ndcg'] for r in sub]):8.4f} "
              f"{np.mean([r['vio'] for r in sub]):8.4f} "
              f"{np.mean([r['esp'] for r in sub]):6.2f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
