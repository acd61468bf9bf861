#!/usr/bin/env python3
"""Compare allocation rules on the fluctuating-traffic benchmark.

Runs talmud / naive / prop / none over several seeds on the synthetic
two-tier instance (popular providers meet their floors organically, niche
providers need enforcement) and writes one CSV row per run plus a summary
table to stdout. A failed run stops the script, naming its rule and seed.
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

from bankfair import harness
from bankfair.acceptance import benchmark_config
from bankfair.bankruptcy import RULES
from bankfair.errors import POSITIVE, ConfigError, check


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

    result = harness.sweep(replace(benchmark_config("talmud", 0), tau=args.tau),
                           {"rule": list(RULES)}, list(range(args.seeds)))
    for row in result.rows:
        if row["status"] != "ok":
            sys.exit(f"run rule={row['rule']} seed={row['seed']} failed: {row['error']}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["rule", "seed", "ndcg", "vio", "esp"],
                           extrasaction="ignore")
        w.writeheader()
        w.writerows(result.rows)

    print(f"{'rule':8s} {'ndcg':>8s} {'vio':>8s} {'esp':>6s}")
    for point in result.summary:
        print(f"{point['rule']:8s} {point['ndcg_mean']:8.4f} {point['vio_mean']:8.4f} "
              f"{point['esp_mean']:6.2f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
