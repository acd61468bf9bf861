#!/usr/bin/env python3
"""Paired A/B runs of the benchmark on two source checkouts.

    python3 scripts/ab.py PARENT_DIR CHANGE_DIR --workload W --seeds 4242 9090 \\
                          --pairs 6 --seconds 5

``bench/run.py --trace 0`` runs from each checkout ``--pairs`` times at each
of ``--seeds``, one run at a time: two benches sharing a host's CPUs would
measure each other. The sides alternate which runs first, so each is first
in half of the pairs. For run_s, users_per_s, setup_s and peak_rss_mb the
script prints each side's median and quartiles, the pairs the change wins
(ties count for neither), a two-sided sign-test p-value over the pairs that
are not ties, the change in the median as a share of the parent's median,
and whether the move counts as a gain, with the usable CPUs. A gain needs
ten pairs or more, the change winning at least 9 of every 10, and its median
better than the parent's by more than the parent's q3 - q1. It exits 1 when
``report_sha256`` or NDCG/Vio/ESP differ in any pair, and when a run fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

# (metric, True when higher is better)
TIMED = (("run_s", False), ("users_per_s", True), ("setup_s", False), ("peak_rss_mb", False))
OUTPUTS = ("ndcg_at_k", "vio_at_k", "esp_at_k")


def checkout(text: str) -> Path:
    path = Path(text).resolve()
    if not (path / "bench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{text} holds no bench/run.py")
    return path


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run's metric values, with its report_sha256."""
    out = subprocess.run([sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    if result is None or result["correct"] is not True:
        sys.exit(f"{tree} seed {seed} failed (exit {out.returncode}):\n{out.stderr}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["report_sha256"] = next(json.loads(line)["report_sha256"] for line in lines
                                   if line.startswith('{"environment"'))
    return values


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def sign_test(wins: int, losses: int) -> float:
    """Two-sided p-value of ``wins`` against ``losses`` under a fair coin."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=checkout, metavar="PARENT_DIR")
    ap.add_argument("change", type=checkout, metavar="CHANGE_DIR")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, required=True, help="pairs at each seed")
    ap.add_argument("--seconds", type=float, required=True, help="bench/run.py --seconds")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"argument --pairs: must be an int >= 1, got {args.pairs}")

    pairs = []
    for seed in args.seeds:
        for _ in range(args.pairs):
            sides = [("parent", args.parent), ("change", args.change)]
            if len(pairs) % 2:
                sides.reverse()
            pairs.append({side: bench(tree, args.workload, seed, args.seconds)
                          for side, tree in sides})

    n = len(pairs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"{args.workload}: {n} pairs at seeds {' '.join(map(str, args.seeds))}, "
          f"--seconds {args.seconds}, {cpus} usable CPUs")
    print(f"  {'metric':12s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'wins':>7s} {'p':>6s} {'shift':>7s} {'gain':>4s}")
    for name, higher in TIMED:
        sides = [quartiles([pair[side][name] for pair in pairs]) for side in ("parent", "change")]
        cells = [f"{q2:.5g} [{q1:.5g}, {q3:.5g}]" for q1, q2, q3 in sides]
        (q1, parent, q3), (_, change, _) = sides
        diffs = [pair["change"][name] - pair["parent"][name] for pair in pairs]
        wins = sum(d > 0 if higher else d < 0 for d in diffs)
        losses = sum(d != 0 for d in diffs) - wins
        move = change - parent
        gain = n >= 10 and 10 * wins >= 9 * n and (move if higher else -move) > q3 - q1
        print(f"  {name:12s} {cells[0]:>30s} {cells[1]:>30s} {f'{wins}/{n}':>7s}"
              f" {sign_test(wins, losses):6.3f} {move / parent:+7.1%}"
              f" {'yes' if gain else 'no':>4s}")
    same_hash = sum(p["parent"]["report_sha256"] == p["change"]["report_sha256"] for p in pairs)
    same_outputs = sum(all(p["parent"][k] == p["change"][k] for k in OUTPUTS) for p in pairs)
    print(f"  report_sha256 equal in {same_hash}/{n} pairs; "
          f"NDCG/Vio/ESP equal in {same_outputs}/{n} pairs")
    return 0 if same_hash == same_outputs == n else 1


if __name__ == "__main__":
    sys.exit(main())
