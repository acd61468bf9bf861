#!/usr/bin/env python3
"""bankfair benchmark: end-to-end and per-layer cost of ``harness.run``.

    python3 bench/run.py --workload wide_catalog --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workload's inputs are generated from ``--seed``, then
``harness.run`` is repeated in this process, single-threaded, for
``--seconds`` seconds and every repetition's outputs are checked. Times are
given in seconds of a reference core (``speed.py``), so that a slow stretch
of a shared host does not show as a slower program. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics. Generated inputs, outputs, spans and a results record go to
``.bench_out/<workload>/seed<n>/``. See README.md for the workloads and
what each metric should move.
"""

import os

# Pinned before numpy loads, so every run is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import json
import logging
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


class WarningCounter(logging.Handler):
    """Counts bankfair's log warnings instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts: Counter = Counter()

    def emit(self, record):
        self.counts[record.name, record.msg] += 1

    def clamps(self) -> int:
        return sum(n for (name, msg), n in self.counts.items()
                   if name == "bankfair.bankruptcy" and "clamping" in msg)


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of the checkout, or None if the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def setup_seconds(spec: dict) -> list[tuple[float, float]]:
    """Fresh-interpreter times from ``import bankfair`` to a built RunConfig.

    One (wall seconds, reference seconds) pair per probe.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(BENCH / "config.py"), json.dumps(spec)],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        wall, loop = map(float, out.stdout.strip().splitlines()[-1].split())
        samples.append((wall, wall / loop * speed.REFERENCE_S))
    return samples


def check(report, workload, expected_hash: str | None) -> tuple[list[str], str]:
    """Failed output checks of one repetition, and the report's sha256."""
    problems = []
    for name in ("ndcg_at_k", "vio_at_k", "esp_at_k"):
        value = getattr(report, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} = {value} is outside [0, 1]")
    served = sum(report.per_interval_traffic)
    if served != workload.users:
        problems.append(f"traffic sums to {served}, {workload.users} users were generated")
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    if expected_hash is not None and digest != expected_hash:
        problems.append("report differs from the first repetition's")
    if workload.item_provider is not None:
        problems += check_decisions(report, workload)
    return problems, digest


def check_decisions(report, workload) -> list[str]:
    """Every decisions.csv row is K distinct valid items; exposure recounts match."""
    k = report.config_echo["K"]
    num_items = workload.item_provider.size
    counts = [0] * (int(workload.item_provider.max()) + 1)
    rows = 0
    with open(Path(workload.spec["out_dir"]) / "decisions.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for rows, row in enumerate(reader, start=1):
            items = [int(v) for v in row[3:3 + k]]
            if len(row) != k + 4 or len(set(items)) != k or not all(
                    0 <= i < num_items for i in items):
                return [f"decisions.csv row {rows + 1} is not {k} distinct valid items"]
            for i in items:
                counts[workload.item_provider[i]] += 1
    problems = []
    if rows != workload.users:
        problems.append(f"decisions.csv has {rows} rows for {workload.users} users")
    if counts != report.per_provider_cumulative_exposure:
        problems.append("per-provider exposure recounted from decisions.csv differs")
    return problems


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bankfair" / "__init__.py").is_file():
        print(f"error: no bankfair package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # relative paths keep data_path, and so the report, checkout-independent

    from bankfair import bankruptcy, harness, reranker
    import config
    import tracing

    warnings = WarningCounter()
    pkg_logger = logging.getLogger("bankfair")
    pkg_logger.addHandler(warnings)
    pkg_logger.propagate = False

    directory = Path(".bench_out") / args.workload / f"seed{args.seed}"
    directory.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, directory)
    cfg = config.build_config(workload.spec)
    setup = setup_seconds(workload.spec) if args.trace == 0 else []

    tracer = tracing.Tracer()
    # The host's speed is measured again before each interval's allocation
    # and serving, a few tens of milliseconds apart on every workload.
    clock = speed.Clock([(bankruptcy, "plan_interval"), (reranker, "run_interval")])
    attempted = failed = 0
    first_hash = report = None
    untraced: list[tuple[float, float]] = []   # (wall s, reference s)
    traced: list[dict] = []
    clamps: list[int] = []

    def rep(traced_rep: bool, timed: bool = True):
        nonlocal attempted, failed, first_hash, report
        attempted += 1
        warnings.counts.clear()
        try:
            if traced_rep:
                tracer.install()
                try:
                    result, seconds = tracer.run(harness.run, cfg)
                finally:
                    tracer.uninstall()
            else:
                result, *seconds = clock.run(harness.run, cfg)
            problems, digest = check(result, workload, first_hash)
        except Exception as exc:  # a failed repetition is counted, not fatal
            problems, digest = [f"{type(exc).__name__}: {exc}"], None
        if problems:
            failed += 1
            print(f"repetition {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            return
        first_hash = first_hash or digest
        report = result
        if traced_rep:
            traced.append(tracing.layer_metrics(tracer, tracer.rep, result.per_interval_traffic))
            clamps.append(warnings.clamps())
        elif timed:
            untraced.append(tuple(seconds))

    rep(False, timed=False)  # warm-up: lazy set-up inside numpy and scipy, caches
    deadline = time.perf_counter() + args.seconds
    while True:
        rep(False)
        if args.trace:
            rep(True)
        if time.perf_counter() >= deadline:
            break
    if not untraced or (args.trace and not traced):
        print("error: no repetition of a needed kind succeeded", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "report_sha256": first_hash,
              "reference_core_s": speed.REFERENCE_S,
              "run_s_samples": [ref for _, ref in untraced],
              "wall_s_samples": [wall for wall, _ in untraced],
              "setup_s_samples": [ref for _, ref in setup],
              "setup_wall_s_samples": [wall for wall, _ in setup],
              "last_rep_warnings": {f"{name}: {msg}": n
                                    for (name, msg), n in warnings.counts.items()}}

    run_samples = record["run_s_samples"]
    wall_samples = record["wall_s_samples"]
    if args.trace == 0:
        run_s = statistics.median(run_samples)
        metrics = {
            "run_s": (run_s, "s"),
            "users_per_s": (workload.users / run_s, "1/s"),
            "setup_s": (statistics.median(record["setup_s_samples"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ndcg_at_k": (report.ndcg_at_k, "1"),
            "vio_at_k": (report.vio_at_k, "1"),
            "esp_at_k": (report.esp_at_k, "1"),
        }
    else:
        layers = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        talmud_p50, talmud_p99 = tracing.call_percentiles_us(tracer, "bankruptcy.talmud")
        select_p50, select_p99 = tracing.call_percentiles_us(tracer, "reranker.select")
        layers.update({
            "bankruptcy.talmud_us_p50": talmud_p50, "bankruptcy.talmud_us_p99": talmud_p99,
            "reranker.select_us_p50": select_p50, "reranker.select_us_p99": select_p99,
            "bankruptcy.clamps": statistics.median(clamps),
            # Wall seconds on both sides: the traced run is not calibrated.
            "trace.overhead_s": layers["trace.run_s"] - statistics.median(wall_samples),
        })
        units = {"domain.relevance_mb": "MB", "forecast.mean_abs_rel_err": "1",
                 "bankruptcy.talmud_calls": "count", "bankruptcy.clamps": "count"}
        metrics = {name: (value, "us" if name.endswith(("_p50", "_p99")) else
                          units.get(name, "s"))
                   for name, value in sorted(layers.items())}
        tracer.write(directory / "spans.csv")

    record.update(run_s_quartiles=quartiles(run_samples), traced_reps=len(traced),
                  metrics={name: value for name, (value, _) in metrics.items()})
    (directory / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in ("environment", "report_sha256")}))
    q1, q2, q3 = quartiles(run_samples)
    print(f"{args.workload} seed {args.seed}: run_s median {q2:.4f} s, quartiles "
          f"[{q1:.4f}, {q3:.4f}] over {len(run_samples)} timed repetitions; wall "
          f"median {statistics.median(wall_samples):.4f} s, fastest {min(wall_samples):.4f} s"
          + (f"; setup_s samples {[round(s, 4) for s in record['setup_s_samples']]}"
             if setup else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
