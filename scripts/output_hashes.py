#!/usr/bin/env python3
"""Print the sha256 of every output file of a fixed set of runs.

    python3 scripts/output_hashes.py --out DIR [--seeds 101 102] [--config-seeds 0 1]
                                     [--against LISTING]

The runs are the three benchmark workloads of ``bench/workloads.py`` at each
of ``--seeds``, ``acceptance.benchmark_config`` under every rule at each of
``--config-seeds``, criterion 9's noisy config, and wide_catalog and
replay_log at the first of ``--seeds`` with ``relevance_noise`` 0.05
(named ``<workload>/seed<N>/noisy``). At the first seed replay_log also
runs from its ``interactions.csv`` alone, with items and providers numbered
in order of first appearance (``replay_log/seed<N>/bare``), and from a copy
of its log directory with a ``relevance.bin`` of the loaded matrix
(``replay_log/seed<N>/sidecar``), so that every ingestion path is
hashed. It runs too from a copy of its log in which some user ids hold a
comma, a quote or a newline (``replay_log/seed<N>/quoted``), so that the
rows of ``decisions.csv`` that csv quotes are hashed. ``benchmark_config``
also runs under talmud and prop at the first of
``--config-seeds`` with explicit traffic that leaves some intervals empty
(``empty_intervals/<rule>/seed<N>``), and under talmud at that seed with
every floor zero (``zero_floors/talmud/seed<N>``), with those empty
intervals and ``relevance_noise`` 0.05 (``empty_intervals/talmud/seed<N>/noisy``),
and with that noise, no arrivals at all and zero floors
(``no_arrivals/talmud/seed<N>``). Last, a sweep of ``benchmark_config``
over a 2 x 2 grid of ``k`` and ``rule`` at that seed and the next writes
``runs.csv`` and ``pareto.csv`` (``sweep/k_rule/seed<N>``). Inputs and outputs go
under ``DIR``, and one line per output file gives the run, the file and its
sha256. Run it in two checkouts, each with its own ``DIR``, and diff the two
listings to check that a change leaves every output byte-identical, or save
one checkout's listing and pass it to the other as ``--against LISTING``:
the script then exits 1 after naming, on stderr, every run and file whose
sha256 differs from the listing's, or that one side has and the other lacks.
Give both runs the same ``--seeds`` and ``--config-seeds``.
``tests/data/output_hashes.txt`` is the listing of ``--seeds 101
--config-seeds 0``, and ``tests/data/output_hashes_numpy.txt`` the numpy
version that made it; the tests run those seeds against it.
"""

import argparse
import csv
import hashlib
import logging
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The package and workloads of this checkout, whatever PYTHONPATH says, so
# that each of two checkouts hashes its own code.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import config  # noqa: E402  (bench/config.py)
import workloads  # noqa: E402  (bench/workloads.py)
from bankfair.acceptance import benchmark_config  # noqa: E402
from bankfair.bankruptcy import RULES  # noqa: E402
from bankfair.domain import (CATALOG_FILE, INTERACTIONS_FILE, RELEVANCE_FILE,  # noqa: E402
                             _write_relevance_matrix, instance_matrix, load_interactions)
from bankfair.harness import run, sweep  # noqa: E402

FILES = ("report.json", "decisions.csv", "allocations.csv", "intervals.csv")
SWEEP_FILES = ("runs.csv", "pareto.csv")
# benchmark_config's 14 intervals with some left empty. The last is busy, so
# every floor still has traffic to claim.
GAPPED_TRAFFIC = [100, 0, 0, 150, 80, 0, 120, 0, 90, 110, 0, 0, 130, 140]
# Appended to replay_log's user ids "u<k>" by k modulo 4: three of every four
# users get an id that csv quotes.
QUOTED_SUFFIXES = ("", ",a", '"b', "\nc")


def workload_config(name, seed):
    """RunConfig of a benchmark workload, with bench/run.py's layout.

    With that layout report.json's data_path, and with it the report's
    sha256, is the one the benchmark prints.
    """
    directory = Path(".bench_out") / name / f"seed{seed}"
    spec = workloads.make(name, seed, directory).spec
    spec.setdefault("out_dir", str(directory / "out"))
    return config.build_config(spec)


def runs(seeds, config_seeds):
    """(name, RunConfig) of every run; paths are relative to the working directory."""
    for name in workloads.NAMES:
        for seed in seeds:
            yield f"{name}/seed{seed}", workload_config(name, seed)
    for rule in RULES:
        for seed in config_seeds:
            name = f"benchmark_config/{rule}/seed{seed}"
            yield name, replace(benchmark_config(rule, seed), out_dir=name)
    # criterion 9 runs this config twice and compares the reports.
    noisy = replace(benchmark_config("talmud", seed=42), relevance_noise=0.05)
    yield "criterion_9", replace(noisy, out_dir="criterion_9")
    # The noisy path on a wide catalog and on log replay's repeat users.
    for name in ("wide_catalog", "replay_log"):
        cfg = workload_config(name, seeds[0])
        out_dir = str(Path(cfg.out_dir).parent / "noisy")
        yield f"{name}/seed{seeds[0]}/noisy", replace(cfg, relevance_noise=0.05, out_dir=out_dir)
    # replay_log's other two ingestion paths: the bare log, and the sidecar.
    cfg = workload_config("replay_log", seeds[0])
    log, directory = Path(cfg.data_path), Path(cfg.out_dir).parent
    yield (f"replay_log/seed{seeds[0]}/bare",
           replace(cfg, data_path=str(log / INTERACTIONS_FILE), out_dir=str(directory / "bare")))
    sidecar = directory / "sidecar_log"
    sidecar.mkdir(exist_ok=True)
    for file in (INTERACTIONS_FILE, CATALOG_FILE):
        shutil.copyfile(log / file, sidecar / file)
    _, _, requests = load_interactions(log, cfg.schema)
    _write_relevance_matrix(sidecar / RELEVANCE_FILE, instance_matrix(requests))
    yield (f"replay_log/seed{seeds[0]}/sidecar",
           replace(cfg, data_path=str(sidecar), out_dir=str(directory / "sidecar")))
    quoted = directory / "quoted_log"
    quoted.mkdir(exist_ok=True)
    shutil.copyfile(log / CATALOG_FILE, quoted / CATALOG_FILE)
    with open(log / INTERACTIONS_FILE, newline="", encoding="utf-8") as src, \
            open(quoted / INTERACTIONS_FILE, "w", newline="", encoding="utf-8") as dst:
        rows, w = csv.reader(src), csv.writer(dst)
        w.writerow(next(rows))
        w.writerows([uid + QUOTED_SUFFIXES[int(uid[1:]) % len(QUOTED_SUFFIXES)], *rest]
                    for uid, *rest in rows)
    yield (f"replay_log/seed{seeds[0]}/quoted",
           replace(cfg, data_path=str(quoted), out_dir=str(directory / "quoted")))
    # Intervals without arrivals, which no run above has.
    for rule in ("talmud", "prop"):
        cfg = benchmark_config(rule, config_seeds[0])
        name = f"empty_intervals/{rule}/seed{config_seeds[0]}"
        synth = replace(cfg.synth, traffic=GAPPED_TRAFFIC)
        yield name, replace(cfg, synth=synth, tau=None, out_dir=name)
    # Zero floors, which no run above has: talmud divides zero estates over
    # zero claims.
    cfg = benchmark_config("talmud", config_seeds[0])
    name = f"zero_floors/talmud/seed{config_seeds[0]}"
    policy = replace(cfg.policy, required_min_exposure=0.0 * cfg.policy.required_min_exposure)
    yield name, replace(cfg, policy=policy, out_dir=name)
    # Noise with empty intervals, and no arrivals at all. With no traffic
    # there is nothing to claim, so that run has zero floors.
    gapped = replace(cfg, synth=replace(cfg.synth, traffic=GAPPED_TRAFFIC), tau=None,
                     relevance_noise=0.05)
    name = f"empty_intervals/talmud/seed{config_seeds[0]}/noisy"
    yield name, replace(gapped, out_dir=name)
    name = f"no_arrivals/talmud/seed{config_seeds[0]}"
    idle = replace(gapped.synth, traffic=[0] * len(GAPPED_TRAFFIC))
    yield name, replace(gapped, synth=idle, policy=policy, out_dir=name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="directory for inputs and outputs")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(101, 111)),
                    help="benchmark workload seeds (default 101-110)")
    ap.add_argument("--config-seeds", type=int, nargs="+", default=list(range(5)),
                    help="benchmark_config seeds (default 0-4)")
    ap.add_argument("--against", metavar="LISTING",
                    help="a saved listing to compare with; exit 1 on any difference")
    args = ap.parse_args(argv)

    expected = None
    if args.against is not None:
        expected = {}
        lines = Path(args.against).read_text().splitlines()
        for lineno, fields in enumerate(map(str.split, lines), start=1):
            if len(fields) != 3:
                ap.error(f"{args.against} line {lineno}: expected 'run file sha256'")
            expected[fields[0], fields[1]] = fields[2]
    logging.getLogger("bankfair").setLevel(logging.ERROR)  # clamp warnings are not outputs
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    got = {}

    def record(name, directory, files):
        for file in files:
            digest = hashlib.sha256((Path(directory) / file).read_bytes()).hexdigest()
            got[name, file] = digest
            print(name, file, digest, flush=True)

    for name, cfg in runs(args.seeds, args.config_seeds):
        run(cfg)
        record(name, cfg.out_dir, FILES)
    seed = args.config_seeds[0]
    name = f"sweep/k_rule/seed{seed}"
    sweep(benchmark_config("talmud", seed), {"k": [1.0, 2.0], "rule": ["talmud", "prop"]},
          [seed, seed + 1]).write(name)
    record(name, name, SWEEP_FILES)
    if expected is None:
        return 0
    report = compare(got, expected, args.against)
    print("\n".join(report), file=sys.stderr)
    return 1 if len(report) > 1 else 0


def compare(got, expected, against):
    """The lines ``--against`` prints: one per run and file whose sha256 differs
    from the listing's, or that one side has and the other lacks, then a count.

    ``got`` and ``expected`` map (run, file) to a sha256; ``against`` names the
    listing in the count line.
    """
    problems = []
    for key in {**got, **expected}:  # run order, then what only the listing has
        if got.get(key) != expected.get(key):
            why = ("sha256 differs" if key in got and key in expected
                   else "not in the listing" if key in got else "missing")
            problems.append(f"{key[0]} {key[1]}: {why}")
    return [*problems, f"{len(problems)} of {len(got.keys() | expected.keys())} files differ "
                       f"from {against}"]


if __name__ == "__main__":
    sys.exit(main())
