#!/usr/bin/env python3
"""Print the sha256 of every output file of a fixed set of runs.

    python3 scripts/output_hashes.py --out DIR [--seeds 101 102] [--config-seeds 0 1]
                                     [--against LISTING]

The runs are the three benchmark workloads of ``bench/workloads.py`` at each
of ``--seeds``, ``acceptance.benchmark_config`` under every rule at each of
``--config-seeds``, criterion 9's noisy config, and wide_catalog and
replay_log at the first of ``--seeds`` with ``relevance_noise`` 0.05
(named ``<workload>/seed<N>/noisy``). Inputs and outputs go
under ``DIR``, and one line per output file gives the run, the file and its
sha256. Run it in two checkouts, each with its own ``DIR``, and diff the two
listings to check that a change leaves every output byte-identical, or save
one checkout's listing and pass it to the other as ``--against LISTING``:
the script then exits 1 after naming, on stderr, every run and file whose
sha256 differs from the listing's, or that one side has and the other lacks.
Give both runs the same ``--seeds`` and ``--config-seeds``.
"""

import argparse
import hashlib
import logging
import os
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
from bankfair.harness import run  # noqa: E402

FILES = ("report.json", "decisions.csv", "allocations.csv", "intervals.csv")
RULES = ("talmud", "naive", "prop", "none")


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
    for name, cfg in runs(args.seeds, args.config_seeds):
        run(cfg)
        for file in FILES:
            digest = hashlib.sha256((Path(cfg.out_dir) / file).read_bytes()).hexdigest()
            got[name, file] = digest
            print(name, file, digest, flush=True)
    if expected is None:
        return 0
    problems = []
    for key in {**got, **expected}:  # run order, then what only the listing has
        if got.get(key) != expected.get(key):
            why = ("sha256 differs" if key in got and key in expected
                   else "not in the listing" if key in got else "missing")
            problems.append(f"{key[0]} {key[1]}: {why}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(problems)} of {len(got.keys() | expected.keys())} files differ from "
          f"{args.against}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
