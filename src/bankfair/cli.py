"""Command line front end: run one simulation, sweep a grid, or verify.

Exit codes: 0 success, 1 I/O or configuration error, 2 infeasible allocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bankruptcy, forecast, harness
from .domain import FairnessPolicy, LogSchema, SynthConfig
from .errors import (INT, NUMBER, BankfairError, ConfigError, InfeasibleAllocationError,
                     ParseError, check, not_utf8)
from .reranker import RerankConfig


def parse_forecaster(spec: str):
    """Parse 'name' or 'name:key=value,key=value' into (name, params)."""
    name, _, raw = spec.partition(":")
    params = {}
    if raw:
        for pair in raw.split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ConfigError(f"bad forecaster parameter {pair!r} (expected key=value)")
            try:
                params[key] = int(value)
            except ValueError:
                try:
                    params[key] = float(value)
                except ValueError:
                    params[key] = value
    return name, params


def _parse_criteria(spec: str, known) -> set[int]:
    """The criterion numbers of a comma-separated list; each must be in ``known``."""
    wanted = set()
    for part in spec.split(","):
        try:
            criterion = int(part)
        except ValueError:
            criterion = None
        if criterion not in known:
            raise ConfigError(f"unknown criterion {part!r}; known criteria: "
                              f"{', '.join(map(str, sorted(known)))}")
        wanted.add(criterion)
    return wanted


def _read_json(path):
    """The JSON value in file ``path``; bytes that are not UTF-8 JSON are a ParseError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


# Run options after the data source, by key: a CLI flag each (--interval-hours
# for interval_hours) and the accepted keys of a sweep spec's "base".
RUN_FLAGS = {
    "rule": dict(default="talmud", choices=bankruptcy.RULES),
    "forecaster": dict(default="moving_average:w=3", help="name[:key=value,...] from "
                       + ", ".join(forecast.PARAMS)),
    "m": dict(type=float, default=100.0, help="uniform per-provider exposure floor"),
    "phi": dict(type=float, default=0.95, help="required per-user accuracy"),
    "K": dict(type=int, default=10, help="list size"),
    "k": dict(type=float, default=1.5, help="claim scaling factor in [1, 2]"),
    "beta": dict(type=float, default=0.5, help="penalty mix toward small providers"),
    "eta": dict(type=float, default=None, help="dual step size (required)"),
    "interval_hours": dict(type=float, default=24.0),
    "tau": dict(type=float, default=None, help="traffic resampling temperature"),
    "seed": dict(type=int, default=0),
    "noise": dict(type=float, default=0.0, help="per-interval relevance noise sigma"),
    "out": dict(default=None, help="output directory for report/csv files"),
}
RUN_OPTIONS = ("data", "synth", *RUN_FLAGS)
SWEEP_KEYS = ("base", "grid", "seeds")


def _check_keys(where: str, mapping, accepted):
    """ConfigError unless ``mapping`` is a dict whose keys are all in ``accepted``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - set(accepted))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
                          f"accepted: {', '.join(accepted)}")


def config_from_options(opts: dict) -> harness.RunConfig:
    """Build a RunConfig from a flat option mapping (CLI flags or sweep json).

    Keys are those of RUN_OPTIONS; any other key is a ConfigError. A typed
    option's value must already have its type (a JSON int is a number too);
    it is never converted. Only an option whose default is None may be None.
    """
    _check_keys("run options", opts, RUN_OPTIONS)
    opts = {**{key: flag["default"] for key, flag in RUN_FLAGS.items()}, **opts}
    for key, flag in RUN_FLAGS.items():
        if "type" in flag and not (opts[key] is None and flag["default"] is None):
            check(f"run option {key!r}", opts[key], INT if flag["type"] is int else NUMBER)
    k = opts["K"]
    synth_spec = opts.get("synth")
    synth = None
    if synth_spec is not None:
        if isinstance(synth_spec, (str, Path)):
            synth_spec = _read_json(synth_spec)
        try:  # a spec without list_size takes K; RunConfig refuses any other
            synth = SynthConfig(**{"list_size": k, **synth_spec})
        except TypeError as exc:  # not an object, an unknown key or a missing one
            raise ConfigError(f"synth spec: {exc}") from None

    num_providers = synth.num_providers if synth is not None else 1
    policy = FairnessPolicy.uniform(opts["m"], num_providers, opts["phi"], k)

    forecaster, params = parse_forecaster(str(opts["forecaster"]))
    rerank = RerankConfig(
        list_size=k,
        alpha_k=opts["k"],
        beta_mix=opts["beta"],
        eta=opts["eta"],
    )
    schema = LogSchema(interval_seconds=opts["interval_hours"] * 3600.0)
    return harness.RunConfig(
        policy=policy,
        rerank=rerank,
        rule=str(opts["rule"]),
        data_path=opts.get("data"),
        schema=schema,
        synth=synth,
        forecaster=forecaster,
        forecaster_params=params,
        tau=opts["tau"],
        seed=opts["seed"],
        out_dir=opts["out"],
        relevance_noise=opts["noise"],
    )


def _add_run_flags(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="interaction log csv or interchange directory")
    src.add_argument("--synth", help="synthetic generator config (json file)")
    for key, flag in RUN_FLAGS.items():
        p.add_argument("--" + key.replace("_", "-"), **flag)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bankfair")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one configuration")
    _add_run_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="run a hyperparameter grid")
    sweep_p.add_argument("--spec", required=True, help="sweep spec json")
    sweep_p.add_argument("--out", required=True, help="output directory")

    verify_p = sub.add_parser("verify", help="run the built-in acceptance suite")
    verify_p.add_argument("--criteria", default=None,
                          help="comma-separated criterion numbers (default: all)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            opts = {k: v for k, v in vars(args).items() if k != "command"}
            report = harness.run(config_from_options(opts))
            print(json.dumps({"ndcg_at_k": report.ndcg_at_k, "vio_at_k": report.vio_at_k,
                              "esp_at_k": report.esp_at_k}, sort_keys=True))
            return 0
        if args.command == "sweep":
            spec = _read_json(args.spec)
            _check_keys("sweep spec", spec, SWEEP_KEYS)
            if not isinstance(spec.get("grid"), dict):
                raise ConfigError("sweep spec: 'grid' must be a JSON object of lists")
            base = config_from_options(spec.get("base", {}))
            result = harness.sweep(harness.SweepSpec(base, spec["grid"],
                                                     spec.get("seeds", [0])))
            result.write(args.out)
            failures = sum(1 for r in result.rows if r["status"] != "ok")
            print(f"{len(result.rows)} runs, {failures} failed; wrote {args.out}")
            return 0
        # verify
        from . import acceptance
        wanted = None
        if args.criteria:
            wanted = _parse_criteria(args.criteria, acceptance.CRITERIA)
        results = acceptance.run_all(wanted)
        for res in results:
            print(res.line())
        return 0 if all(r.passed for r in results) else 1
    except InfeasibleAllocationError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (BankfairError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
