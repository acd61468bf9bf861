"""End-to-end experiment driver: forecast -> allocate -> re-rank -> score."""

from __future__ import annotations

import csv
import hashlib
import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import bankruptcy, forecast, metrics, reranker
from .domain import (FairnessPolicy, LogSchema, SynthConfig, instance_matrix, load_interactions,
                     redistribute_requests, resample_traffic, synth_instance)
from .errors import (NONEMPTY_LIST, NONNEGATIVE, NONNEGATIVE_INT, PATH, POSITIVE, ConfigError,
                     check, either, list_of)
from .metrics import SimReport

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    """Everything one simulation run needs; exactly one data source."""

    policy: FairnessPolicy
    rerank: reranker.RerankConfig
    rule: str = "talmud"
    data_path: str | None = None
    schema: LogSchema = field(default_factory=LogSchema)
    synth: SynthConfig | None = None
    forecaster: str = "moving_average"
    forecaster_params: dict = field(default_factory=dict)
    tau: float | None = None
    seed: int = 0
    out_dir: str | None = None
    relevance_noise: float = 0.0

    def __post_init__(self):
        if (self.data_path is None) == (self.synth is None):
            raise ConfigError("exactly one of data_path or synth must be given")
        if self.rule not in bankruptcy.RULES:
            raise ConfigError(f"unknown allocation rule {self.rule!r}")
        if self.rerank.list_size != self.policy.list_size:
            raise ConfigError("re-ranker and policy disagree on the list size")
        check("data_path", self.data_path, either(None, PATH))
        check("tau", self.tau, either(None, POSITIVE))
        check("relevance_noise", self.relevance_noise, NONNEGATIVE)
        check("seed", self.seed, NONNEGATIVE_INT)
        forecast.check_params(self.forecaster, self.forecaster_params)

    def echo(self) -> dict:
        """JSON-friendly snapshot of the configuration."""
        synth = None
        if self.synth is not None:
            synth = {k: (list(v) if isinstance(v, (tuple, np.ndarray)) else v)
                     for k, v in vars(self.synth).items()}
        return {
            "rule": self.rule,
            "data_path": self.data_path,
            "synth": synth,
            "forecaster": self.forecaster,
            "forecaster_params": dict(self.forecaster_params),
            "m": [float(v) for v in self.policy.required_min_exposure],
            "phi": self.policy.required_min_accuracy,
            "K": self.policy.list_size,
            "alpha_k": self.rerank.alpha_k,
            "beta_mix": self.rerank.beta_mix,
            "eta": self.rerank.eta if isinstance(self.rerank.eta, str) else float(self.rerank.eta),
            "tau": self.tau,
            "seed": self.seed,
            "relevance_noise": self.relevance_noise,
            "interval_seconds": self.schema.interval_seconds,
        }


def _load_instance(cfg: RunConfig, seed: int):
    if cfg.synth is not None:
        return synth_instance(cfg.synth, seed)
    return load_interactions(cfg.data_path, cfg.schema)


def _alpha_for(cfg: RunConfig, m: np.ndarray, k: int, traffic_total: float) -> float:
    total = max(float(traffic_total), 1.0)
    return cfg.rerank.alpha_k * float(m.sum()) / (m.size * k * total)


def run(cfg: RunConfig) -> SimReport:
    """Simulate the full horizon and score it.

    Per interval: forecast the remaining traffic from realized history, scale
    it into claims, refresh the remaining requirement, plan the interval's
    floors under the configured rule, then serve arrivals online. rule="none"
    is the unconstrained baseline: zero floors and frozen dual prices.

    Only list selection and the dual step run once per arrival. Each
    interval's lists are scored as one block: their gains are gathered from
    the instance matrix by the arrivals' rows, against ideal DCGs computed
    once per matrix row. A noisy interval adds each arrival's row into its
    own noise block and scores that block.
    """
    # One sub-seed per stochastic stage keeps every stage independently
    # reproducible for a fixed run seed.
    instance_seed, resample_seed, deal_seed, noise_seed = (
        s.generate_state(1)[0] for s in np.random.SeedSequence(cfg.seed).spawn(4))
    catalog, counts, requests = _load_instance(cfg, instance_seed)
    m = cfg.policy.required_min_exposure
    if m.size == 1 and catalog.num_providers > 1:
        m = np.full(catalog.num_providers, float(m[0]))  # scalar floor broadcast
    elif m.size != catalog.num_providers:
        raise ConfigError("policy covers a different number of providers than the catalog")
    with np.errstate(over="ignore"):
        check(f"the sum of required_min_exposure over {m.size} providers", float(m.sum()),
              NONNEGATIVE)
    k = cfg.policy.list_size

    if cfg.tau is not None:
        counts = resample_traffic(counts, cfg.tau, len(requests), resample_seed)
        requests = redistribute_requests(requests, deal_seed)

    horizon = counts.size
    bounds = [0, *np.cumsum(counts).tolist()]  # interval n is requests[bounds[n-1]:bounds[n]]
    matrix = instance_matrix(requests) if requests else None
    ideal = None  # per matrix row, computed when the first arrival is scored
    noise_rng = np.random.default_rng(noise_seed)
    realized = counts.astype(float)
    remaining = m.astype(float).copy()
    cumulative = np.zeros(catalog.num_providers, dtype=np.int64)

    per_user_ndcg: list[float] = []
    per_interval_acc, per_interval_vio, per_interval_esp = [], [], []
    allocation_rows = []
    decision_rows: list[list] = []
    rerank_cfg = cfg.rerank
    if cfg.rule == "none":
        rerank_cfg = replace(cfg.rerank, eta=0.0)

    for n in range(1, horizon + 1):
        arrivals = requests[bounds[n - 1]:bounds[n]]
        fc = forecast.forecast_traffic(
            realized[: n - 1], horizon - n + 1, cfg.forecaster, cfg.forecaster_params,
            future=realized[n - 1:] if cfg.forecaster == "oracle" else None)
        rhat = fc.horizon_values
        rhat_n = max(float(rhat[0]), 1.0)

        if cfg.rule == "none" or float(m.sum()) == 0.0:
            audit = bankruptcy.plan_interval("none", remaining, np.zeros_like(rhat),
                                             rhat, interval=n)
        else:
            traffic_total = float(realized[: n - 1].sum() + rhat.sum())
            alpha = _alpha_for(cfg, m, k, traffic_total)
            claims = bankruptcy.predict_demands(rhat, alpha, k)
            audit = bankruptcy.plan_interval(cfg.rule, remaining, claims, rhat, interval=n)
        allocation_rows.append((n, audit))

        if arrivals:
            # The arrivals' rows of `scored`: the instance matrix, or a noise block.
            at = np.fromiter((req.row for req in arrivals), dtype=np.int64, count=len(arrivals))
            if cfg.relevance_noise > 0:
                # A new (arrivals x items) block, one row per arrival in
                # arrival order: the same stream as one draw per arrival. It
                # is scored on its own and dropped with the interval. Rows are
                # added one at a time: matrix[at] would be a second block.
                scored = noise_rng.normal(0.0, cfg.relevance_noise,
                                          size=(len(arrivals), catalog.num_items))
                for i, row in enumerate(at.tolist()):
                    scored[i] += matrix[row]
                relevances = np.clip(scored, 0.0, 1.0, out=scored)
                at, scored_ideal = np.arange(len(arrivals)), metrics.top_k_dcg(scored, k)
            else:
                scored, relevances = matrix, [req.relevance for req in arrivals]
                if ideal is None:
                    ideal = metrics.top_k_dcg(matrix, k)
                scored_ideal = ideal[at]
            lists, earned, prices = reranker.run_interval(
                relevances, audit["award"], rerank_cfg, catalog, rhat_n)
            cumulative = cumulative + earned
            if cfg.out_dir is not None:
                decision_rows.extend(
                    [n, t, req.user_id, *items, hashlib.sha1(mu).hexdigest()[:12]]
                    for t, (req, items, mu) in enumerate(zip(arrivals, lists.tolist(), prices), 1))
            interval_ndcg = metrics.ndcg_at_k(scored[at[:, None], lists], scored_ideal)
            del relevances, scored, prices  # the noise block and prices die with the interval
            per_user_ndcg.extend(interval_ndcg.tolist())
            per_interval_acc.append(float(np.mean(interval_ndcg)))
            per_interval_vio.append(metrics.vio_at_k(interval_ndcg, cfg.policy.required_min_accuracy))
        else:
            earned = np.zeros(catalog.num_providers, dtype=np.int64)
            per_interval_acc.append(1.0)
            per_interval_vio.append(0.0)
        per_interval_esp.append(metrics.esp_at_k(cumulative, m))

        remaining = bankruptcy.update_remaining(remaining, earned)

    report = SimReport(
        ndcg_at_k=float(np.mean(per_user_ndcg)) if per_user_ndcg else 1.0,
        vio_at_k=metrics.vio_at_k(per_user_ndcg, cfg.policy.required_min_accuracy)
        if per_user_ndcg else 0.0,
        esp_at_k=metrics.esp_at_k(cumulative, m),
        per_interval_traffic=[int(c) for c in counts],
        per_interval_accuracy=per_interval_acc,
        per_interval_vio=per_interval_vio,
        per_interval_esp=per_interval_esp,
        per_provider_cumulative_exposure=[int(c) for c in cumulative],
        per_user_ndcg=per_user_ndcg,
        config_echo=cfg.echo(),
    )
    if cfg.out_dir is not None:
        report.write(cfg.out_dir)
        _write_allocations(Path(cfg.out_dir) / "allocations.csv", allocation_rows)
        _write_decisions(Path(cfg.out_dir) / "decisions.csv", decision_rows, k)
    return report


def _write_allocations(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["interval", "provider", *bankruptcy.AUDIT_COLUMNS])
        for interval, audit in rows:
            columns = (audit[name].tolist() for name in bankruptcy.AUDIT_COLUMNS)
            w.writerows([interval, p, *values] for p, values in enumerate(zip(*columns)))


def _write_decisions(path, rows, k):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["interval", "t", "user_id", *(f"item_{i}" for i in range(1, k + 1)),
                    "mu_snapshot_hash"])
        w.writerows(rows)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

GRID_KEYS = ("m_scale", "k", "beta_mix", "eta", "tau", "phi", "rule")


@dataclass
class SweepSpec:
    """A hyperparameter grid over a base run, replicated across seeds."""

    base: RunConfig
    grid: dict[str, list]
    seeds: Sequence[int]

    def __post_init__(self):
        if not self.grid:
            raise ConfigError("sweep grid must be nonempty")
        unknown = set(self.grid) - set(GRID_KEYS)
        if unknown:
            raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
        check("seeds", self.seeds, NONEMPTY_LIST)
        check("seeds", self.seeds, list_of("ints >= 0", NONNEGATIVE_INT))
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("replication seeds must be distinct")
        for key, values in self.grid.items():  # each value alone, before any run
            check(f"sweep grid {key!r}", values, NONEMPTY_LIST)
            for value in values:
                try:
                    _apply_point(self.base, {key: value})
                except ConfigError as exc:
                    raise ConfigError(f"sweep grid {key!r}: {exc}") from None


def _apply_point(base: RunConfig, point: dict) -> RunConfig:
    policy, rerank = base.policy, base.rerank
    if "m_scale" in point:
        with np.errstate(over="ignore"):  # FairnessPolicy refuses an infinite floor
            m = policy.required_min_exposure * check("m_scale", point["m_scale"], NONNEGATIVE)
        policy = FairnessPolicy(m, policy.required_min_accuracy, policy.list_size)
    if "phi" in point:
        policy = FairnessPolicy(policy.required_min_exposure, point["phi"], policy.list_size)
    if "k" in point:
        rerank = replace(rerank, alpha_k=point["k"])
    if "beta_mix" in point:
        rerank = replace(rerank, beta_mix=point["beta_mix"])
    if "eta" in point:
        rerank = replace(rerank, eta=point["eta"])
    cfg = replace(base, policy=policy, rerank=rerank, out_dir=None)
    if "tau" in point:
        cfg = replace(cfg, tau=point["tau"])
    if "rule" in point:
        cfg = replace(cfg, rule=point["rule"])
    return cfg


def _t_interval(values: np.ndarray) -> float:
    """Half-width of the 95% t-interval of the mean (0 for a single value)."""
    if values.size < 2:
        return 0.0
    from scipy import stats  # here, not at import: scipy.stats takes about a second to load
    return float(stats.t.ppf(0.975, values.size - 1) * values.std(ddof=1) / math.sqrt(values.size))


@dataclass
class SweepResult:
    rows: list[dict]       # one per (grid point, seed), including failures
    summary: list[dict]    # one per grid point: means, 95% intervals, pareto flag

    def write(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if self.rows:
            with open(directory / "runs.csv", "w", newline="") as fh:
                w = csv.DictWriter(fh, fieldnames=list(self.rows[0].keys()))
                w.writeheader()
                w.writerows(self.rows)
        if self.summary:
            with open(directory / "pareto.csv", "w", newline="") as fh:
                w = csv.DictWriter(fh, fieldnames=list(self.summary[0].keys()))
                w.writeheader()
                w.writerows(self.summary)


def sweep(spec: SweepSpec) -> SweepResult:
    """Run the full grid x seeds; failures are recorded and do not stop it.

    The summary marks grid points not dominated on (ESP up, NDCG up, Vio
    down) by any other point.
    """
    keys = sorted(spec.grid)
    rows, summary = [], []
    for combo in itertools.product(*(spec.grid[key] for key in keys)):
        point = dict(zip(keys, combo))
        values = {"ndcg": [], "vio": [], "esp": []}
        for seed in spec.seeds:
            cfg = replace(_apply_point(spec.base, point), seed=seed)
            row = {**point, "seed": seed}
            try:
                rep = run(cfg)
            except Exception as exc:  # keep sweeping; the row records the failure
                logger.warning("sweep point %s seed %s failed: %s", point, seed, exc)
                row.update(status="error", error=str(exc), ndcg="", vio="", esp="")
            else:
                row.update(status="ok", error="", ndcg=rep.ndcg_at_k,
                           vio=rep.vio_at_k, esp=rep.esp_at_k)
                for name in values:
                    values[name].append(row[name])
            rows.append(row)
        agg = {**point, "runs_ok": len(values["ndcg"])}
        for name, vals in values.items():
            arr = np.asarray(vals, dtype=float)
            agg[f"{name}_mean"] = float(arr.mean()) if arr.size else ""
            agg[f"{name}_ci95"] = _t_interval(arr) if arr.size else ""
        summary.append(agg)

    scored = [s for s in summary if s["runs_ok"]]
    for s in summary:
        s["pareto"] = ""
    for s in scored:
        dominated = any(
            o is not s
            and o["esp_mean"] >= s["esp_mean"]
            and o["ndcg_mean"] >= s["ndcg_mean"]
            and o["vio_mean"] <= s["vio_mean"]
            and (o["esp_mean"] > s["esp_mean"] or o["ndcg_mean"] > s["ndcg_mean"]
                 or o["vio_mean"] < s["vio_mean"])
            for o in scored
        )
        s["pareto"] = not dominated
    return SweepResult(rows, summary)
