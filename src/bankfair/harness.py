"""End-to-end experiment driver: forecast -> allocate -> re-rank -> score."""

from __future__ import annotations

import csv
import hashlib
import itertools
import logging
import math
import re
from collections import namedtuple
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bankruptcy, forecast, metrics, reranker
from .domain import (FairnessPolicy, LogSchema, SynthConfig, instance_matrix, load_interactions,
                     redistribute_requests, resample_traffic, synth_instance)
from .errors import (NONEMPTY_LIST, NONNEGATIVE, NONNEGATIVE_INT, PATH, POSITIVE, ConfigError,
                     check, either, list_of)
from .metrics import SimReport

logger = logging.getLogger(__name__)

_Interval = namedtuple("_Interval", "n audit user_ids lists digests ndcg esp")


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation run needs; exactly one data source.

    Like every config it is checked once, when built, and frozen:
    ``dataclasses.replace`` makes a changed copy and checks it again.
    """

    policy: FairnessPolicy
    rerank: reranker.RerankConfig
    rule: str = "talmud"
    data_path: str | None = None
    schema: LogSchema = field(default_factory=LogSchema)
    synth: SynthConfig | None = None
    forecaster: str = "moving_average"
    forecaster_params: dict = field(default_factory=dict)  # a dict: each forecast checks it
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
        if self.synth is not None and self.synth.list_size != self.policy.list_size:
            raise ConfigError(f"synth spec list_size {self.synth.list_size!r} differs from "
                              f"K {self.policy.list_size!r}; leave list_size out or make "
                              "them equal")
        if self.synth is not None and self.synth.num_items < self.policy.list_size:
            raise ConfigError(f"need at least {self.policy.list_size} items, catalog has "
                              f"{self.synth.num_items}")
        if self.synth is not None and self.policy.required_min_exposure.size not in (
                1, self.synth.num_providers):
            raise ConfigError("policy covers a different number of providers than the catalog")
        check("data_path", self.data_path, either(None, PATH))
        check("tau", self.tau, either(None, POSITIVE))
        check("relevance_noise", self.relevance_noise, NONNEGATIVE)
        check("seed", self.seed, NONNEGATIVE_INT)
        forecast.check_params(self.forecaster, self.forecaster_params)

    def echo(self) -> dict:
        """JSON-friendly snapshot of the configuration."""
        return {
            "rule": self.rule,
            "data_path": self.data_path,
            "synth": None if self.synth is None else dict(vars(self.synth)),
            "forecaster": self.forecaster,
            "forecaster_params": dict(self.forecaster_params),
            "m": [float(v) for v in self.policy.required_min_exposure],
            "phi": self.policy.required_min_accuracy,
            "K": self.policy.list_size,
            "alpha_k": self.rerank.alpha_k,
            "beta_mix": self.rerank.beta_mix,
            "eta": float(self.rerank.eta),
            "tau": self.tau,
            "seed": self.seed,
            "relevance_noise": self.relevance_noise,
            "interval_seconds": self.schema.interval_seconds,
        }


def run(cfg: RunConfig) -> SimReport:
    """Simulate the full horizon and score it.

    Per interval: forecast the remaining traffic from realized history, scale
    it into claims, take each provider's floor less its cumulative exposure
    (at least 0) as the estate, plan the interval's floors under the
    configured rule, then serve arrivals online. rule="none" is the
    unconstrained baseline: zero floors and frozen dual prices.

    Only list selection and the dual step run once per arrival. Each
    interval's lists are scored as one block: their gains are gathered from
    the instance matrix by the arrivals' rows, against ideal DCGs computed
    once per matrix row. A noisy interval adds each arrival's row into its
    own noise block and scores that block. An interval without arrivals is
    served and scored like any other, with zero rows.

    Right after the build (and the tau deal), requests become one array of
    matrix rows and one list of user ids; interval n is a slice of each.
    Each interval leaves one record, which the report and both CSV writers
    read after the loop: its audit, its arrivals' user ids, their lists,
    NDCGs and price digests (when writing outputs), and the ESP so far.
    """
    # One sub-seed per stochastic stage keeps every stage independently
    # reproducible for a fixed run seed.
    instance_seed, resample_seed, deal_seed, noise_seed = (
        s.generate_state(1)[0] for s in np.random.SeedSequence(cfg.seed).spawn(4))
    if cfg.synth is not None:
        catalog, counts, requests = synth_instance(cfg.synth, instance_seed)
    else:
        catalog, counts, requests = load_interactions(cfg.data_path, cfg.schema)
    m = cfg.policy.required_min_exposure
    if m.size == 1 and catalog.num_providers > 1:
        m = np.full(catalog.num_providers, float(m[0]))  # scalar floor broadcast
    elif m.size != catalog.num_providers:
        raise ConfigError("policy covers a different number of providers than the catalog")
    k = cfg.policy.list_size

    if cfg.tau is not None:
        counts = resample_traffic(counts, cfg.tau, len(requests), resample_seed)
        requests = redistribute_requests(requests, deal_seed)

    rows = np.fromiter((req.row for req in requests), dtype=np.int64, count=len(requests))
    user_ids = [req.user_id for req in requests]
    horizon = counts.size
    bounds = [0, *np.cumsum(counts).tolist()]  # interval n is [bounds[n-1], bounds[n])
    matrix = instance_matrix(requests) if requests else np.empty((0, catalog.num_items))
    # A noiseless run scores against one ideal DCG per matrix row.
    ideal = metrics.top_k_dcg(matrix, k) if cfg.relevance_noise == 0 else None
    noise_rng = np.random.default_rng(noise_seed)
    realized = counts.astype(float)
    cumulative = np.zeros(catalog.num_providers, dtype=np.int64)

    records = []
    rerank_cfg = replace(cfg.rerank, eta=0.0) if cfg.rule == "none" else cfg.rerank
    lam = reranker.compute_penalties(catalog, cfg.rerank.beta_mix)
    # Claims of alpha * K per predicted arrival; alpha_k = 1 makes them sum
    # over the horizon to the mean floor when the forecast is exact. The
    # realized counts are integers, so their running sum is exact.
    scaled_floors, slots = cfg.rerank.alpha_k * float(m.sum()), m.size * k
    realized_sum = 0.0

    for n in range(1, horizon + 1):
        lo, hi = bounds[n - 1], bounds[n]
        rhat = forecast.forecast_traffic(
            realized[: n - 1], horizon - n + 1, cfg.forecaster, cfg.forecaster_params,
            future=realized[n - 1:]).horizon_values
        rhat_n = max(float(rhat[0]), 1.0)
        remaining = np.maximum(m - cumulative, 0.0)
        traffic_total = max(float(realized_sum + rhat.sum()), 1.0)
        realized_sum += realized[n - 1]
        alpha = scaled_floors / (slots * traffic_total)
        audit = bankruptcy.plan_interval(cfg.rule, remaining, alpha * k * rhat, rhat, interval=n)

        # The arrivals' rows of `scored`: the instance matrix, or a noise block.
        at = rows[lo:hi]
        if cfg.relevance_noise > 0:
            # A new (arrivals x items) block, one row per arrival in arrival
            # order: the same stream as one draw per arrival. It is scored on
            # its own and dropped with the interval. Rows are added one at a
            # time: matrix[at] would be a second block.
            scored = noise_rng.normal(0.0, cfg.relevance_noise,
                                      size=(len(at), catalog.num_items))
            for i, row in enumerate(at.tolist()):
                scored[i] += matrix[row]
            np.clip(scored, 0.0, 1.0, out=scored)
            at, scored_ideal = np.arange(len(at)), metrics.top_k_dcg(scored, k)
        else:
            scored, scored_ideal = matrix, ideal[at]
        lists, earned, prices = reranker.run_interval(
            scored, at, audit["award"], rerank_cfg, catalog, rhat_n, lam)
        cumulative += earned
        digests = b""
        if cfg.out_dir is not None:
            digests = b"".join([hashlib.sha1(mu).digest()[:6] for mu in prices])
        ndcg = metrics.ndcg_at_k(scored[at[:, None], lists], scored_ideal)
        del scored, prices  # the noise block and prices die with the interval
        records.append(_Interval(n, audit, user_ids[lo:hi], lists, digests, ndcg,
                                 metrics.esp_at_k(cumulative, m)))

    phi = cfg.policy.required_min_accuracy
    per_user_ndcg = np.concatenate([r.ndcg for r in records]).tolist()
    report = SimReport(
        ndcg_at_k=float(np.mean(per_user_ndcg)) if per_user_ndcg else 1.0,
        vio_at_k=metrics.vio_at_k(per_user_ndcg, phi) if per_user_ndcg else 0.0,
        esp_at_k=records[-1].esp,
        per_interval_traffic=[int(c) for c in counts],
        per_interval_accuracy=[float(np.mean(r.ndcg)) if r.user_ids else 1.0 for r in records],
        per_interval_vio=[metrics.vio_at_k(r.ndcg, phi) if r.user_ids else 0.0 for r in records],
        per_interval_esp=[r.esp for r in records],
        per_provider_cumulative_exposure=[int(c) for c in cumulative],
        per_user_ndcg=per_user_ndcg,
        config_echo=cfg.echo(),
    )
    if cfg.out_dir is not None:
        report.write(cfg.out_dir)
        _write_allocations(Path(cfg.out_dir) / "allocations.csv", records)
        _write_decisions(Path(cfg.out_dir) / "decisions.csv", records, k, catalog.num_items)
    return report


def _write_allocations(path, records):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["interval", "provider", *bankruptcy.AUDIT_COLUMNS])
        for r in records:
            columns = (r.audit[name].tolist() for name in bankruptcy.AUDIT_COLUMNS)
            w.writerows([r.n, p, *values] for p, values in enumerate(zip(*columns)))


# csv.writer quotes a field that holds one of these.
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _write_decisions(path, records, k, num_items):
    """One row per arrival; an interval's rows are made and written as one string.

    The hash column is the first 12 hex digits of the sha1 of the prices
    that selected the list: the hex of the 6 bytes per arrival that a
    record's ``digests`` holds. A row is its fields joined by commas, item
    ids taken from one table of labels. User ids are str (every build makes
    them so); in an interval where some id holds a comma, a quote, CR or LF,
    each such id is quoted as csv.writer quotes it, so every row has
    ``csv.writer``'s bytes.
    """
    labels = np.array([str(i) for i in range(num_items)], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["interval", "t", "user_id", *(f"item_{i}" for i in range(1, k + 1)),
                           "mu_snapshot_hash"]) + "\r\n")
        for n, _, uids, lists, digests, *_ in records:
            if _CSV_SPECIAL.search("".join(uids)):
                uids = ['"' + uid.replace('"', '""') + '"' if _CSV_SPECIAL.search(uid) else uid
                        for uid in uids]
            hexes = digests.hex()
            hashes = [hexes[i:i + 12] for i in range(0, len(hexes), 12)]
            columns = (itertools.repeat(str(n)), map(str, range(1, len(uids) + 1)),
                       uids, *labels[lists].T.tolist(), hashes)
            fh.write("".join(map("{}\r\n".format, map(",".join, zip(*columns)))))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

GRID_KEYS = ("m_scale", "k", "beta_mix", "eta", "tau", "phi", "rule")


def _apply_point(base: RunConfig, point: dict) -> RunConfig:
    policy, rerank = base.policy, base.rerank
    if "m_scale" in point:
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


# Student's t quantile at 0.975 for df = 1..100, as float reprs taken once from
# a reference implementation: a sweep of up to 101 seeds has exact ci95 bytes.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
)


def _t975(df: int) -> float:
    """Student's t at 0.975: the table up to df 100, then the four-term Cornish-Fisher
    expansion in 1/df (Abramowitz & Stegun 26.7.5), within 4e-11 relative of exact."""
    if df <= len(_T975):
        return _T975[df - 1]
    z = 1.959963984540054  # the normal quantile at 0.975
    z2 = z * z
    g1 = z * (z2 + 1) / 4
    g2 = z * ((5 * z2 + 16) * z2 + 3) / 96
    g3 = z * (((3 * z2 + 19) * z2 + 17) * z2 - 15) / 384
    g4 = z * ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) / 92160
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


def _t_interval(values: np.ndarray) -> float:
    """Half-width of the 95% t-interval of the mean (0 for a single value)."""
    if values.size < 2:
        return 0.0
    return float(_t975(values.size - 1) * values.std(ddof=1) / math.sqrt(values.size))


@dataclass
class SweepResult:
    rows: list[dict]       # one per (grid point, seed), including failures
    summary: list[dict]    # one per grid point: means, 95% intervals, pareto flag

    def write(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if self.rows:
            with open(directory / "runs.csv", "w", newline="", encoding="utf-8") as fh:
                w = csv.DictWriter(fh, fieldnames=list(self.rows[0].keys()))
                w.writeheader()
                w.writerows(self.rows)
        if self.summary:
            with open(directory / "pareto.csv", "w", newline="", encoding="utf-8") as fh:
                w = csv.DictWriter(fh, fieldnames=list(self.summary[0].keys()))
                w.writeheader()
                w.writerows(self.summary)


def sweep(base: RunConfig, grid: dict[str, list],
          seeds: list[int] | tuple[int, ...] | np.ndarray) -> SweepResult:
    """Run every point of ``grid`` over ``base`` for each of ``seeds``.

    ``grid`` is a dict from some of GRID_KEYS to nonempty lists of values; ``seeds``
    are distinct ints >= 0 in a 1-d list, tuple or array. Both are checked,
    each grid value alone, before any run. A failed run is recorded and
    does not stop the sweep. The summary marks grid points not dominated on
    (ESP up, NDCG up, Vio down) by any other point.
    """
    check("sweep grid", grid, ("a dict of lists", lambda g: isinstance(g, dict)))
    if not grid:
        raise ConfigError("sweep grid must be nonempty")
    unknown = set(grid) - set(GRID_KEYS)
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    check("seeds", seeds, NONEMPTY_LIST)
    check("seeds", seeds, list_of("ints >= 0", NONNEGATIVE_INT))
    if len(set(seeds)) != len(seeds):
        raise ConfigError("replication seeds must be distinct")
    for key, values in grid.items():
        check(f"sweep grid {key!r}", values, NONEMPTY_LIST)
        for value in values:
            try:
                _apply_point(base, {key: value})
            except ConfigError as exc:
                raise ConfigError(f"sweep grid {key!r}: {exc}") from None

    keys = sorted(grid)
    rows, summary = [], []
    for combo in itertools.product(*(grid[key] for key in keys)):
        point = dict(zip(keys, combo))
        values = {"ndcg": [], "vio": [], "esp": []}
        for seed in seeds:
            cfg = replace(_apply_point(base, point), seed=seed)
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
