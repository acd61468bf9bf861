"""Seeded inputs for the three benchmark workloads.

Each workload fixes its sizes and traffic shape, so every seed gives the
same amount of work. The synthetic workloads hand the seed to RunConfig,
from which bankfair draws relevance scores and the tau resampling;
replay_log draws its whole log from the seed. See README.md for why each
workload exists.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

K = 10


@dataclass
class Workload:
    """One benchmark input: a RunConfig spec plus what the checks need."""

    spec: dict           # input of config.build_config
    users: int           # arrivals the run must serve
    item_provider: np.ndarray | None = None  # replay_log: catalog index -> provider


def _fixed_total(rng, total: int, weights: np.ndarray) -> np.ndarray:
    """``total`` arrivals drawn over intervals by ``weights``, at least one in each."""
    return 1 + rng.multinomial(total - weights.size, weights / weights.sum())


def _cycle(intervals: int, period: float, depth: float) -> np.ndarray:
    """A fixed periodic traffic shape with peak-to-mean ratio ``1 + depth``."""
    return 1.0 + depth * np.cos(2 * np.pi * np.arange(intervals) / period)


def _counts(total: int, weights: np.ndarray) -> list[int]:
    """Deterministic counts proportional to ``weights`` that sum to ``total``."""
    counts = np.floor(total * weights / weights.sum()).astype(int)
    counts[np.argsort(-weights, kind="stable")[: total - counts.sum()]] += 1
    return counts.tolist()


def _floor(share: float, users: int, providers: int) -> list[float]:
    """Uniform floors that put ``share`` of the K * users exposure under guarantee."""
    return [share * K * users / providers] * providers


def wide_catalog(seed: int) -> Workload:
    """10k items, 100 providers, 14 intervals: serving cost grows with the catalog."""
    users, intervals = 700, 14
    head, tail = 60, 40
    synth = dict(
        num_items=head * 160 + tail * 10, num_providers=head + tail,
        num_intervals=intervals, list_size=K,
        traffic=_counts(users, _cycle(intervals, 7, 0.15)),
        provider_bands=[(0.86, 1.0)] * head + [(0.3, 0.9)] * tail,
        inventory=[160] * head + [10] * tail)
    spec = dict(synth=synth, m=_floor(0.3, users, head + tail), phi=0.95, K=K,
                alpha_k=1.5, beta_mix=0.0, eta=1e-3, rule="talmud",
                forecaster="oracle", tau=0.2, seed=seed)
    return Workload(spec, users)


def long_tail(seed: int) -> Workload:
    """200 providers of a few items over 60 intervals: allocation cost dominates."""
    users, intervals = 600, 60
    head, tail = 60, 140
    synth = dict(
        num_items=head * 5 + tail * 2, num_providers=head + tail,
        num_intervals=intervals, list_size=K,
        traffic=_counts(users, _cycle(intervals, 12, 0.5)),
        provider_bands=[(0.8, 1.0)] * head + [(0.1, 0.8)] * tail,
        inventory=[5] * head + [2] * tail)
    spec = dict(synth=synth, m=_floor(0.3, users, head + tail), phi=0.95, K=K,
                alpha_k=1.5, beta_mix=0.5, eta=1e-2, rule="talmud",
                forecaster="oracle", tau=None, seed=seed)
    return Workload(spec, users)


def replay_log(seed: int, directory: Path) -> Workload:
    """A 20k-row hourly log over two days, replayed through ``load_interactions``.

    Writes ``interactions.csv`` and ``catalog.csv`` under ``directory/log``.
    Users repeat (heavy-tailed activity), providers have Zipf popularity and
    arrivals follow a diurnal cycle that never drops to zero, so the moving
    average forecaster always has traffic to plan with.
    """
    rows, hours, num_users = 20_000, 48, 4_000
    providers, items_per_provider = 30, 10
    num_items = providers * items_per_provider
    rng = np.random.default_rng([seed, 3])

    item_provider = np.repeat(np.arange(providers), items_per_provider)
    item_pop = (1.0 / np.arange(1, providers + 1) ** 1.1)[item_provider]
    item_pop *= rng.uniform(0.5, 1.5, size=num_items)
    user_act = rng.lognormal(0.0, 0.75, size=num_users)

    hour = np.arange(hours)
    per_hour = _fixed_total(rng, rows, _cycle(hours, 24, 0.7))
    t0 = 1_700_000_000
    ts = t0 + 3600 * np.repeat(hour, per_hour) + rng.integers(0, 3600, size=rows)
    ts[0] = t0  # pins the first interval's start, so the horizon is exactly `hours`
    user = rng.choice(num_users, size=rows, p=user_act / user_act.sum())
    item = rng.choice(num_items, size=rows, p=item_pop / item_pop.sum())
    score = np.round(rng.uniform(0.05, 1.0, size=rows), 3)

    log_dir = directory / "log"
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "catalog.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", "provider_id"])
        w.writerows((f"i{i}", int(p)) for i, p in enumerate(item_provider))
    with open(log_dir / "interactions.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "item_id", "provider_id", "timestamp", "score"])
        w.writerows((f"u{u}", f"i{i}", int(item_provider[i]), int(t), repr(float(s)))
                    for u, i, t, s in zip(user, item, ts, score))

    spec = dict(data_path=str(log_dir), interval_seconds=3600.0,
                m=_floor(0.3, rows, providers), phi=0.95, K=K, alpha_k=1.5,
                beta_mix=0.5, eta=1e-4, rule="talmud", forecaster="moving_average",
                forecaster_params={"w": 3, "prior_mean": rows / hours}, tau=None,
                seed=seed, out_dir=str(directory / "out"))
    return Workload(spec, rows, item_provider)


NAMES = ("wide_catalog", "long_tail", "replay_log")


def make(name: str, seed: int, directory: Path) -> Workload:
    """Inputs of workload ``name``; files go under ``directory``."""
    if name == "replay_log":
        return replay_log(seed, directory)
    return {"wide_catalog": wide_catalog, "long_tail": long_tail}[name](seed)
