"""Accuracy and fairness metrics plus the aggregated run report."""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError


@functools.cache
def _discounts(n: int) -> np.ndarray:
    """log2(rank + 1) for ranks 1..n, computed once per list length."""
    d = np.log2(np.arange(1, n + 1) + 1)
    d.flags.writeable = False
    return d


def dcg(scores: np.ndarray) -> float:
    """Discounted cumulative gain of scores in list order (1-based ranks, log2)."""
    scores = np.asarray(scores, dtype=float)
    return float((scores / _discounts(scores.size)).sum())


def ndcg_at_k(items: np.ndarray, ideal_dcg: float, relevance: np.ndarray) -> float:
    """DCG of the re-ranked list over the DCG of the plain top-K list.

    ``items`` is the re-ranked list's item ids in rank order, with gains
    looked up in ``relevance``; ``ideal_dcg`` is the denominator,
    ``dcg(relevance[top_k(relevance, K)])``, which callers compute once per
    relevance vector. Two zero-gain lists score 1.
    """
    num = dcg(np.asarray(relevance, dtype=float)[items])
    if ideal_dcg == 0.0:
        if num == 0.0:
            return 1.0
        raise ValueError("original list has zero gain but the re-ranked list does not")
    return num / ideal_dcg


def vio_at_k(per_user_ndcg: Sequence[float], phi: float) -> float:
    """Fraction of users whose list accuracy falls strictly below phi."""
    if not 0.0 <= phi <= 1.0:
        raise ConfigError("phi must lie in [0, 1]")
    values = np.asarray(per_user_ndcg, dtype=float)
    if values.size == 0:
        raise ValueError("no users")
    return float((values < phi).mean())


def esp_at_k(cumulative_exposure: np.ndarray, required: np.ndarray) -> float:
    """Fraction of providers whose cumulative exposure meets their floor."""
    exposure = np.asarray(cumulative_exposure, dtype=float)
    required = np.asarray(required, dtype=float)
    if exposure.shape != required.shape:
        raise ConfigError("exposure and requirement vectors must align")
    return float((exposure >= required).mean())


def feasible_region_ratio(plan: np.ndarray, traffic: float, list_size: int) -> float:
    """Share of the unconstrained exposure region surviving the floors.

    max(0, 1 - sum(plan) / (traffic * K)); a per-interval diagnostic of how
    much room the fairness floors leave.
    """
    budget = float(traffic) * list_size
    if budget <= 0:
        raise ConfigError("traffic * K must be positive")
    return max(0.0, 1.0 - float(np.asarray(plan, dtype=float).sum()) / budget)


@dataclass
class SimReport:
    """Aggregate and per-interval results of one simulation run."""

    ndcg_at_k: float
    vio_at_k: float
    esp_at_k: float
    per_interval_traffic: list[int]
    per_interval_accuracy: list[float]
    per_interval_vio: list[float]
    per_interval_esp: list[float]
    per_provider_cumulative_exposure: list[int]
    per_user_ndcg: list[float]
    config_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("ndcg_at_k", "vio_at_k", "esp_at_k"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0 + 1e-12:
                raise ConfigError(f"{name} out of [0, 1]: {v}")

    def to_json(self) -> str:
        """Stable-key JSON; identical configs and seeds give identical bytes."""
        return json.dumps(vars(self), sort_keys=True, indent=2) + "\n"

    def write(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "report.json").write_text(self.to_json())
        with open(directory / "intervals.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["interval", "traffic", "accuracy", "vio", "esp_partial"])
            for n in range(len(self.per_interval_traffic)):
                w.writerow([n + 1, self.per_interval_traffic[n],
                            repr(self.per_interval_accuracy[n]),
                            repr(self.per_interval_vio[n]),
                            repr(self.per_interval_esp[n])])
