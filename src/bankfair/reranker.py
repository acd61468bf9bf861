"""Online per-user re-ranking under per-interval exposure floors.

Each arriving user's top-K list maximizes relevance adjusted by per-provider
dual prices; the prices are then updated by a projected subgradient step that
compares the list's realized exposure against the price-optimal exposure of
the penalty conjugate. Prices live in {mu >= -lambda}, so a provider's boost
can never exceed its violation penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Catalog
from .errors import NONNEGATIVE, POSITIVE_INT, UNIT, ConfigError, check, either, number_in


@dataclass
class RerankConfig:
    """Knobs of the online re-ranker."""

    list_size: int = 10
    alpha_k: float = 1.5  # claim scaling factor, sensible range [1, 2]
    beta_mix: float = 0.5  # penalty emphasis on small-inventory providers
    eta: float | str = "auto"  # "auto" -> 1/sqrt(predicted traffic)

    def __post_init__(self):
        check("list_size", self.list_size, POSITIVE_INT)
        check("alpha_k", self.alpha_k, number_in(1, 2))
        check("beta_mix", self.beta_mix, UNIT)
        check("eta", self.eta, either("auto", NONNEGATIVE))

    def step_size(self, rhat_n: float) -> float:
        if self.eta == "auto":
            return 1.0 / math.sqrt(max(float(rhat_n), 1.0))
        return float(self.eta)


def compute_penalties(catalog: Catalog, beta_mix: float) -> np.ndarray:
    """Violation penalties: beta * max_inventory/inventory + (1-beta)/num_providers.

    The first term weights small providers up; the second is a uniform floor.
    """
    check("beta_mix", beta_mix, UNIT)
    inv = catalog.inventory.astype(float)
    return beta_mix * inv.max() / inv + (1.0 - beta_mix) / catalog.num_providers


def compute_caps(catalog: Catalog, list_size: int, rhat_n: float) -> np.ndarray:
    """Exposure caps proportional to inventory share; they sum to K * rhat_n."""
    if rhat_n < 0:
        raise ConfigError("predicted traffic must be >= 0")
    inv = catalog.inventory.astype(float)
    return list_size * float(rhat_n) * inv / inv.sum()


def top_k(scores: np.ndarray, k: int, tiebreak: np.ndarray | None = None) -> np.ndarray:
    """Ids of the k items first in (-scores, -tiebreak, id) order; tiebreak defaults to scores.

    One O(I) partition pass finds the k-th largest score; only the items at
    or above it (ties included) are sorted, so the order is a full lexsort's.
    """
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    if n < k:
        raise ConfigError(f"need at least {k} items, catalog has {n}")
    tiebreak = scores if tiebreak is None else tiebreak
    part = scores.copy()
    part.partition(n - k)
    # In descending id order, an ascending stable sort by (score, tiebreak)
    # read backwards is the (-score, -tiebreak, id) order.
    candidates = (scores >= part[n - k]).nonzero()[0][::-1]
    order = np.lexsort((tiebreak[candidates], scores[candidates]))[:-k - 1:-1]
    return candidates[order]


def select_list(relevance: np.ndarray, mu: np.ndarray, item_provider: np.ndarray,
                rhat_n: float, k: int) -> np.ndarray:
    """Top-K item ids by price-adjusted score relevance/rhat_n - mu[item_provider].

    ``mu`` holds one dual price per provider and ``item_provider`` the
    provider index of each item. Ties break toward higher raw relevance, then
    the lower item id, which makes replays deterministic. The greedy prefix
    of this ordering is the exact maximizer of the summed adjusted score over
    all K-subsets. The list is ``top_k`` of the adjusted scores with the
    relevance as tie-break.
    """
    relevance = np.asarray(relevance, dtype=float)
    if rhat_n <= 0:
        raise ConfigError("predicted traffic must be positive when selecting")
    scores = relevance / float(rhat_n)
    scores -= mu.take(item_provider)
    return top_k(scores, k, relevance)


def conjugate_argmax(mu: np.ndarray, gamma: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Exposure maximizing the penalty conjugate at prices ``mu``.

    Per provider the objective -lam*[m - E]_+ + mu*E over E in [0, gamma] is
    piecewise linear, so the maximizer sits at gamma when mu >= 0 and at
    min(m, gamma) when mu < 0 (on mu >= -lam the kink at m always beats 0).
    """
    return np.where(mu >= 0.0, gamma, np.minimum(m, gamma))


def conjugate_value(mu: np.ndarray, gamma: np.ndarray, m: np.ndarray) -> float:
    """Closed-form conjugate value mu'm + sum (gamma - m) * max(mu, 0)."""
    return float(mu @ m + ((gamma - m) * np.maximum(mu, 0.0)).sum())


def dual_step(mu: np.ndarray, eta: float, lam: np.ndarray, exposure: np.ndarray,
              e_star: np.ndarray) -> np.ndarray:
    """Projected subgradient step on the dual prices.

    g = e_star - exposure; the step mu - eta*g is clipped to the feasible
    region mu >= -lam.
    """
    step = np.subtract(e_star, exposure, dtype=float)
    step *= eta
    np.subtract(mu, step, out=step)
    return np.maximum(step, -lam, out=step)


def run_interval(relevance: np.ndarray, rows: np.ndarray, floor: np.ndarray,
                 cfg: RerankConfig, catalog: Catalog, rhat_n: float):
    """Serve one interval's arrivals in order against per-provider ``floor``.

    ``relevance`` is a block of dense relevance vectors, one per row, and
    ``rows`` holds one row index per arrival, in order: arrival t is served
    with ``relevance[rows[t]]``.

    Dual prices start at zero and stay in mu >= -lambda, lambda being the
    penalties of ``compute_penalties``. After each list its exposure is added
    to ``earned``, then ``dual_step`` runs against the conjugate maximizer
    for the unearned remainder ``max(floor - earned, 0)``, so pressure on a
    provider fades once its floor is met. Under the config's magnitude bound
    (``errors.MAX_MAGNITUDE``) no dual step can overflow the prices.

    Returns (lists, earned, prices): ``lists`` is an int64 array of shape
    (len(rows), K) whose row t holds arrival t's K distinct item ids in rank
    order, ``earned`` the int64 exposure each provider earned, and ``prices``
    the float64 array of shape (len(rows), num_providers) whose row t holds
    the prices that selected list t.
    """
    k = cfg.list_size
    if rhat_n <= 0:
        raise ConfigError("predicted traffic for the interval must be positive")
    if catalog.num_items < k:
        raise ConfigError(f"need at least {k} items, catalog has {catalog.num_items}")
    lam = compute_penalties(catalog, cfg.beta_mix)
    gamma = compute_caps(catalog, k, rhat_n)
    eta = cfg.step_size(rhat_n)

    nprov, item_provider = catalog.num_providers, catalog.item_provider
    mu = np.zeros(nprov)
    earned = np.zeros(nprov, dtype=np.int64)
    unmet = np.empty(nprov)
    lists = np.empty((len(rows), k), dtype=np.int64)
    prices = np.empty((len(rows), nprov))
    for t, row in enumerate(rows):
        items = select_list(relevance[row], mu, item_provider, rhat_n, k)
        exposure = np.bincount(item_provider[items], minlength=nprov)
        earned += exposure
        np.subtract(floor, earned, out=unmet)
        e_star = conjugate_argmax(mu, gamma, np.maximum(unmet, 0.0, out=unmet))
        lists[t], prices[t] = items, mu
        mu = dual_step(mu, eta, lam, exposure, e_star)
    return lists, earned, prices
