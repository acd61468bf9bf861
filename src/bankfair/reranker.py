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


def _top_k_order(primary: np.ndarray, secondary: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k items first in (-primary, -secondary, index) order.

    The candidates are every item whose primary key is at least the k-th
    largest, ties at that value included, so the k winners are always among
    them; only the candidates are sorted. The cost is one O(I) partition
    pass plus a sort of the candidates, and the order is a full lexsort's.
    """
    n = primary.size
    part = primary.copy()
    part.partition(n - k)
    kth = part[n - k]
    candidates = (primary >= kth).nonzero()[0]
    order = np.lexsort((candidates, -secondary[candidates], -primary[candidates]))[:k]
    return candidates[order]


def top_k(relevance: np.ndarray, k: int) -> np.ndarray:
    """Item ids of the plain top-K by relevance; ties go to the lower item id.

    Only the items scoring at least the k-th largest relevance are sorted;
    the order is that of a full sort.
    """
    relevance = np.asarray(relevance, dtype=float)
    if relevance.size < k:
        raise ConfigError(f"need at least {k} items, catalog has {relevance.size}")
    return _top_k_order(relevance, relevance, k)


def select_list(relevance: np.ndarray, mu: np.ndarray, item_provider: np.ndarray,
                rhat_n: float, k: int) -> np.ndarray:
    """Top-K item ids by price-adjusted score relevance/rhat_n - mu[item_provider].

    ``mu`` holds one dual price per provider and ``item_provider`` the
    provider index of each item. Ties break toward higher raw relevance, then
    the lower item id, which makes replays deterministic. The greedy prefix
    of this ordering is the exact maximizer of the summed adjusted score over
    all K-subsets. Only the items whose adjusted score is at least the k-th
    largest (ties included) are sorted; the tie order is that of a full sort.
    """
    relevance = np.asarray(relevance, dtype=float)
    if relevance.size < k:
        raise ConfigError(f"need at least {k} items, catalog has {relevance.size}")
    if rhat_n <= 0:
        raise ConfigError("predicted traffic must be positive when selecting")
    adjusted = relevance / float(rhat_n) - mu.take(item_provider)
    return _top_k_order(adjusted, relevance, k)


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
    return np.maximum(mu - eta * (e_star - exposure), -lam)


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
    provider fades once its floor is met.

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
    mu = np.zeros_like(lam)

    nprov = catalog.num_providers
    earned = np.zeros(nprov, dtype=np.int64)
    lists = np.empty((len(rows), k), dtype=np.int64)
    prices = np.empty((len(rows), nprov))
    for t, row in enumerate(rows):
        items = select_list(relevance[row], mu, catalog.item_provider, rhat_n, k)
        exposure = np.bincount(catalog.item_provider[items], minlength=nprov)
        earned += exposure
        e_star = conjugate_argmax(mu, gamma, np.maximum(floor - earned, 0.0))
        lists[t], prices[t] = items, mu
        mu = dual_step(mu, eta, lam, exposure, e_star)
    return lists, earned, prices
