"""Online per-user re-ranking under per-interval exposure floors.

Each arriving user's top-K list maximizes relevance adjusted by per-provider
dual prices; the prices are then updated by a projected subgradient step that
compares the list's realized exposure against the price-optimal exposure of
the penalty conjugate. Prices live in {mu >= -lambda}, so a provider's boost
can never exceed its violation penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bankruptcy import IntervalPlan
from .domain import Catalog, UserRequest
from .errors import ConfigError


@dataclass(frozen=True)
class DualState:
    """Dual prices plus the fixed per-interval parameters they move under."""

    mu: np.ndarray
    eta: float
    lam: np.ndarray
    gamma: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        weight = np.asarray(self.weight, dtype=float)
        if (mu < -lam - 1e-12).any():
            raise ConfigError("dual variable below -lambda")
        if (gamma < 0).any() or (weight <= 0).any():
            raise ConfigError("caps must be >= 0 and weights > 0")
        if self.eta < 0:
            raise ConfigError("step size must be >= 0")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "weight", weight)

    @classmethod
    def initial(cls, lam, gamma, eta, weight=None):
        lam = np.asarray(lam, dtype=float)
        w = np.ones_like(lam) if weight is None else np.asarray(weight, dtype=float)
        return cls(np.zeros_like(lam), float(eta), lam, np.asarray(gamma, dtype=float), w)


@dataclass
class ExposureLedger:
    """Exposure bookkeeping for one interval.

    ``beta_remaining`` is the plan minus earned exposure; it goes negative
    when a provider is served past its floor and is recorded as-is.
    """

    earned: np.ndarray
    beta_remaining: np.ndarray


@dataclass
class RerankConfig:
    """Knobs of the online re-ranker."""

    list_size: int = 10
    alpha_k: float = 1.5  # claim scaling factor, sensible range [1, 2]
    beta_mix: float = 0.5  # penalty emphasis on small-inventory providers
    eta: float | str = "auto"  # "auto" -> 1/sqrt(predicted traffic)

    def __post_init__(self):
        if self.list_size < 1:
            raise ConfigError("list size must be >= 1")
        if not 1.0 <= self.alpha_k <= 2.0:
            raise ConfigError("alpha_k must lie in [1, 2]")
        if not 0.0 <= self.beta_mix <= 1.0:
            raise ConfigError("beta_mix must lie in [0, 1]")

    def step_size(self, rhat_n: float) -> float:
        if self.eta == "auto":
            return 1.0 / math.sqrt(max(float(rhat_n), 1.0))
        return float(self.eta)


def compute_penalties(catalog: Catalog, beta_mix: float) -> np.ndarray:
    """Violation penalties: beta * max_inventory/inventory + (1-beta)/num_providers.

    The first term weights small providers up; the second is a uniform floor.
    """
    if not 0.0 <= beta_mix <= 1.0:
        raise ConfigError("beta_mix must lie in [0, 1]")
    inv = catalog.inventory.astype(float)
    if (inv < 1).any():
        raise ConfigError("every provider needs at least one item")
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
    kth = np.partition(primary, n - k)[n - k]
    candidates = (primary >= kth).nonzero()[0]
    order = np.lexsort((candidates, -secondary[candidates], -primary[candidates]))[:k]
    return candidates[order]


def _adjusted_top_k(relevance: np.ndarray, mu: np.ndarray, item_provider: np.ndarray,
                    rhat_n: float, k: int) -> np.ndarray:
    """Item ids of the top-K list by adjusted score, then relevance, then id."""
    adjusted = relevance / float(rhat_n) - mu[item_provider]
    return _top_k_order(adjusted, relevance, k)


def top_k(relevance: np.ndarray, k: int) -> np.ndarray:
    """Item ids of the plain top-K by relevance; ties go to the lower item id.

    Only the items scoring at least the k-th largest relevance are sorted;
    the order is that of a full sort.
    """
    relevance = np.asarray(relevance, dtype=float)
    if relevance.size < k:
        raise ConfigError(f"need at least {k} items, catalog has {relevance.size}")
    return _top_k_order(relevance, relevance, k)


def select_list(relevance: np.ndarray, dual: DualState, catalog: Catalog,
                rhat_n: float, k: int) -> np.ndarray:
    """Top-K item ids by price-adjusted score relevance/rhat_n - mu[provider(item)].

    Ties break toward higher raw relevance, then the lower item id, which
    makes replays deterministic. The greedy prefix of this ordering is the
    exact maximizer of the summed adjusted score over all K-subsets. Only the
    items whose adjusted score is at least the k-th largest (ties included)
    are sorted; the tie order is that of a full sort.
    """
    relevance = np.asarray(relevance, dtype=float)
    if relevance.size < k:
        raise ConfigError(f"need at least {k} items, catalog has {relevance.size}")
    if rhat_n <= 0:
        raise ConfigError("predicted traffic must be positive when selecting")
    return _adjusted_top_k(relevance, dual.mu, catalog.item_provider, rhat_n, k)


def _conjugate_argmax(mu: np.ndarray, gamma: np.ndarray, m: np.ndarray) -> np.ndarray:
    return np.where(mu >= 0.0, gamma, np.minimum(m, gamma))


def conjugate_argmax(dual: DualState, plan: IntervalPlan) -> np.ndarray:
    """Exposure maximizing the penalty conjugate at the current prices.

    Per provider the objective -lam*[M - E]_+ + mu*E over E in [0, gamma] is
    piecewise linear, so the maximizer sits at gamma when mu >= 0 and at
    min(M, gamma) when mu < 0 (on mu >= -lam the kink at M always beats 0).
    """
    return _conjugate_argmax(dual.mu, dual.gamma, np.asarray(plan.min_exposure, dtype=float))


def conjugate_value(dual: DualState, plan: IntervalPlan) -> float:
    """Closed-form conjugate value mu'M + sum (gamma - M) * max(mu, 0)."""
    m = np.asarray(plan.min_exposure, dtype=float)
    return float(dual.mu @ m + ((dual.gamma - m) * np.maximum(dual.mu, 0.0)).sum())


def _dual_step(mu: np.ndarray, eta: float, neg_lam: np.ndarray, weight: np.ndarray,
               x_exposure: np.ndarray, e_star: np.ndarray) -> np.ndarray:
    g = e_star - x_exposure
    return np.maximum(mu - eta * g / weight, neg_lam)


def dual_step(dual: DualState, x_exposure: np.ndarray, e_star: np.ndarray) -> DualState:
    """Weighted projected subgradient step on the dual prices.

    g = -x_exposure + e_star; the proximal step under the weighted norm has
    the closed form mu - eta*g/weight, clipped to the feasible mu >= -lam.
    """
    mu_new = _dual_step(dual.mu, dual.eta, -dual.lam, dual.weight,
                        np.asarray(x_exposure, dtype=float), np.asarray(e_star, dtype=float))
    return replace(dual, mu=mu_new)


def run_interval(requests: Sequence[UserRequest], plan: IntervalPlan, cfg: RerankConfig,
                 catalog: Catalog, rhat_n: float, lam: np.ndarray | None = None,
                 mu0: np.ndarray | None = None, trace_hook=None):
    """Serve one interval's arrivals in order.

    Dual prices start at zero, or at ``mu0`` (projected onto mu >= -lambda)
    when given. After each list the ledger and the unearned remainder
    ``beta`` are updated, then the price step runs against the conjugate
    maximizer for the remainder ``max(beta, 0)``, so pressure on a provider
    fades once its floor is met.

    ``trace_hook(t, request, items, mu)`` is called per arrival with the
    list's item ids and the prices that selected it, for replay debugging.

    Returns (lists, ledger, final dual state); ``lists`` is an int64 array
    of shape (len(requests), K) whose row t - 1 holds arrival t's K distinct
    item ids in rank order.
    """
    k = cfg.list_size
    if rhat_n <= 0:
        raise ConfigError("predicted traffic for the interval must be positive")
    if catalog.num_items < k:
        raise ConfigError(f"need at least {k} items, catalog has {catalog.num_items}")
    lam = compute_penalties(catalog, cfg.beta_mix) if lam is None else np.asarray(lam, float)
    gamma = compute_caps(catalog, k, rhat_n)
    dual = DualState.initial(lam, gamma, cfg.step_size(rhat_n))
    if mu0 is not None:
        dual = replace(dual, mu=np.maximum(np.asarray(mu0, dtype=float), -lam))

    # The loop runs on plain arrays through the same helpers as the public
    # select_list / conjugate_argmax / dual_step; DualState is validated once
    # here and once on return. The projection keeps mu >= -lam at every step.
    mu, eta, weight = dual.mu, dual.eta, dual.weight
    neg_lam = -dual.lam
    beta = np.asarray(plan.min_exposure, dtype=float).copy()
    earned = np.zeros(catalog.num_providers, dtype=np.int64)
    lists = np.empty((len(requests), k), dtype=np.int64)
    for t, req in enumerate(requests, start=1):
        items = _adjusted_top_k(np.asarray(req.relevance, dtype=float), mu,
                                catalog.item_provider, rhat_n, k)
        if trace_hook is not None:
            trace_hook(t, req, items, mu)
        exposure = catalog.exposure_of(items)
        earned += exposure
        beta -= exposure
        e_star = _conjugate_argmax(mu, gamma, np.maximum(beta, 0.0))
        mu = _dual_step(mu, eta, neg_lam, weight, exposure, e_star)
        lists[t - 1] = items

    return lists, ExposureLedger(earned=earned, beta_remaining=beta), replace(dual, mu=mu)
