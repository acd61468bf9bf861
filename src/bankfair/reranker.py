"""Online per-user re-ranking under per-interval exposure floors.

Each arriving user's top-K list maximizes relevance adjusted by per-provider
dual prices; the prices are then updated by a projected subgradient step that
compares the list's realized exposure against the price-optimal exposure of
the penalty conjugate. Prices live in {mu >= -lambda}, so a provider's boost
can never exceed its violation penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Catalog
from .errors import NONNEGATIVE, POSITIVE_INT, UNIT, ConfigError, check, number_in


# Fewest items at which select_list builds its price vector by expanding the
# P provider prices over the catalog's provider runs, ``mu.repeat(inventory)``,
# instead of gathering one price per item, ``mu.take(item_provider)``. Both
# give the same bytes. Timed on 700 captured select_list calls of wide_catalog
# traffic with 100 providers (min of 21 alternated passes, one core of a
# 2-vCPU Xeon), price vector alone: 9.6 against 4.0 us per arrival at 10 000
# items, 2.2 against 1.4 at 2000, 1.3 against 0.9 at 1000, 1.25 both at 340.
# Whole select_list: -10% at 10 000 items, -5% at 2000, within noise at 1000
# and below. In runs of 3 (600 items, 200 providers) the expansion is slower,
# 1.85 against 1.68 us.
_RUN_MIN_ITEMS = 2048


@dataclass
class RerankConfig:
    """Knobs of the online re-ranker."""

    eta: float  # dual step size; none fits every traffic (README, "Choosing the step size")
    list_size: int = 10
    alpha_k: float = 1.5  # claim scaling factor, sensible range [1, 2]
    beta_mix: float = 0.5  # penalty emphasis on small-inventory providers

    def __post_init__(self):
        check("list_size", self.list_size, POSITIVE_INT)
        check("alpha_k", self.alpha_k, number_in(1, 2))
        check("beta_mix", self.beta_mix, UNIT)
        check("eta", self.eta, NONNEGATIVE)


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
    ``tiebreak`` has the shape of ``scores``, and k is an int >= 1.
    """
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    if n < k:
        raise ConfigError(f"need at least {k} items, catalog has {n}")
    tiebreak = scores if tiebreak is None else np.asarray(tiebreak)
    if tiebreak.shape != scores.shape:
        raise ConfigError(f"tiebreak shape {tiebreak.shape} differs from scores {scores.shape}")
    part = scores.copy()
    try:
        part.partition(n - k)
    except (TypeError, ValueError):  # k not an int, or k <= 0 putting kth past the end
        raise ConfigError(f"k must be an int >= 1, got {k!r}") from None
    # In descending id order, an ascending stable sort by (score, tiebreak)
    # read backwards is the (-score, -tiebreak, id) order.
    candidates = (scores >= part[n - k]).nonzero()[0][::-1]
    order = np.lexsort((tiebreak[candidates], scores[candidates]))[:-k - 1:-1]
    return candidates[order]


def price_runs(catalog: Catalog) -> np.ndarray | None:
    """``select_list``'s ``runs`` for ``catalog``: its inventory, or None to gather.

    The prices are expanded over provider runs when the catalog is listed by
    provider and has at least ``_RUN_MIN_ITEMS`` items; every other catalog
    gathers them item by item.
    """
    if catalog.by_provider and catalog.num_items >= _RUN_MIN_ITEMS:
        return catalog.inventory
    return None


def select_list(relevance: np.ndarray, mu: np.ndarray, item_provider: np.ndarray,
                rhat_n: float, k: int, runs: np.ndarray | None = None) -> np.ndarray:
    """Top-K item ids by price-adjusted score relevance/rhat_n - mu[item_provider].

    ``mu`` holds one dual price per provider and ``item_provider`` the
    provider index of each item, a catalog's map. An entry past the prices is
    a ConfigError; a negative one, which wraps, is not checked, since that
    would cost a pass per arrival. Ties break toward higher raw relevance,
    then the lower item id, which makes replays deterministic. The greedy prefix
    of this ordering is the exact maximizer of the summed adjusted score over
    all K-subsets. The list is ``top_k`` of the adjusted scores with the
    relevance as tie-break.

    ``runs``, when given, is one run length per provider of a nondecreasing
    ``item_provider`` (``price_runs`` of its catalog). The item prices are
    then ``mu.repeat(runs)``, the same bytes as the gather, built faster on a
    wide catalog.
    """
    relevance = np.asarray(relevance, dtype=float)
    if rhat_n <= 0:
        raise ConfigError("predicted traffic must be positive when selecting")
    scores = relevance / float(rhat_n)
    if runs is None:
        try:
            prices = mu.take(item_provider)
        except IndexError:
            raise ConfigError(f"item_provider entry past the {len(mu)} prices") from None
    elif len(runs) != len(mu):
        raise ConfigError(f"{len(runs)} provider runs for {len(mu)} prices")
    else:
        prices = mu.repeat(runs)
    if prices.size != scores.size:
        raise ConfigError(f"{prices.size} item prices for {scores.size} relevance scores")
    scores -= prices
    return top_k(scores, k, relevance)


def conjugate_argmax(mu: np.ndarray, gamma: np.ndarray, m: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Exposure maximizing the penalty conjugate at prices ``mu``.

    Per provider the objective -lam*[m - E]_+ + mu*E over E in [0, gamma] is
    piecewise linear, so the maximizer sits at gamma when mu >= 0 and at
    clip(m, 0, gamma) when mu < 0 (on mu >= -lam the kink at m always beats
    0, and a floor already met, m <= 0, takes 0). ``out`` may alias ``m``.
    """
    out = np.maximum(m, 0.0, out=out)
    np.minimum(out, gamma, out=out)
    np.copyto(out, gamma, where=mu >= 0.0)
    return out


def conjugate_value(mu: np.ndarray, gamma: np.ndarray, m: np.ndarray) -> float:
    """Closed-form conjugate value mu'm + sum (gamma - m) * max(mu, 0)."""
    return float(mu @ m + ((gamma - m) * np.maximum(mu, 0.0)).sum())


def dual_step(mu: np.ndarray, eta: float | np.ndarray, lam: np.ndarray, exposure: np.ndarray,
              e_star: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Projected subgradient step on the dual prices.

    g = e_star - exposure; the step mu - eta*g is clipped to the feasible
    region mu >= -lam. ``eta`` is a scalar or one step size per provider,
    and the new prices go to ``out`` when it is given.
    """
    step = np.subtract(e_star, exposure, out=out)
    step *= eta
    np.subtract(mu, step, out=step)
    return np.maximum(step, -lam, out=step)


def run_interval(relevance: np.ndarray, rows: np.ndarray, floor: np.ndarray,
                 cfg: RerankConfig, catalog: Catalog, rhat_n: float, lam: np.ndarray):
    """Serve one interval's arrivals in order against per-provider ``floor``.

    ``relevance`` is a block of dense relevance vectors, one per row, and
    ``rows`` holds one row index per arrival, in order: arrival t is served
    with ``relevance[rows[t]]``.

    Dual prices start at zero and stay in mu >= -lam. ``lam`` holds the
    violation penalties ``compute_penalties(catalog, cfg.beta_mix)``, which
    depend on nothing else, so a run computes them once for all its
    intervals. After each list its exposure is added to ``earned``, then
    ``dual_step`` runs against the conjugate maximizer for the unearned
    remainder ``floor - earned`` (a floor already met counts as 0), so
    pressure on a provider fades once its floor is met.
    Under the config's magnitude bound (``errors.MAX_MAGNITUDE``) no dual
    step can overflow the prices.

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
    gamma = compute_caps(catalog, k, rhat_n)
    nprov, item_provider = catalog.num_providers, catalog.item_provider
    runs = price_runs(catalog)
    eta = np.full(nprov, float(cfg.eta))

    # Each step writes into these buffers; dual_step writes arrival t's new
    # prices into row t + 1. Beyond list selection an arrival makes only
    # K- or P-long arrays: the list's providers and exposure, the
    # conjugate's mask and dual_step's -lam. Exposure is counted in float64
    # (exact below 2**53), so that no step mixes dtypes.
    rows = np.asarray(rows)
    n = len(rows)
    lists = np.empty((n, k), dtype=np.int64)
    prices = np.empty((n + 1, nprov))
    prices[0] = 0.0
    ones = np.ones(k)
    earned = np.zeros(nprov)
    e_star = np.empty(nprov)
    for t, row in enumerate(rows.tolist()):
        mu = prices[t]
        items = select_list(relevance[row], mu, item_provider, rhat_n, k, runs)
        lists[t] = items
        exposure = np.bincount(item_provider[items], ones, nprov)
        earned += exposure
        np.subtract(floor, earned, out=e_star)
        conjugate_argmax(mu, gamma, e_star, out=e_star)
        dual_step(mu, eta, lam, exposure, e_star, out=prices[t + 1])
    return lists, earned.astype(np.int64), prices[:n]
