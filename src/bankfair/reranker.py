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


# Most relevance values that run_interval divides by the forecast in one
# call: a block of max(_BLOCK_VALUES // I, 1) arrivals' rows of I items is
# gathered and divided once, instead of one division per arrival (27 rows
# on replay_log's 300 items, 14 on long_tail's 580). A row of more items is
# divided alone from its matrix view: gathering it first, a copy of the
# whole row, measured slower on wide_catalog's 10 000 items.
_BLOCK_VALUES = 8192

# The zero that conjugate_argmax compares and clips against, as a float64
# array: a Python float operand is converted on every ufunc call, which took
# about 0.2 us of each of the two calls per arrival on replay_log's 30
# providers. Read-only, since every call shares it.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


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
        if isinstance(k, bool):  # numpy would take True as 1
            raise TypeError
        part.partition(n - k)
    except (TypeError, ValueError):  # k not an int, or k <= 0 putting kth past the end
        raise ConfigError(f"k must be an int >= 1, got {k!r}") from None
    # In descending id order, an ascending stable sort by (score, tiebreak)
    # read backwards is the (-score, -tiebreak, id) order.
    candidates = (scores >= part[n - k]).nonzero()[0][::-1]
    order = np.lexsort((tiebreak[candidates], scores[candidates]))[:-k - 1:-1]
    return candidates[order]


def select_list(scores: np.ndarray, relevance: np.ndarray, mu: np.ndarray,
                catalog: Catalog, k: int) -> np.ndarray:
    """Top-K item ids by price-adjusted score scores - catalog.item_prices(mu).

    ``scores`` are an arrival's traffic-scaled scores, its relevance row
    divided by the interval's traffic forecast, ``relevance / rhat_n``, and
    ``relevance`` is that raw row, which breaks ties. ``run_interval``
    divides a block of arrivals' rows at once and passes one row of each.
    ``mu`` holds one dual price per provider of ``catalog``, whose layout
    picks how the item prices are built. Ties break toward higher raw
    relevance, then the lower item id, which makes replays deterministic.
    The greedy prefix of this ordering is the exact maximizer of the summed
    adjusted score over all K-subsets. The list is ``top_k`` of the adjusted
    scores with the relevance as tie-break.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size != catalog.num_items:
        raise ConfigError(f"{scores.size} relevance scores for {catalog.num_items} items")
    prices = catalog.item_prices(mu)
    return top_k(np.subtract(scores, prices, out=prices), k, relevance)


def conjugate_argmax(mu: np.ndarray, gamma: np.ndarray, m: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Exposure maximizing the penalty conjugate at prices ``mu``.

    Per provider the objective -lam*[m - E]_+ + mu*E over E in [0, gamma] is
    piecewise linear, so the maximizer sits at gamma when mu >= 0 and at
    clip(m, 0, gamma) when mu < 0 (on mu >= -lam the kink at m always beats
    0, and a floor already met, m <= 0, takes 0). ``out`` may alias ``m``.
    """
    out = np.maximum(m, _ZERO, out=out)
    np.minimum(out, gamma, out=out)
    np.copyto(out, gamma, where=mu >= _ZERO)
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

    The rows are divided by ``rhat_n`` a block at a time (``_BLOCK_VALUES``)
    and each arrival's row of the quotient goes to ``select_list``.
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
    eta = np.full(nprov, float(cfg.eta))
    rhat_n = float(rhat_n)
    per_block = max(_BLOCK_VALUES // catalog.num_items, 1)

    # Each step writes into these buffers; dual_step writes arrival t's new
    # prices into row t + 1. Beyond list selection an arrival makes only
    # K- or P-long arrays: the list's providers and exposure, the
    # conjugate's mask and dual_step's -lam. Exposure is counted in float64
    # (exact below 2**53), so that no step mixes dtypes. The harness's floor
    # is a strided column of the plan's award matrix: a contiguous copy made
    # once halves each arrival's subtract from it (0.72 against 0.37 us).
    relevance = np.asarray(relevance, dtype=float)
    floor = np.ascontiguousarray(floor, dtype=float)
    rows = np.asarray(rows)
    n = len(rows)
    lists = np.empty((n, k), dtype=np.int64)
    prices = np.empty((n + 1, nprov))
    prices[0] = 0.0
    ones = np.ones(k)
    earned = np.zeros(nprov)
    e_star = np.empty(nprov)
    for t, row in enumerate(rows.tolist()):
        j = t % per_block
        if j == 0:  # the next block of rows, divided by the forecast at once
            if per_block > 1:
                raw = relevance.take(rows[t:t + per_block], axis=0)
            else:
                raw = relevance[row, None]  # a (1, I) view of the row
            scaled = raw / rhat_n
        mu = prices[t]
        items = select_list(scaled[j], raw[j], mu, catalog, k)
        lists[t] = items
        exposure = np.bincount(item_provider[items], ones, nprov)
        earned += exposure
        np.subtract(floor, earned, out=e_star)
        conjugate_argmax(mu, gamma, e_star, out=e_star)
        dual_step(mu, eta, lam, exposure, e_star, out=prices[t + 1])
    return lists, earned.astype(np.int64), prices[:n]
