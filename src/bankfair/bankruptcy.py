"""Sequential allocation of exposure floors across intervals.

The remaining exposure requirement of a provider is treated as an estate to
be divided among the remaining intervals, whose claims are the (scaled)
predicted traffic. ``talmud(claims, estate)`` does the division by the rule
of Aumann and Maschler in closed form, for every provider's estate at once,
awarding only the first claimant, this interval; naive and prop are simpler
baseline rules. ``plan_interval`` returns the interval's audit: a dict of
per-provider estate, claim, award and theta arrays (AUDIT_COLUMNS), whose
``award`` column is the interval's exposure floor.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import ConfigError, InfeasibleAllocationError

logger = logging.getLogger(__name__)

RULES = ("talmud", "naive", "prop", "none")
AUDIT_COLUMNS = ("estate", "claim", "award", "theta")

_REL_TOL = 1e-9


def talmud(claims: np.ndarray,
           estate: float | np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Divide each estate among the claimants by the talmud rule.

    ``claims`` is a nonempty vector of finite nonnegative claims; ``estate``
    is a scalar, or a vector of estates that share the claims. An estate
    above the total claims by more than 1e-9 (relative, plus 1e-9 absolute)
    raises InfeasibleAllocationError; within that slack it is clamped to the
    total.

    Returns (awards, theta): each claimant's award and a float theta for a
    scalar estate, or each estate's award to the first claimant and its theta.

    With half-claims h, each claimant receives min(h, theta) when the estate
    is at most half the total claims, and claim - min(h, theta) otherwise. In
    both branches theta solves sum(min(h, theta)) = min(E, total - E). That
    sum is piecewise linear in theta with kinks at the sorted half-claims, so
    one sort and a cumulative sum locate each estate's segment and theta
    follows exactly.
    """
    d = np.asarray(claims, dtype=float)
    if d.ndim != 1 or d.size == 0:
        raise ConfigError("claims must be a nonempty vector")
    # A NaN makes min and max NaN, which fails both comparisons.
    if not (d.min() >= 0 and d.max() < math.inf):
        raise ConfigError("claims must be finite and nonnegative")
    total = float(d.sum())
    estate = np.asarray(estate, dtype=float)
    if estate.ndim > 1:
        raise ConfigError("estate must be a scalar or a vector")
    largest = estate.max(initial=0.0)  # 0.0 keeps an empty vector of estates valid
    if not (estate.min(initial=0.0) >= 0 and largest < math.inf):
        raise ConfigError("estate must be finite and nonnegative")
    if largest > total * (1 + _REL_TOL) + _REL_TOL:
        raise InfeasibleAllocationError(
            f"estate {largest} exceeds total claims {total}; clamp before allocating")
    if largest > total:  # within the slack
        estate = np.minimum(estate, total)

    half = 0.5 * d
    h = np.sort(half)
    below = np.empty(h.size)  # sum of the half-claims before each kink
    below[0] = 0.0
    np.cumsum(h[:-1], out=below[1:])
    flat = np.arange(h.size, 0, -1)  # claimants still at theta past each kink
    # The sum when theta reaches each kink. Tied half-claims can round it a
    # hair out of order; searchsorted needs it sorted to give every estate
    # the same segment whether it comes alone or in a vector.
    at_kink = np.maximum.accumulate(below + flat * h)
    target = np.minimum(estate, total - estate)
    seg = np.searchsorted(at_kink[:-1], target)  # a target past every kink: the last segment
    theta = (target - below[seg]) / flat[seg]
    c = d if estate.ndim == 0 else d[0]  # a vector of estates: the first claimant's award each
    low = np.minimum(0.5 * c, theta)
    awards = np.where(estate > 0.5 * total, c - low, low)
    return awards, float(theta) if theta.ndim == 0 else theta


def plan_interval(rule: str, remaining: np.ndarray, claims: np.ndarray,
                  forecast: np.ndarray, interval: int = 0) -> dict[str, np.ndarray]:
    """The current interval's audit under the chosen rule.

    ``remaining`` is per-provider; ``claims`` and ``forecast`` cover the
    current through final interval (claims are shared by all providers).
    talmud: allocate each provider's remaining requirement over the coming
    intervals and keep the first slice. naive: half the remaining requirement
    when this interval's forecast is at or above the mean of the coming
    forecasts, else nothing. prop: the current interval's share of the coming
    forecast traffic. none: no floor. Only talmud reads ``claims``; it clamps
    each estate to their total. Estates above the total by more than the
    slack ``talmud`` accepts are logged in one warning per interval, which
    names the interval, their count and their providers; against zero total
    claims the first of them is an InfeasibleAllocationError.

    Returns a dict mapping each of AUDIT_COLUMNS to a per-provider array:
    the estate divided, this interval's claim, the award, which is the
    interval's exposure floor, and theta (nan under the rules other than
    talmud).
    """
    remaining = np.array(remaining, dtype=float)  # a copy: the audit keeps it
    claims = np.asarray(claims, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    if rule not in RULES:
        raise ConfigError(f"unknown allocation rule {rule!r}")
    nprov = remaining.size
    estate, claim, theta = remaining, 0.0, math.nan

    if rule == "none":
        plan = np.zeros(nprov)
    elif rule == "talmud":
        total_claims = float(claims.sum())
        # Beyond the slack talmud accepts: within it the clamp only rounds.
        over = np.flatnonzero(remaining > total_claims * (1 + _REL_TOL) + _REL_TOL)
        if over.size:
            if total_claims <= 0:
                p = int(over[0])
                raise InfeasibleAllocationError(
                    f"provider {p}: remaining requirement {remaining[p]} but zero total claims "
                    f"in interval {interval}",
                    provider=p, interval=interval)
            logger.warning(
                "interval %d: %d estates exceed total claims %.3f; clamping, the surplus "
                "stays in the remaining requirement of providers %s",
                interval, over.size, total_claims, over.tolist())
        estate = np.minimum(remaining, total_claims)
        plan, theta = talmud(claims, estate)
        claim = claims[0]
    elif rule == "naive":
        claim = remaining / 2.0
        # forecast[0] >= forecast.mean(), exactly for the flat and integer
        # forecasts that every forecaster gives: a mean can round above them.
        plan = claim if (forecast[0] - forecast).sum() >= 0 else np.zeros(nprov)
    else:  # prop
        total_fc = float(forecast.sum())
        if total_fc <= 0:
            logger.warning("prop rule with zero total forecast; planning no exposure")
            share = 0.0
        else:
            share = float(forecast[0]) / total_fc
        plan = share * remaining
        claim = plan

    return {name: np.full(nprov, value) if np.ndim(value) == 0 else value
            for name, value in zip(AUDIT_COLUMNS, (estate, claim, plan, theta))}
