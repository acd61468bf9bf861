"""Sequential allocation of exposure floors across intervals.

The remaining exposure requirement of a provider is treated as an estate to
be divided among the remaining intervals, whose claims are the (scaled)
predicted traffic. ``talmud(claims, estate)`` does the division by the rule
of Aumann and Maschler in closed form, for a vector of estates at once
because all providers share the same claims; naive and prop are simpler
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

    Returns (awards, theta): one award row and one theta per estate, or one
    award vector and a float theta for a scalar estate.

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
    if not np.isfinite(d).all() or (d < 0).any():
        raise ConfigError("claims must be finite and nonnegative")
    total = float(d.sum())
    estate = np.asarray(estate, dtype=float)
    if estate.ndim > 1:
        raise ConfigError("estate must be a scalar or a vector")
    if not np.isfinite(estate).all() or (estate < 0).any():
        raise ConfigError("estate must be finite and nonnegative")
    if (estate > total * (1 + _REL_TOL) + _REL_TOL).any():
        raise InfeasibleAllocationError(
            f"estate {estate.max()} exceeds total claims {total}; clamp before allocating")
    estate = np.minimum(estate, total)

    half = 0.5 * d
    h = np.sort(half)
    below = np.concatenate(([0.0], np.cumsum(h)[:-1]))  # sum of the half-claims before each kink
    flat = np.arange(h.size, 0, -1)                      # claimants still at theta past each kink
    # The sum when theta reaches each kink. Tied half-claims can round it a
    # hair out of order; searchsorted needs it sorted to give every estate
    # the same segment whether it comes alone or in a vector.
    at_kink = np.maximum.accumulate(below + flat * h)
    target = np.minimum(estate, total - estate)
    seg = np.minimum(np.searchsorted(at_kink, target), h.size - 1)
    theta = (target - below[seg]) / flat[seg]
    low = np.minimum(half, theta[..., None])
    awards = np.where((estate <= 0.5 * total)[..., None], low, d - low)
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
    each estate to their total, and an estate above the total by more than
    the slack ``talmud`` accepts is logged, or, against zero total claims,
    an InfeasibleAllocationError.

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
        for p in np.flatnonzero(remaining > total_claims * (1 + _REL_TOL) + _REL_TOL):
            if total_claims <= 0:
                raise InfeasibleAllocationError(
                    f"provider {p}: remaining requirement {remaining[p]} but zero total claims",
                    provider=int(p), interval=interval)
            logger.warning(
                "provider %d: estate %.3f exceeds total claims %.3f; clamping, "
                "surplus stays in the remaining requirement", p, remaining[p], total_claims)
        estate = np.minimum(remaining, total_claims)
        awards, theta = talmud(claims, estate)
        plan, claim = awards[:, 0], claims[0]
    elif rule == "naive":
        claim = remaining / 2.0
        plan = claim if forecast[0] >= forecast.mean() else np.zeros(nprov)
    else:  # prop
        total_fc = float(forecast.sum())
        if total_fc <= 0:
            logger.warning("prop rule with zero total forecast; planning no exposure")
            share = 0.0
        else:
            share = float(forecast[0]) / total_fc
        plan = share * remaining
        claim = plan

    return dict(zip(AUDIT_COLUMNS, np.broadcast_arrays(estate, claim, plan, theta)))
