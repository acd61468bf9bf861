"""Sequential allocation of exposure floors across intervals.

The remaining exposure requirement of a provider is treated as an estate to
be divided among the remaining intervals, whose claims are the (scaled)
predicted traffic. The talmud rule of Aumann and Maschler does the division
in closed form, for every provider at once because all providers share the
same claims; naive and prop are simpler baseline rules sharing the same
interface. Each plan carries a per-provider audit of estate, claim, award
and theta arrays.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleAllocationError

logger = logging.getLogger(__name__)

RULES = ("talmud", "naive", "prop", "none")
AUDIT_COLUMNS = ("estate", "claim", "award", "theta")

_REL_TOL = 1e-9


@dataclass(frozen=True)
class BankruptcyInstance:
    """Estates to divide among claimants whose claims exceed them.

    ``estate`` is a scalar, or a vector of estates that share the claims.
    """

    claims: np.ndarray
    estate: float | np.ndarray

    def __post_init__(self):
        claims = np.asarray(self.claims, dtype=float)
        if claims.ndim != 1 or claims.size == 0:
            raise ConfigError("claims must be a nonempty vector")
        if not np.isfinite(claims).all() or (claims < 0).any():
            raise ConfigError("claims must be finite and nonnegative")
        total = float(claims.sum())
        estate = np.asarray(self.estate, dtype=float)
        if estate.ndim > 1:
            raise ConfigError("estate must be a scalar or a vector")
        if not np.isfinite(estate).all() or (estate < 0).any():
            raise ConfigError("estate must be finite and nonnegative")
        if (estate > total * (1 + _REL_TOL) + _REL_TOL).any():
            raise InfeasibleAllocationError(
                f"estate {estate.max()} exceeds total claims {total}; clamp before allocating")
        estate = np.minimum(estate, total)
        object.__setattr__(self, "claims", claims)
        object.__setattr__(self, "estate", float(estate) if estate.ndim == 0 else estate)


@dataclass(frozen=True)
class AllocationResult:
    """Awards and theta: one row and one value per estate of the instance."""

    awards: np.ndarray
    theta: float | np.ndarray


@dataclass(frozen=True)
class IntervalPlan:
    """Per-provider exposure floor for the current interval.

    ``audit`` maps each of AUDIT_COLUMNS to a per-provider array; theta is
    nan under the rules other than talmud.
    """

    min_exposure: np.ndarray
    audit: dict[str, np.ndarray] = field(default_factory=dict)


def talmud(instance: BankruptcyInstance) -> AllocationResult:
    """Divide each estate by the talmud rule.

    With half-claims h, each claimant receives min(h, theta) when the estate
    is at most half the total claims, and claim - min(h, theta) otherwise. In
    both branches theta solves sum(min(h, theta)) = min(E, total - E). That
    sum is piecewise linear in theta with kinks at the sorted half-claims, so
    one sort and a cumulative sum locate each estate's segment and theta
    follows exactly.
    """
    d = instance.claims
    estate = np.asarray(instance.estate)
    total = float(d.sum())
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
    return AllocationResult(awards, float(theta) if theta.ndim == 0 else theta)


def update_remaining(prev_remaining: np.ndarray, earned_last: np.ndarray) -> np.ndarray:
    """Remaining requirement after an interval: [previous - earned]_+ ."""
    prev = np.asarray(prev_remaining, dtype=float)
    earned = np.asarray(earned_last, dtype=float)
    if (prev < 0).any() or (earned < 0).any():
        logger.warning("negative remaining/earned values clamped to zero")
        prev = np.maximum(prev, 0.0)
        earned = np.maximum(earned, 0.0)
    return np.maximum(prev - earned, 0.0)


def predict_demands(forecast: np.ndarray, alpha: float, list_size: int) -> np.ndarray:
    """Per-interval exposure claims: alpha * K * predicted traffic."""
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    fc = np.asarray(forecast, dtype=float)
    if (fc < 0).any():
        raise ConfigError("forecast traffic must be nonnegative")
    return alpha * list_size * fc


def plan_interval(rule: str, remaining: np.ndarray, claims: np.ndarray,
                  forecast: np.ndarray, interval: int = 0) -> IntervalPlan:
    """Exposure floor for the current interval under the chosen rule.

    ``remaining`` is per-provider; ``claims`` and ``forecast`` cover the
    current through final interval (claims are shared by all providers).
    talmud: allocate each provider's remaining requirement over the coming
    intervals and keep the first slice. naive: half the remaining requirement
    when this interval's forecast is at or above the mean of the coming
    forecasts, else nothing. prop: the current interval's share of the coming
    forecast traffic. none: no floor.
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
        for p in np.flatnonzero(remaining > total_claims):
            if total_claims <= 0:
                raise InfeasibleAllocationError(
                    f"provider {p}: remaining requirement {remaining[p]} but zero total claims",
                    provider=int(p), interval=interval)
            logger.warning(
                "provider %d: estate %.3f exceeds total claims %.3f; clamping, "
                "surplus stays in the remaining requirement", p, remaining[p], total_claims)
        estate = np.minimum(remaining, total_claims)
        res = talmud(BankruptcyInstance(claims, estate))
        plan, claim, theta = res.awards[:, 0], claims[0], res.theta
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

    columns = np.broadcast_arrays(estate, claim, plan, theta)
    return IntervalPlan(plan, dict(zip(AUDIT_COLUMNS, columns)))
