"""Pluggable traffic predictors for the remaining horizon.

These deliberately stay simple and deterministic; any of them can be swapped
for a learned model behind the same call signature.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import NONNEGATIVE, POSITIVE_INT, ConfigError, check

logger = logging.getLogger(__name__)

# The parameters each forecaster takes: name -> the rule its value must pass.
# seasonal takes moving_average's window too, for its short-history fallback.
PARAMS = {
    "moving_average": {"w": POSITIVE_INT, "prior_mean": NONNEGATIVE},
    "seasonal": {"lag": POSITIVE_INT, "w": POSITIVE_INT, "prior_mean": NONNEGATIVE},
    "oracle": {},
}


def check_params(method: str, params: dict):
    """ConfigError naming the key unless ``method`` takes every one of ``params``."""
    if method not in PARAMS:
        raise ConfigError(f"unknown forecaster {method!r}")
    accepted = PARAMS[method]
    for key, value in params.items():
        if key not in accepted:
            raise ConfigError(f"forecaster {method!r}: unknown parameter {key!r}; "
                              f"accepted: {', '.join(accepted) or 'none'}")
        check(f"forecaster {method!r}: parameter {key!r}", value, accepted[key])


@dataclass(frozen=True)
class Forecast:
    """Predicted traffic for the current through final interval."""

    horizon_values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.horizon_values, dtype=float)
        if v.ndim != 1 or v.size == 0 or (v < 0).any():
            raise ConfigError("forecast values must be a nonempty nonnegative vector")
        object.__setattr__(self, "horizon_values", v)


def forecast_traffic(history, horizon: int, method: str, params: dict | None = None,
                     future=None) -> Forecast:
    """Predict the next ``horizon`` interval counts from observed history.

    moving_average repeats the mean of the last ``w`` observations (with
    ``w`` = 1, the latest one); seasonal tiles the last ``lag``
    observations; oracle returns the true future counts (simulator-only, the
    zero-error upper bound). With no history yet, the configured
    ``prior_mean`` is used. ``params`` must pass ``check_params``.
    """
    params = dict(params or {})
    check_params(method, params)
    history = np.asarray(history, dtype=float)
    if horizon < 1:
        raise ConfigError("forecast horizon must be >= 1")

    if method == "oracle":
        if future is None:
            raise ConfigError("oracle forecaster needs the true future counts")
        values = np.asarray(future, dtype=float)
        if values.size != horizon:
            raise ConfigError("oracle future length must equal the horizon")
        return Forecast(values)

    prior_mean = float(params.get("prior_mean", 1.0))
    if history.size == 0:
        return Forecast(np.full(horizon, prior_mean))

    if method == "seasonal":
        lag = params.get("lag", 7)
        if history.size >= lag:
            values = np.tile(history[-lag:], horizon // lag + 1)[:horizon]
            return Forecast(np.maximum(values, 0.0))
        logger.warning("seasonal lag %d exceeds history length %d; "
                       "falling back to moving_average", lag, history.size)

    level = float(history[-params.get("w", 3):].mean())  # moving_average
    return Forecast(np.full(horizon, max(level, 0.0)))
