"""Pluggable traffic predictors for the remaining horizon.

These deliberately stay simple and deterministic; any of them can be swapped
for a learned model behind the same call signature.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

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


class Forecast(NamedTuple):
    """Predicted traffic for the current through final interval."""

    horizon_values: np.ndarray


def forecast_traffic(history, horizon: int, method: str, params: dict | None = None,
                     future=None) -> Forecast:
    """Predict the next ``horizon`` interval counts from observed history.

    moving_average repeats the mean of the last ``w`` observations (with
    ``w`` = 1, the latest one); seasonal tiles the last ``lag``
    observations; oracle returns the true future counts ``future``, a
    vector of ``horizon`` finite counts >= 0 that the other methods ignore
    (simulator-only, the zero-error upper bound). With no history yet, the
    configured ``prior_mean`` is used. ``history`` must be a 1-D vector of
    finite nonnegative counts, and ``params`` must pass ``check_params``.
    """
    params = dict(params or {})
    check_params(method, params)
    history = np.asarray(history, dtype=float)
    # NaN fails both comparisons.
    if history.ndim != 1 or not ((history >= 0.0) & (history < np.inf)).all():
        raise ConfigError("forecast history must be a vector of finite counts >= 0")
    if horizon < 1:
        raise ConfigError("forecast horizon must be >= 1")

    if method == "oracle":
        values = np.asarray(future, dtype=float)  # None reads as a NaN scalar
        if values.shape != (horizon,) or not ((values >= 0.0) & (values < np.inf)).all():
            raise ConfigError("oracle future must be a vector of finite counts >= 0 of the "
                              f"horizon's length {horizon}")
        return Forecast(values)

    prior_mean = float(params.get("prior_mean", 1.0))
    if history.size == 0:
        return Forecast(np.full(horizon, prior_mean))

    if method == "seasonal":
        lag = params.get("lag", 7)
        if history.size >= lag:
            return Forecast(np.tile(history[-lag:], horizon // lag + 1)[:horizon])
        logger.warning("seasonal lag %d exceeds history length %d; "
                       "falling back to moving_average", lag, history.size)

    level = float(history[-params.get("w", 3):].mean())  # moving_average
    return Forecast(np.full(horizon, level))
