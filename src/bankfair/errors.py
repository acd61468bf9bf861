"""Exception types shared across the package, and the config field rules.

A rule is a pair (what the value must be, predicate). Predicates never
raise on a value of the wrong type and never count a bool as a number;
numpy scalars count as numbers. ``check`` turns a failed rule into one
message form: "<key> must be <what>, got <value!r>".
"""

import math
import sys
from numbers import Integral, Real

import numpy as np


class BankfairError(Exception):
    """Base class for all package errors."""


class ConfigError(BankfairError):
    """Invalid configuration or unknown option value."""


class ParseError(BankfairError):
    """Malformed input file; message carries the offending row number."""


class ConsistencyError(BankfairError):
    """Input data contradicts itself (e.g. one item under two providers)."""


class InfeasibleAllocationError(BankfairError):
    """An allocation instance cannot be satisfied.

    Carries the provider index and interval (1-based) when raised from the
    interval loop, so callers can report exactly where a run broke down.
    """

    def __init__(self, message, provider=None, interval=None):
        super().__init__(message)
        self.provider = provider
        self.interval = interval


def _number(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool)


def _int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _finite(v) -> bool:
    if _int(v):  # math.isfinite raises on an int past the float range
        return abs(v) <= sys.float_info.max
    return _number(v) and math.isfinite(v)


def _list(v) -> bool:
    return isinstance(v, (list, tuple)) or isinstance(v, np.ndarray) and v.ndim > 0


def number_in(low, high):
    return (f"a number in [{low}, {high}]", lambda v: _number(v) and low <= v <= high)


def list_of(what: str, rule, size: int | None = None):
    """Every entry passes ``rule``; with ``size``, exactly that many entries."""
    return (f"a list of {what}", lambda v: _list(v) and size in (None, len(v))
            and all(map(rule[1], v)))


def either(value, rule):
    """``value`` itself (None, or a string such as "auto"), or what ``rule`` passes."""
    return (f"{value!r} or {rule[0]}",
            lambda v: type(v) is type(value) and v == value or rule[1](v))


NUMBER = ("a number", _number)
INT = ("an int", _int)
NONNEGATIVE_INT = ("an int >= 0", lambda v: _int(v) and v >= 0)
POSITIVE_INT = ("an int >= 1", lambda v: _int(v) and v >= 1)
NONNEGATIVE = ("a finite number >= 0", lambda v: _finite(v) and v >= 0)
POSITIVE = ("a finite number > 0", lambda v: _finite(v) and v > 0)
ABOVE_ZERO = ("a number > 0", lambda v: _number(v) and v > 0)
UNIT = number_in(0, 1)
NONEMPTY_LIST = ("a nonempty list", lambda v: _list(v) and len(v) > 0)


def check(key: str, value, rule):
    """``value`` if it passes ``rule``, else a ConfigError naming ``key``."""
    what, ok = rule
    if not ok(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value
