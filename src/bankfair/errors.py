"""Exception types shared across the package, and the config field rules.

A rule is a pair (what the value must be, predicate). Predicates never
raise on a value of the wrong type and never count a bool as a number;
numpy scalars count as numbers. ``check`` turns a failed rule into one
message form: "<key> must be <what>, got <value!r>".

NONNEGATIVE and POSITIVE bound a value by ``MAX_MAGNITUDE``, under which no
later product of config values overflows (see there).
"""

import os
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


def not_utf8(path, exc: UnicodeDecodeError) -> ParseError:
    """The ParseError for a file whose bytes do not decode as UTF-8."""
    return ParseError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: "
                      f"{exc.reason})")


def _number(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool)


def _int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _list(v) -> bool:
    return isinstance(v, (list, tuple)) or isinstance(v, np.ndarray) and v.ndim > 0


def number_in(low, high):
    return (f"a number in [{low}, {high}]", lambda v: _number(v) and low <= v <= high)


def list_of(what: str, rule, size: int | None = None):
    """Every entry passes ``rule``; with ``size``, exactly that many entries."""
    return (f"a list of {what}", lambda v: _list(v) and size in (None, len(v))
            and all(map(rule[1], v)))


def either(value, rule):
    """``value`` itself (None, or a string such as "even"), or what ``rule`` passes."""
    return (f"{value!r} or {rule[0]}",
            lambda v: type(v) is type(value) and v == value or rule[1](v))


# Real config values are at most 2**53, within which float64 holds every
# integer exactly, and tau is at least 2**-53. Over P providers, lists of K
# items, H intervals and N arrivals, the floor sum is then <= P 2**53,
# P K traffic_total <= P K (H 2**53 + N), each claim <= 2**54 (no forecast
# exceeds the traffic total), each cap K rhat_n <= K max(2**53, N) and each
# resampling logit <= 2**53. A dual step moves a price by at most
# eta max(gamma, K), so |prices| <= lam + N K 2**53 max(2**53, N). All stay far
# inside the float range, so no later stage checks for overflow; test_cli.py's
# test_every_value_at_the_bound_runs_cleanly runs each value at its bound.
# A synthetic spec's integer sizes and counts are bounded the same way. Its
# arrivals are not: 10 000 intervals of 2**53 each sum past int64. So N is
# counted as a Python int, and an instance matrix of N rows past sys.maxsize
# bytes is a MemoryError; every N that reaches a run is below 2**60.
MAX_MAGNITUDE = 2**53


def _bounded(low):
    """A number in [low, MAX_MAGNITUDE]; a numpy float compares as a Python float,
    since a float16 cannot hold the bound."""
    return lambda v: _number(v) and low <= (
        float(v) if isinstance(v, np.floating) else v) <= MAX_MAGNITUDE


NUMBER = ("a number", _number)
INT = ("an int", _int)
NONNEGATIVE_INT = ("an int >= 0", lambda v: _int(v) and v >= 0)
POSITIVE_INT = ("an int >= 1", lambda v: _int(v) and v >= 1)
NONNEGATIVE = ("a number in [0, 2**53]", _bounded(0))
POSITIVE = ("a number in [2**-53, 2**53]", _bounded(1 / MAX_MAGNITUDE))
UNIT = number_in(0, 1)
NONEMPTY_LIST = ("a nonempty list", lambda v: _list(v) and len(v) > 0)
PATH = ("a nonempty string or path",
        lambda v: isinstance(v, os.PathLike) or isinstance(v, str) and v != "")


def check(key: str, value, rule):
    """``value`` if it passes ``rule``, else a ConfigError naming ``key``."""
    what, ok = rule
    if not ok(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return value
