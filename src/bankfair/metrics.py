"""Accuracy and fairness metrics plus the aggregated run report."""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError


@functools.cache
def _discounts(n: int) -> np.ndarray:
    """log2(rank + 1) for ranks 1..n, computed once per list length."""
    d = np.log2(np.arange(1, n + 1) + 1)
    d.flags.writeable = False
    return d


def dcg(gains: np.ndarray) -> float | np.ndarray:
    """Discounted cumulative gain of gains in rank order (1-based ranks, log2).

    ``gains`` is one list (1-D), which gives a float, or one list per row of
    a 2-D block, which gives one DCG per row. Each row sums exactly as it
    would alone: numpy sums a contiguous row in the same pairwise order.
    """
    gains = np.ascontiguousarray(gains, dtype=float)
    return (gains / _discounts(gains.shape[-1])).sum(axis=-1)


_DCG_CHUNK = 8192  # values per partitioned chunk: 64 KB of float64
# The sample that picks top_k_dcg's kernel: up to 64 rows spread over the
# block, and up to 256 values at the head of each.
_ZERO_SAMPLE_ROWS, _ZERO_SAMPLE_VALUES = 64, 256


def top_k_dcg(relevance: np.ndarray, k: int) -> np.ndarray:
    """DCG of each row's K largest values in descending order: NDCG denominators.

    ``relevance`` is an (n x I) block, one relevance vector per row; ties do
    not change the K largest values. Rows are taken in chunks of at most
    ``_DCG_CHUNK`` values (at least one row): a multi-MB temporary would raise
    glibc's mmap threshold and grow the heap (see domain._relevance_matrix).
    The chunks are sorted when most of a sample of the block is zeros, as a
    logged profile is, and partitioned otherwise: ``np.partition`` is
    several times slower than a sort on long runs of equal values, and
    faster on dense rows. One sample decides for the whole block, since a
    sample per chunk would cost a wide dense row a tenth of its partition.
    Either way the K largest values are the same. Each chunk's K largest
    values go negated into one (n x K) block, so that one in-place sort puts
    every row in descending order without a reversed copy; negated back, the
    block is scored by one ``dcg`` call, and each row's DCG is the one it
    would have alone.
    """
    n, items = relevance.shape
    if items < k:
        raise ConfigError(f"need at least {k} items, catalog has {items}")
    sample = relevance[::max(n // _ZERO_SAMPLE_ROWS, 1), :_ZERO_SAMPLE_VALUES]
    mostly_zeros = 2 * np.count_nonzero(sample) < sample.size
    kernel = np.sort if mostly_zeros else functools.partial(np.partition, kth=items - k)
    top = np.empty((n, k))
    step = max(_DCG_CHUNK // items, 1)
    for lo in range(0, n, step):
        np.negative(kernel(relevance[lo:lo + step], axis=1)[:, items - k:], out=top[lo:lo + step])
    top.sort(axis=1)
    return dcg(np.negative(top, out=top))


def ndcg_at_k(gains: np.ndarray, ideal_dcg: float | np.ndarray) -> float | np.ndarray:
    """DCG of re-ranked lists over the DCG of the plain top-K lists.

    ``gains`` holds a re-ranked list's relevance gains in rank order: one
    list (1-D) with a float ``ideal_dcg``, which gives a float, or an
    (n x K) block of lists with an (n,) vector of ideal DCGs, which gives n
    scores, each equal bit for bit to scoring its row alone. The ideal DCG
    is the DCG of the K largest relevance values in descending order
    (``top_k_dcg`` of a block), which callers compute once per vector. A
    zero-gain list against a zero ideal scores 1; a list with gain against a
    zero ideal is a ValueError.
    """
    num = dcg(gains)
    ideal = np.asarray(ideal_dcg, dtype=float)
    zero = ideal == 0.0
    if (zero & (num != 0.0)).any():
        raise ValueError("original list has zero gain but the re-ranked list does not")
    scores = np.divide(num, ideal, out=np.ones_like(num), where=~zero)
    return float(scores) if scores.ndim == 0 else scores


def vio_at_k(per_user_ndcg: Sequence[float], phi: float) -> float:
    """Fraction of users whose list accuracy falls strictly below phi."""
    if not 0.0 <= phi <= 1.0:
        raise ConfigError("phi must lie in [0, 1]")
    values = np.asarray(per_user_ndcg, dtype=float)
    if values.size == 0:
        raise ValueError("no users")
    return float(np.count_nonzero(values < phi) / values.size)


def esp_at_k(cumulative_exposure: np.ndarray, required: np.ndarray) -> float:
    """Fraction of providers whose cumulative exposure meets their floor."""
    exposure = np.asarray(cumulative_exposure, dtype=float)
    required = np.asarray(required, dtype=float)
    if exposure.shape != required.shape:
        raise ConfigError("exposure and requirement vectors must align")
    if exposure.size == 0:
        raise ValueError("no providers")
    return float(np.count_nonzero(exposure >= required) / exposure.size)


def feasible_region_ratio(plan: np.ndarray, traffic: float, list_size: int) -> float:
    """Share of the unconstrained exposure region surviving the floors.

    max(0, 1 - sum(plan) / (traffic * K)); a per-interval diagnostic of how
    much room the fairness floors leave.
    """
    budget = float(traffic) * list_size
    if budget <= 0:
        raise ConfigError("traffic * K must be positive")
    return max(0.0, 1.0 - float(np.asarray(plan, dtype=float).sum()) / budget)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their ranks."""
    ordered = np.sort(x)  # a value's ties sit between its two search positions
    return (np.searchsorted(ordered, x) + np.searchsorted(ordered, x, "right") + 1) / 2.0


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rho: the Pearson correlation of average ranks (nan if undefined)."""
    x, y = np.array([x, y], dtype=float)  # a ValueError if their lengths differ
    if x.size < 2 or (x == x[0]).all() or (y == y[0]).all():
        return float("nan")
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])


_JSON_FORMAT = dict(sort_keys=True, indent=2, default=np.generic.item)
_JSON_SLICE = 2048  # values of a flat number list per C-encoded piece


def _json_pieces(obj: dict):
    """``json.dumps(obj, **_JSON_FORMAT) + "\n"`` in pieces, for a nonempty dict with str keys.

    With ``indent`` json encodes in pure Python, one value at a time. A
    top-level list of Python floats and ints (no bools, no numpy scalars)
    is encoded instead in slices by the C encoder, whose numbers have the
    same reprs, and its ", " separators become the indented line breaks.
    Any other value is encoded with ``_JSON_FORMAT`` and indented one more
    level: a string's newlines are escaped, so every raw newline is one of
    the encoder's own.
    """
    sep = "{\n  "
    for key, value in sorted(obj.items()):
        yield f"{sep}{json.dumps(key)}: "
        sep = ",\n  "
        if type(value) is list and value and set(map(type, value)) <= {float, int}:
            head = "[\n    "
            for lo in range(0, len(value), _JSON_SLICE):
                yield head + json.dumps(value[lo:lo + _JSON_SLICE])[1:-1].replace(", ", ",\n    ")
                head = ",\n    "
            yield "\n  ]"
        else:
            yield json.dumps(value, **_JSON_FORMAT).replace("\n", "\n  ")
    yield "\n}\n"


@dataclass
class SimReport:
    """Aggregate and per-interval results of one simulation run."""

    ndcg_at_k: float
    vio_at_k: float
    esp_at_k: float
    per_interval_traffic: list[int]
    per_interval_accuracy: list[float]
    per_interval_vio: list[float]
    per_interval_esp: list[float]
    per_provider_cumulative_exposure: list[int]
    per_user_ndcg: list[float]
    config_echo: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("ndcg_at_k", "vio_at_k", "esp_at_k"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0 + 1e-12:
                raise ConfigError(f"{name} out of [0, 1]: {v}")

    def to_json(self) -> str:
        """Stable-key JSON, numpy scalars as numbers; same config and seed, same bytes."""
        return "".join(_json_pieces(vars(self)))

    def write(self, directory):
        """report.json (``to_json``'s bytes, streamed to the file) and intervals.csv."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "report.json", "w", encoding="utf-8") as fh:
            fh.writelines(_json_pieces(vars(self)))
        with open(directory / "intervals.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["interval", "traffic", "accuracy", "vio", "esp_partial"])
            for n in range(len(self.per_interval_traffic)):
                w.writerow([n + 1, self.per_interval_traffic[n],
                            repr(self.per_interval_accuracy[n]),
                            repr(self.per_interval_vio[n]),
                            repr(self.per_interval_esp[n])])
