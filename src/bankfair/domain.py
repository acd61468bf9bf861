"""Core data types, log ingestion, and synthetic instance generation.

An *instance* is the triple (catalog, counts, requests): an immutable item
universe, the int64 array of per-interval arrival counts, and the user
requests with dense relevance vectors in arrival order, interval by
interval. The order is the only record of which interval an arrival is in:
interval n holds the ``counts[n - 1]`` requests that follow the
``counts[:n - 1].sum()`` before it.
"""

from __future__ import annotations

import csv
import logging
import math
import struct
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, ConsistencyError, ParseError

logger = logging.getLogger(__name__)

INTERACTIONS_FILE = "interactions.csv"
CATALOG_FILE = "catalog.csv"
RELEVANCE_FILE = "relevance.bin"
INTERACTIONS_COLUMNS = ("user_id", "item_id", "provider_id", "timestamp", "score")

# Dense relevance sidecar: 16-byte header = 4-byte magic + three uint32
# (num_users, num_items, element width in bytes), then row-major floats.
RELEVANCE_MAGIC = b"BFRM"
_HEADER = struct.Struct("<4sIII")

# Most intervals a log may span. Run time grows about with the square of the
# horizon, which one outlier timestamp sets; 10 000 is over a year of hours.
MAX_INTERVALS = 10_000


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Catalog:
    """Immutable item universe: the provider owning each item.

    ``item_provider[i]`` is the provider index of item ``i``; every item
    belongs to exactly one provider by construction.
    """

    item_provider: np.ndarray
    num_providers: int = 0  # inferred from item_provider when left at 0

    def __post_init__(self):
        ip = np.asarray(self.item_provider, dtype=np.int64)
        if ip.ndim != 1 or ip.size == 0:
            raise ConfigError("catalog needs a 1-d, nonempty item->provider map")
        inferred = int(ip.max()) + 1
        nprov = self.num_providers or inferred
        if nprov < inferred or ip.min() < 0:
            raise ConfigError("provider index out of range")
        if nprov < 1 or ip.size < nprov:
            raise ConfigError("need at least one provider and num_items >= num_providers")
        object.__setattr__(self, "item_provider", _readonly(ip))
        object.__setattr__(self, "num_providers", nprov)
        inv = np.bincount(ip, minlength=nprov)
        object.__setattr__(self, "_inventory", _readonly(inv))

    @property
    def num_items(self) -> int:
        return int(self.item_provider.size)

    @property
    def inventory(self) -> np.ndarray:
        """Items per provider; sums to num_items."""
        return self._inventory

    def exposure_of(self, items: np.ndarray) -> np.ndarray:
        """Per-provider exposure counts of a list of item ids."""
        return np.bincount(self.item_provider[np.asarray(items)], minlength=self.num_providers)


@dataclass(frozen=True)
class FairnessPolicy:
    """Per-provider exposure floors plus the per-user accuracy floor."""

    required_min_exposure: np.ndarray
    required_min_accuracy: float
    list_size: int

    def __post_init__(self):
        m = np.asarray(self.required_min_exposure, dtype=float)
        if (m < 0).any() or not np.isfinite(m).all():
            raise ConfigError("required minimum exposure must be finite and >= 0")
        if not 0.0 <= self.required_min_accuracy <= 1.0:
            raise ConfigError("required minimum accuracy must lie in [0, 1]")
        if self.list_size < 1:
            raise ConfigError("list size must be >= 1")
        object.__setattr__(self, "required_min_exposure", _readonly(m))

    @classmethod
    def uniform(cls, m: float, num_providers: int, phi: float, k: int) -> "FairnessPolicy":
        return cls(np.full(num_providers, float(m)), phi, k)


@dataclass
class UserRequest:
    """One user arrival with a dense relevance vector over all items."""

    user_id: str
    relevance: np.ndarray
    degenerate: bool = False  # fewer strictly positive scores than the list size


def _flag_degenerate(relevance: np.ndarray, list_size: int) -> bool:
    return int((relevance > 0).sum()) < list_size


# ---------------------------------------------------------------------------
# Synthetic instances
# ---------------------------------------------------------------------------


def _is_int(value, least: int) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= least


def _is_int_list(value, least: int) -> bool:
    return (isinstance(value, (Sequence, np.ndarray)) and not isinstance(value, str)
            and all(_is_int(v, least) for v in value))


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass
class SynthConfig:
    """Generator knobs for synthetic instances.

    ``traffic`` pins exact per-interval counts; otherwise counts are Poisson
    with the given mean. ``provider_weights`` scales item relevance per
    provider: a list of positive numbers, one per provider.
    ``provider_bands`` instead draws each provider's item scores uniformly
    from its own (low, high) band, which makes popularity tiers with
    controlled gaps easy to set up. ``inventory`` is "even" or an explicit
    per-provider item count. Each field's type and range is checked on
    construction, with a ConfigError naming the field; whether inventory
    and traffic add up is checked when an instance is drawn.
    """

    num_items: int
    num_providers: int
    num_intervals: int
    mean_traffic: float = 50.0
    traffic: Sequence[int] | None = None
    list_size: int = 10
    relevance_low: float = 0.0
    relevance_high: float = 1.0
    provider_weights: Sequence[float] | None = None
    provider_bands: Sequence[Sequence[float]] | None = None
    inventory: Sequence[int] | str = "even"

    def __post_init__(self):
        for key in ("num_items", "num_providers", "num_intervals"):
            if not _is_int(getattr(self, key), 1):
                raise ConfigError(f"{key} must be an int >= 1, got {getattr(self, key)!r}")
        mean = self.mean_traffic
        if not (_is_real(mean) and math.isfinite(mean) and mean >= 0):
            raise ConfigError(f"mean_traffic must be a finite number >= 0, got {mean!r}")
        lo, hi = self.relevance_low, self.relevance_high
        if not (_is_real(lo) and _is_real(hi) and 0.0 <= lo <= hi <= 1.0):
            raise ConfigError("relevance_low and relevance_high must satisfy "
                              f"0 <= relevance_low <= relevance_high <= 1, got {lo!r}, {hi!r}")
        inv = self.inventory
        if not (isinstance(inv, str) or _is_int_list(inv, 1)):
            raise ConfigError(f"inventory must be 'even' or a list of ints >= 1, got {inv!r}")
        if not (self.traffic is None or _is_int_list(self.traffic, 0)):
            raise ConfigError(f"traffic must be a list of ints >= 0, got {self.traffic!r}")
        self.resolve_weights()
        self.resolve_bands()

    def resolve_inventory(self) -> np.ndarray:
        if isinstance(self.inventory, str):
            if self.inventory != "even":
                raise ConfigError(f"unknown inventory spec {self.inventory!r}")
            base, extra = divmod(self.num_items, self.num_providers)
            inv = np.full(self.num_providers, base, dtype=np.int64)
            inv[:extra] += 1
            return inv
        inv = np.asarray(self.inventory, dtype=np.int64)
        if inv.size != self.num_providers or inv.sum() != self.num_items:
            raise ConfigError("explicit inventory must cover all items")
        return inv

    def resolve_weights(self) -> np.ndarray:
        if self.provider_weights is None:
            return np.ones(self.num_providers)
        try:
            w = np.asarray(self.provider_weights, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("provider_weights must be a list of numbers, "
                              f"got {self.provider_weights!r}") from None
        if w.shape != (self.num_providers,) or not (np.isfinite(w) & (w > 0)).all():
            raise ConfigError("provider_weights must be finite and positive, one per provider")
        return w

    def resolve_bands(self) -> np.ndarray | None:
        """(low, high) relevance band per provider, or None without bands."""
        if self.provider_bands is None:
            return None
        try:
            bands = np.asarray(self.provider_bands, dtype=float)
        except (TypeError, ValueError):
            bands = None
        if bands is None or bands.shape != (self.num_providers, 2) or not (
                (bands >= 0) & (bands <= 1)).all():
            raise ConfigError("provider_bands must be one (low, high) pair in [0,1] per "
                              f"provider, got {self.provider_bands!r}")
        return bands


def synth_instance(cfg: SynthConfig, seed: int):
    """Generate a deterministic (catalog, counts, requests) triple."""
    if cfg.num_providers > cfg.num_items:
        raise ConfigError("more providers than items")
    rng = np.random.default_rng(seed)

    inv = cfg.resolve_inventory()
    item_provider = np.repeat(np.arange(cfg.num_providers), inv)
    catalog = Catalog(item_provider, cfg.num_providers)

    if cfg.traffic is not None:
        counts = np.asarray(cfg.traffic, dtype=np.int64)
        if counts.size != cfg.num_intervals:
            raise ConfigError("explicit traffic length must equal the horizon")
    else:
        counts = rng.poisson(cfg.mean_traffic, size=cfg.num_intervals)

    bands = cfg.resolve_bands()
    if bands is not None:
        lo = bands[item_provider, 0]
        hi = bands[item_provider, 1]
        weights = np.ones(cfg.num_items)
    else:
        lo, hi = cfg.relevance_low, cfg.relevance_high
        weights = cfg.resolve_weights()[item_provider]
    requests = []
    for uid in range(int(counts.sum())):
        rel = np.clip(rng.uniform(lo, hi, size=cfg.num_items) * weights, 0.0, 1.0)
        requests.append(UserRequest(str(uid), rel, _flag_degenerate(rel, cfg.list_size)))
    return catalog, counts, requests


# ---------------------------------------------------------------------------
# Traffic resampling
# ---------------------------------------------------------------------------


def resample_traffic(counts: np.ndarray, tau: float, total: int, seed: int) -> np.ndarray:
    """Redistribute ``total`` arrivals across intervals with temperature tau.

    Interval probabilities are softmax(counts / (tau * max(counts))); the max
    normalization keeps tau in (0, 1] meaningful for raw counts of any scale.
    Small tau concentrates arrivals on the busiest intervals, tau = 1 tends
    toward the softmax of the normalized counts. A tau so small that the
    logits overflow is a ConfigError. Returns the int64 counts.
    """
    if tau <= 0:
        raise ConfigError("tau must be positive")
    if total <= 0:
        raise ConfigError("total must be positive")
    counts = np.asarray(counts, dtype=float)
    scale = counts.max()
    if scale <= 0:
        scale = 1.0
    with np.errstate(over="ignore"):
        logits = counts / (tau * scale)
    if not np.isfinite(logits).all():
        raise ConfigError(f"tau {tau!r} is too small: counts / (tau * {scale:g}) overflows")
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(total, probs)


def redistribute_requests(requests: Sequence[UserRequest], seed: int) -> list[UserRequest]:
    """The requests in a seeded random order.

    Used after resampling: cut in order by the resampled counts, the shuffled
    pool deals every request to one interval.
    """
    return [requests[i] for i in np.random.default_rng(seed).permutation(len(requests))]


# ---------------------------------------------------------------------------
# Interchange format
# ---------------------------------------------------------------------------


@dataclass
class LogSchema:
    """How to read an interaction log directory or file."""

    interval_seconds: float = 86400.0
    list_size: int = 10
    relevance_path: str | None = None
    catalog_path: str | None = None

    def __post_init__(self):
        seconds = self.interval_seconds
        if not (isinstance(seconds, (int, float)) and math.isfinite(seconds) and seconds > 0):
            raise ConfigError(f"interval_seconds must be a finite number > 0, got {seconds!r}")


def _write_relevance_matrix(path: Path, matrix: np.ndarray):
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(RELEVANCE_MAGIC, matrix.shape[0], matrix.shape[1], 8))
        fh.write(matrix.tobytes())


def _read_relevance_matrix(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ParseError(f"{path}: truncated relevance file")
    magic, nu, ni, width = _HEADER.unpack_from(raw)
    if magic != RELEVANCE_MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if width not in (4, 8):
        raise ParseError(f"{path}: unsupported element width {width}")
    dtype = np.float32 if width == 4 else np.float64
    body = np.frombuffer(raw, dtype=dtype, offset=_HEADER.size)
    if body.size != nu * ni:
        raise ParseError(f"{path}: payload size does not match header")
    matrix = body.reshape(nu, ni).astype(np.float64)
    bad = ~((matrix >= 0.0) & (matrix <= 1.0))
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ParseError(f"{path}: matrix row {row}, column {col}: relevance "
                         f"{float(matrix[row, col])!r} is not in [0, 1]")
    return matrix


def save_instance(directory, catalog: Catalog, counts: np.ndarray,
                  requests: Sequence[UserRequest], interval_seconds: float = 86400.0):
    """Write an instance in the interchange layout.

    Emits interactions.csv (one row per arrival; the row's item is the
    request's top-relevance item, the lowest id among ties), catalog.csv with
    the full item->provider map, and relevance.bin with one dense row per
    distinct user in order of first appearance. An arrival's timestamp is
    its interval's start plus its 0-based position in the interval, so
    reloading reconstructs the original grouping exactly. ``counts`` must
    sum to the number of requests (ConfigError otherwise).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.sum() != len(requests):
        raise ConfigError(f"counts sum to {int(counts.sum())}, "
                          f"but there are {len(requests)} requests")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / CATALOG_FILE, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", "provider_id"])
        for i, p in enumerate(catalog.item_provider):
            w.writerow([i, int(p)])

    user_rows: dict[str, int] = {}
    matrix_rows = []
    with open(directory / INTERACTIONS_FILE, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(INTERACTIONS_COLUMNS)
        slots = ((n, t) for n, c in enumerate(counts.tolist()) for t in range(c))
        for req, (n, t) in zip(requests, slots):
            if req.user_id not in user_rows:
                user_rows[req.user_id] = len(matrix_rows)
                matrix_rows.append(req.relevance)
            ts = n * interval_seconds + t
            top = int(np.argmax(req.relevance))
            w.writerow([req.user_id, top, int(catalog.item_provider[top]),
                        repr(float(ts)), repr(float(req.relevance[top]))])

    _write_relevance_matrix(directory / RELEVANCE_FILE, np.asarray(matrix_rows))


def _parse_row(row: list[str], columns: Sequence[int], lineno: int):
    """(user_id, item_id, provider_id, timestamp, score) of one csv row.

    ``columns`` gives the position of each field in the header. A field past
    the end of a short row reads as None: a missing number then fails to
    parse, and a missing id is rejected.
    """
    uid, iid, pid, ts, score = (row[c] if c < len(row) else None for c in columns)
    try:
        parsed = (uid, iid, pid, float(ts), float(score))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"row {lineno}: malformed record ({exc})") from None
    if None in parsed:
        raise ParseError(f"row {lineno}: malformed record (too few fields)")
    if not math.isfinite(parsed[3]):
        raise ParseError(f"row {lineno}: timestamp {ts!r} is not finite")
    if not 0.0 <= parsed[4] <= 1.0:
        raise ParseError(f"row {lineno}: score {score!r} is not in [0, 1]")
    return parsed


def load_interactions(path, schema: LogSchema | None = None):
    """Load an interaction log into (catalog, counts, requests).

    ``path`` may be the interchange directory or a bare csv file. With the
    dense relevance sidecar each user's vector comes from their matrix row;
    otherwise a user's relevance profile is assembled from their own logged
    scores (last occurrence wins) and all other items score 0. Requests are
    grouped into fixed-width intervals starting at the earliest timestamp.

    With a catalog, every logged item must be in it under the same provider
    id (ParseError, ConsistencyError otherwise), and provider ids become
    indices into their sorted distinct values; without one, items and
    providers are numbered in order of first appearance.
    """
    schema = schema or LogSchema()
    path = Path(path)
    if path.is_dir():
        csv_path = path / INTERACTIONS_FILE
        cat_path = path / CATALOG_FILE if (path / CATALOG_FILE).exists() else None
        rel_path = path / RELEVANCE_FILE if (path / RELEVANCE_FILE).exists() else None
    else:
        csv_path = path
        cat_path = Path(schema.catalog_path) if schema.catalog_path else None
        rel_path = Path(schema.relevance_path) if schema.relevance_path else None

    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = {name: k for k, name in enumerate(next(reader, []))}
        if set(INTERACTIONS_COLUMNS) - set(header):
            raise ParseError(f"{csv_path}: header must contain "
                             f"{','.join(INTERACTIONS_COLUMNS)}")
        columns = [header[name] for name in INTERACTIONS_COLUMNS]
        # Blank lines are skipped and not counted in row numbers.
        rows = [_parse_row(row, columns, lineno)
                for lineno, row in enumerate(filter(None, reader), start=2)]
    if not rows:
        raise ParseError(f"{csv_path}: no requests")

    # Item and provider universes; explicit catalog wins over observed pairs.
    if cat_path is not None:
        catalog_provider: dict[str, int] = {}
        with open(cat_path, newline="") as fh:
            for lineno, row in enumerate(csv.DictReader(fh), start=2):
                try:
                    iid, provider = row["item_id"], int(row["provider_id"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ParseError(f"{cat_path} row {lineno}: {exc}") from None
                if iid in catalog_provider:
                    raise ParseError(f"{cat_path} row {lineno}: duplicate item id {iid!r}")
                catalog_provider[iid] = provider
        for lineno, (_, iid, pid, _, _) in enumerate(rows, start=2):
            if iid not in catalog_provider:
                raise ParseError(f"row {lineno}: item {iid!r} is not in {cat_path}")
            try:
                consistent = int(pid) == catalog_provider[iid]
            except ValueError:
                consistent = False
            if not consistent:
                raise ConsistencyError(f"row {lineno}: item {iid!r} has provider {pid!r}, "
                                       f"{cat_path} says {catalog_provider[iid]}")
        item_index = {iid: k for k, iid in enumerate(catalog_provider)}
        # Provider ids become indices into the sorted distinct ids.
        _, item_provider = np.unique(np.asarray(list(catalog_provider.values()), dtype=np.int64),
                                     return_inverse=True)
    else:
        item_index, provider_index, item_provider_list = {}, {}, []
        for lineno, (_, iid, pid, _, _) in enumerate(rows, start=2):
            p = provider_index.setdefault(pid, len(provider_index))
            if iid in item_index:
                if item_provider_list[item_index[iid]] != p:
                    raise ConsistencyError(f"row {lineno}: item {iid!r} listed under two providers")
            else:
                item_index[iid] = len(item_provider_list)
                item_provider_list.append(p)
        item_provider = np.asarray(item_provider_list, dtype=np.int64)
    catalog = Catalog(item_provider)
    num_items = catalog.num_items

    # Per-user relevance vectors.
    user_order: dict[str, int] = {}
    for uid, *_ in rows:
        user_order.setdefault(uid, len(user_order))
    if rel_path is not None:
        matrix = _read_relevance_matrix(rel_path)
        if matrix.shape != (len(user_order), num_items):
            raise ParseError(f"{rel_path}: matrix shape {matrix.shape} does not match "
                             f"{len(user_order)} users x {num_items} items")
        profiles = {uid: matrix[row] for uid, row in user_order.items()}
    else:
        profiles = {uid: np.zeros(num_items) for uid in user_order}
        for uid, iid, _, _, score in rows:
            profiles[uid][item_index[iid]] = score
    # Every arrival of a user shares one vector and its flag.
    degenerate = {uid: _flag_degenerate(rel, schema.list_size)
                  for uid, rel in profiles.items()}

    # Interval grouping by timestamp, stable within equal timestamps.
    t0 = min(r[3] for r in rows)
    last = max(range(len(rows)), key=lambda k: rows[k][3])
    horizon = int((rows[last][3] - t0) // schema.interval_seconds) + 1
    if horizon > MAX_INTERVALS:
        raise ParseError(f"row {last + 2}: timestamp {rows[last][3]!r} makes the log span "
                         f"{horizon} intervals of {schema.interval_seconds:g} s, more than "
                         f"{MAX_INTERVALS}")
    ordered = sorted(range(len(rows)), key=lambda k: (rows[k][3], k))
    counts = np.zeros(horizon, dtype=np.int64)
    requests = []
    for k in ordered:
        uid, _, _, ts, _ = rows[k]
        counts[int((ts - t0) // schema.interval_seconds)] += 1
        requests.append(UserRequest(uid, profiles[uid], degenerate[uid]))
    return catalog, counts, requests
