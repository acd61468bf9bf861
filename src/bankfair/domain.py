"""Core data types, log ingestion, and synthetic instance generation.

An *instance* is the triple (catalog, counts, requests): an immutable item
universe, the int64 array of per-interval arrival counts, and the user
requests in arrival order, interval by interval. The order is the only
record of which interval an arrival is in: interval n holds the
``counts[n - 1]`` requests that follow the ``counts[:n - 1].sum()`` before
it. An instance keeps its relevance in one read-only (users x items)
float64 matrix; each request's ``relevance`` is a row view of it and its
``row`` is that row's index. A logged user has one request, which stands
for every arrival of the user.
"""

from __future__ import annotations

import contextlib
import csv
import math
import mmap
import os
import struct
import sys
from array import array
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (MAX_MAGNITUDE, NONNEGATIVE, NONNEGATIVE_INT, POSITIVE, POSITIVE_INT, UNIT,
                     ConfigError, ConsistencyError, ParseError, check, either, list_of,
                     not_utf8)


INTERACTIONS_FILE = "interactions.csv"
CATALOG_FILE = "catalog.csv"
RELEVANCE_FILE = "relevance.bin"
INTERACTIONS_COLUMNS = ("user_id", "item_id", "provider_id", "timestamp", "score")

# Dense relevance sidecar: 16-byte header = 4-byte magic + three uint32
# (num_users, num_items, element width in bytes), then row-major floats.
RELEVANCE_MAGIC = b"BFRM"
_HEADER = struct.Struct("<4sIII")

# Most log rows parsed as one block of columns. On a 20 000-row log, 256
# rows parse as fast as 512 or 1 024, and repeated loads peak at the RSS of
# a row-by-row parse; 512 rows added about 0.9 MB.
_CHUNK_ROWS = 256

# Most relevance values drawn and scaled as one block: 64 KB of float64.
_DRAW_CHUNK = 8192

# Most intervals a log may span, which one outlier timestamp sets; 10 000 is
# over a year of hours. Each interval's plan forecasts and sorts the claims of
# every remaining interval, so planning work grows with the square of the
# horizon, and memory linearly through the instance matrix: 300 providers with
# one arrival an interval ran in 0.16-0.26 s (43 MB peak RSS) over 1 000
# intervals, 2.1 s (90 MB) over 10 000.
MAX_INTERVALS = 10_000

# A synthetic spec's sizes and counts, bounded as real config values are.
_SIZE = ("an int in [1, 2**53]", lambda v: POSITIVE_INT[1](v) and v <= MAX_MAGNITUDE)
_COUNT = ("an int in [0, 2**53]", lambda v: NONNEGATIVE_INT[1](v) and v <= MAX_MAGNITUDE)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


def _relevance_matrix(num_users: int, num_items: int) -> np.ndarray:
    """A zeroed (users x items) float64 matrix; every instance builder's store.

    On Linux it is a private anonymous mapping with huge pages advised, as
    numpy advises them for its own large arrays, and freed it goes straight
    back to the OS. A malloc'd block of a few MB raises glibc's mmap
    threshold when freed, so the next instance's matrix comes from the heap,
    where fragmentation added 7 MB to the peak RSS of repeated log replays.
    A byte size past ``sys.maxsize`` is a MemoryError.
    """
    size = num_users * num_items * 8
    if size > sys.maxsize:
        raise MemoryError(f"a {num_users} x {num_items} relevance matrix is too large "
                          f"({size} bytes)")
    if not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.zeros((num_users, num_items))
    buffer = mmap.mmap(-1, max(size, 1), flags=mmap.MAP_PRIVATE)
    buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.ndarray((num_users, num_items), dtype=np.float64, buffer=buffer)


@dataclass(frozen=True, eq=False)
class Catalog:
    """Immutable item universe: the provider owning each item.

    ``item_provider[i]`` is the integer provider index of item ``i``.
    Providers are numbered from 0 and each owns at least one item, so there
    are never more providers than items. A catalog is ``by_provider`` when
    its items are listed by provider: ``item_provider`` is nondecreasing, so
    provider p's items are one run of ``inventory[p]`` items, in provider
    order. Every synthetic catalog is, and so is a loaded one whose catalog
    file lists its items by ascending provider id. ``item_prices`` is the
    one place that layout picks how item prices are built. Catalogs compare
    and hash by identity, not by their arrays.
    """

    item_provider: np.ndarray
    num_items: int = field(init=False)
    num_providers: int = field(init=False)
    inventory: np.ndarray = field(init=False)  # items per provider; sums to num_items
    by_provider: bool = field(init=False)

    def __post_init__(self):
        ip = np.asarray(self.item_provider)
        if ip.ndim != 1 or ip.size == 0:
            raise ConfigError("catalog needs a 1-d, nonempty item->provider map")
        if ip.dtype.kind not in "iu":
            raise ConfigError(f"item->provider map must be integers, got dtype {ip.dtype}")
        ip = ip.astype(np.int64)
        if ip.min() < 0:
            raise ConfigError("provider index out of range")
        # Clipped at the item count, a stray huge index cannot size the
        # count; an index that high leaves some lower provider without items.
        inv = np.bincount(np.minimum(ip, ip.size))
        idle = np.flatnonzero(inv == 0)
        if idle.size:
            raise ConfigError(f"provider {idle[0]} owns no item")
        object.__setattr__(self, "item_provider", _readonly(ip))
        object.__setattr__(self, "num_items", int(ip.size))
        object.__setattr__(self, "num_providers", int(inv.size))
        object.__setattr__(self, "inventory", _readonly(inv))
        object.__setattr__(self, "by_provider", bool((ip[1:] >= ip[:-1]).all()))

    def item_prices(self, mu: np.ndarray) -> np.ndarray:
        """Each item's provider price from ``mu``, an array of one price per provider.

        A catalog listed by provider expands the prices over its runs,
        ``mu.repeat(inventory)``; any other gathers one per item,
        ``mu.take(item_provider)``. Both give the same bytes, signed zeros
        included. The result is a new array.
        """
        if len(mu) != self.num_providers:
            raise ConfigError(f"{len(mu)} prices for {self.num_providers} providers")
        if self.by_provider:
            return mu.repeat(self.inventory)
        return mu.take(self.item_provider)


@dataclass(frozen=True, eq=False)
class FairnessPolicy:
    """Per-provider exposure floors plus the per-user accuracy floor.

    One floor stands for every provider: ``harness.run`` broadcasts it.
    Policies compare and hash by identity, not by their floor array.
    """

    required_min_exposure: np.ndarray
    required_min_accuracy: float
    list_size: int

    def __post_init__(self):
        m = check("required_min_exposure", self.required_min_exposure,
                  list_of(NONNEGATIVE[0].replace("a number", "numbers"), NONNEGATIVE))
        check("required_min_accuracy", self.required_min_accuracy, UNIT)
        check("list_size", self.list_size, POSITIVE_INT)
        object.__setattr__(self, "required_min_exposure", _readonly(np.asarray(m, dtype=float)))


@dataclass(frozen=True, slots=True)
class UserRequest:
    """One user's request; ``relevance`` is row ``row`` of the instance matrix.

    Every arrival of a logged user is the same request object.
    """

    user_id: str
    relevance: np.ndarray
    row: int | None = None  # set by synth_instance and load_interactions


def instance_matrix(requests: Sequence[UserRequest]) -> np.ndarray:
    """The matrix whose row ``req.row`` is each request's ``relevance`` view.

    Requests of ``synth_instance`` and ``load_interactions`` all view one
    matrix; requests built another way have no row and are a ConfigError.
    """
    first = requests[0]
    matrix = first.relevance.base
    if first.row is None or matrix is None or matrix.ndim != 2:
        raise ConfigError("requests must be row views of one instance matrix")
    return matrix


# ---------------------------------------------------------------------------
# Synthetic instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs for synthetic instances.

    ``traffic`` pins exact per-interval counts; otherwise counts are Poisson
    with the given mean. ``num_intervals`` is at most MAX_INTERVALS, as a
    log's span is. Item scores are uniform in [0, 1], or with
    ``provider_bands`` uniform in each provider's own (low, high) band,
    which makes popularity tiers with controlled gaps easy to set up.
    ``inventory`` is "even" or an explicit per-provider item count. Every
    rule is checked on construction, with a ConfigError: each field's type
    and range, naming the field, then that the spec adds up. The checked
    ``traffic``, ``inventory`` and ``provider_bands`` are kept as tuples
    (the bands as a tuple of pairs), so a built config cannot change. Sizes
    and counts are ints of at most 2**53, the bound of a real field.
    """

    num_items: int
    num_providers: int
    num_intervals: int
    mean_traffic: float = 50.0
    traffic: Sequence[int] | None = None
    list_size: int = 10  # read by nothing; report.json echoes it, RunConfig checks it is K
    provider_bands: Sequence[Sequence[float]] | None = None
    inventory: Sequence[int] | str = "even"

    def __post_init__(self):
        for key in ("num_items", "num_providers", "list_size"):
            check(key, getattr(self, key), _SIZE)
        check("num_intervals", self.num_intervals, (f"an int in [1, {MAX_INTERVALS}]",
              lambda v: POSITIVE_INT[1](v) and v <= MAX_INTERVALS))
        check("mean_traffic", self.mean_traffic, NONNEGATIVE)
        check("inventory", self.inventory, either("even", list_of("ints in [1, 2**53]", _SIZE)))
        check("traffic", self.traffic, either(None, list_of("ints in [0, 2**53]", _COUNT)))
        n, unit_pair = self.num_providers, list_of("numbers in [0, 1]", UNIT, 2)[1]
        check("provider_bands", self.provider_bands, either(None, list_of(
            f"{n} (low, high) pairs with 0 <= low <= high <= 1",
            ("a band", lambda v: unit_pair(v) and v[0] <= v[1]), n)))
        if self.num_providers > self.num_items:
            raise ConfigError("more providers than items")
        if not isinstance(self.inventory, str):
            object.__setattr__(self, "inventory", tuple(map(int, self.inventory)))
            if len(self.inventory) != n or sum(self.inventory) != self.num_items:
                raise ConfigError("explicit inventory must cover all items")
        if self.traffic is not None:
            object.__setattr__(self, "traffic", tuple(map(int, self.traffic)))
            if len(self.traffic) != self.num_intervals:
                raise ConfigError("explicit traffic length must equal the horizon")
        if self.provider_bands is not None:
            object.__setattr__(self, "provider_bands", tuple(map(tuple, self.provider_bands)))


def synth_instance(cfg: SynthConfig, seed: int):
    """Generate a deterministic (catalog, counts, requests) triple."""
    rng = np.random.default_rng(seed)

    inv = cfg.inventory
    if inv == "even":
        base, extra = divmod(cfg.num_items, cfg.num_providers)
        inv = np.full(cfg.num_providers, base, dtype=np.int64)
        inv[:extra] += 1
    item_provider = np.repeat(np.arange(cfg.num_providers), inv)
    catalog = Catalog(item_provider)

    if cfg.traffic is not None:
        counts = np.asarray(cfg.traffic, dtype=np.int64)
    else:
        counts = rng.poisson(cfg.mean_traffic, size=cfg.num_intervals)

    # Row u has the bytes of the per-user draw rng.uniform(lo, hi, num_items),
    # which computes lo + (hi - lo) * random(): one double per value, in C
    # order. Blocks of at most _DRAW_CHUNK values are drawn and scaled while
    # in cache. Without bands lo + (hi - lo) * u is u itself. One pass over
    # the matrix leaves rng where the per-user draws would leave it.
    #
    # No value leaves [0, 1], so none is clipped. Here 0 <= lo <= hi <= 1
    # and 0 <= u <= 1 - e, with e = 2**-53, and every term is >= 0. Rounding
    # to nearest errs by at most e relative, so fl(hi - lo) <= (hi - lo)(1 + e)
    # and s = fl(fl(hi - lo) * u) <= (hi - lo)(1 + e)(1 - e**2). For hi > lo
    # then lo + s < hi + (hi - lo) e <= 1 + e, and a sum below 1 + e rounds
    # to at most 1; hi = lo gives s = 0. A subnormal product errs by up to
    # 2**-1075 instead, but then s < 2**-1022, and lo + s rounds to at most
    # 1 as well, since lo is 1 (and s is 0) or at most 1 - e.
    #
    # The arrivals are counted as Python ints: MAX_INTERVALS counts of up to
    # 2**53 each can sum past the int64 range.
    relevance = _relevance_matrix(sum(counts.tolist()), cfg.num_items)
    low = width = None
    if cfg.provider_bands is not None:
        bands = np.asarray(cfg.provider_bands, dtype=float)
        low = bands[item_provider, 0]
        width = (bands[:, 1] - bands[:, 0])[item_provider]
    _draw_rows(rng, relevance, low, width)
    relevance.flags.writeable = False
    requests = [UserRequest(str(uid), row, uid) for uid, row in enumerate(relevance)]
    return catalog, counts, requests


def _draw_rows(rng, rows: np.ndarray, low, width):
    """Fill ``rows`` from ``rng`` in blocks of at most _DRAW_CHUNK values, scaled by the bands."""
    step = max(_DRAW_CHUNK // rows.shape[1], 1)
    for start in range(0, len(rows), step):
        block = rng.random(out=rows[start:start + step])
        if low is not None:
            block *= width
            block += low


# ---------------------------------------------------------------------------
# Traffic resampling
# ---------------------------------------------------------------------------


def resample_traffic(counts: np.ndarray, tau: float, total: int, seed: int) -> np.ndarray:
    """Redistribute ``total`` arrivals across intervals with temperature tau.

    Interval probabilities are softmax(counts / (tau * max(counts))); the max
    normalization keeps tau in (0, 1] meaningful for raw counts of any scale.
    Small tau concentrates arrivals on the busiest intervals, tau = 1 tends
    toward the softmax of the normalized counts. tau must pass POSITIVE,
    which keeps the logits at most 2**53. Returns the int64 counts, all zero
    when ``total`` is 0.
    """
    check("tau", tau, POSITIVE)
    if total < 0:
        raise ConfigError("total must be >= 0")
    counts = np.asarray(counts, dtype=float)
    scale = counts.max()
    if scale <= 0:
        scale = 1.0
    logits = counts / (tau * scale)
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


@dataclass(frozen=True)
class LogSchema:
    """How to read an interaction log directory or file."""

    interval_seconds: float = 86400.0
    list_size: int = 10  # read by nothing; stays while bench/config.py passes it

    def __post_init__(self):
        check("interval_seconds", self.interval_seconds, POSITIVE)
        check("list_size", self.list_size, POSITIVE_INT)


def _write_relevance_matrix(path: Path, matrix: np.ndarray):
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(RELEVANCE_MAGIC, matrix.shape[0], matrix.shape[1], 8))
        fh.write(matrix.data)


def _read_relevance_matrix(path: Path) -> np.ndarray:
    """The sidecar's matrix, read straight into an instance matrix.

    A width-4 payload goes through one float32 buffer. Every value must lie
    in [0, 1]; the first one that does not is named by row and column.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ParseError(f"{path}: truncated relevance file")
        magic, nu, ni, width = _HEADER.unpack(head)
        if magic != RELEVANCE_MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}")
        if width not in (4, 8):
            raise ParseError(f"{path}: unsupported element width {width}")
        if os.fstat(fh.fileno()).st_size - _HEADER.size != nu * ni * width:
            raise ParseError(f"{path}: payload size does not match header")
        matrix = _relevance_matrix(nu, ni)
        if width == 8:
            fh.readinto(matrix.data)
        else:
            body = np.empty((nu, ni), dtype=np.float32)
            fh.readinto(body.data)
            matrix[...] = body
    # min and max carry a NaN through, and every comparison with NaN is False.
    if matrix.size and not (matrix.min() >= 0.0 and matrix.max() <= 1.0):
        row, col = np.argwhere(~((matrix >= 0.0) & (matrix <= 1.0)))[0]
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
    its interval's start plus its 0-based position in the interval, in
    seconds. So ``interval_seconds`` is a number in [2**-53, 2**53], an
    interval may hold only as many arrivals as fit one second apart in it,
    and ``counts`` must sum to the number of requests (ConfigError before
    anything is written otherwise). Reloading then reconstructs the grouping
    exactly, but a log spans its first timestamp to its last, so the empty
    intervals before the first arrival and after the last are dropped.
    """
    check("interval_seconds", interval_seconds, POSITIVE)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.sum() != len(requests):
        raise ConfigError(f"counts sum to {int(counts.sum())}, "
                          f"but there are {len(requests)} requests")
    over = np.flatnonzero(counts - 1 >= interval_seconds)
    if over.size:  # the last arrival's timestamp would fall in the next interval
        raise ConfigError(f"interval {over[0] + 1} has {counts[over[0]]} arrivals, more than fit "
                          f"one second apart in its {interval_seconds:g} s")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / CATALOG_FILE, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["item_id", "provider_id"])
        for i, p in enumerate(catalog.item_provider):
            w.writerow([i, int(p)])

    user_rows: dict[str, int] = {}
    matrix_rows = []
    with open(directory / INTERACTIONS_FILE, "w", newline="", encoding="utf-8") as fh:
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

    # With no requests the matrix is (0 x items), and loading it is a ParseError.
    _write_relevance_matrix(directory / RELEVANCE_FILE,
                            np.asarray(matrix_rows).reshape(len(matrix_rows), catalog.num_items))


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


def _parse_chunk(chunk: list[list[str]], columns: Sequence[int], lineno: int):
    """(user ids, item ids, provider ids, timestamps, scores) of consecutive rows.

    ``chunk[0]`` is row ``lineno``. The ids are tuples and the numbers
    float64 arrays, parsed by the same ``float`` as ``_parse_row``. If a row
    is short, a number does not parse, or a timestamp is not finite or a
    score not in [0, 1], the chunk is parsed again row by row, so that the
    first bad row raises ``_parse_row``'s ParseError.
    """
    try:
        fields = list(zip(*chunk))  # cut at the shortest row
        uids, iids, pids, ts, score = [fields[c] for c in columns]
        stamps, scores = array("d", map(float, ts)), array("d", map(float, score))
    except (IndexError, ValueError):
        pass
    else:
        t, s = np.frombuffer(stamps), np.frombuffer(scores)
        # min and max carry a NaN through, and every comparison with NaN is False.
        if np.isfinite(t).all() and s.min() >= 0.0 and s.max() <= 1.0:
            return uids, iids, pids, stamps, scores
    uids, iids, pids, ts, score = zip(*(_parse_row(row, columns, k)
                                        for k, row in enumerate(chunk, start=lineno)))
    return uids, iids, pids, array("d", ts), array("d", score)


@contextlib.contextmanager
def _open_utf8(path):
    """``path`` opened for csv reading; bytes that are not UTF-8 are a ParseError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from None


def load_interactions(path, schema: LogSchema | None = None):
    """Load an interaction log into (catalog, counts, requests).

    ``path`` may be the interchange directory or a bare csv file. With the
    dense relevance sidecar each user's row comes from the matrix; otherwise
    a user's row is assembled from their own logged scores (last occurrence
    wins) and all other items score 0. Either way the matrix is read-only and
    every arrival of a user is the user's one request, whose ``relevance``
    is a view of its row. Requests are grouped into fixed-width intervals
    starting at the earliest timestamp.

    With a catalog, every logged item must be in it under the same provider
    id (ParseError, ConsistencyError otherwise), and provider ids become
    indices into their sorted distinct values; without one, items and
    providers are numbered in order of first appearance.

    The log is read once, ``_CHUNK_ROWS`` rows at a time, into four typed
    columns, one entry per row: the user's code and the (item, provider)
    pair's code, both numbered in order of first appearance, the timestamp
    and the score. The files are UTF-8; other bytes are a ParseError naming
    the file. A malformed row anywhere is reported first. Catalog checks
    then run once per distinct pair, in that order, so an error names the
    first bad row, which is looked up only when a check fails.
    """
    schema = schema or LogSchema()
    path = Path(path)
    csv_path, cat_path, rel_path = path, None, None
    if path.is_dir():
        csv_path = path / INTERACTIONS_FILE
        cat_path = path / CATALOG_FILE if (path / CATALOG_FILE).exists() else None
        rel_path = path / RELEVANCE_FILE if (path / RELEVANCE_FILE).exists() else None

    users: dict[str, int] = {}
    pairs: dict[tuple[str, str], int] = {}
    user_code, pair_code, stamps, scores = array("q"), array("q"), array("d"), array("d")
    with _open_utf8(csv_path) as fh:
        reader = csv.reader(fh)
        header = {name: k for k, name in enumerate(next(reader, []))}
        if set(INTERACTIONS_COLUMNS) - set(header):
            raise ParseError(f"{csv_path}: header must contain "
                             f"{','.join(INTERACTIONS_COLUMNS)}")
        columns = [header[name] for name in INTERACTIONS_COLUMNS]
        # Blank lines are skipped and not counted in row numbers.
        rows, lineno = filter(None, reader), 2
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            uids, iids, pids, chunk_stamps, chunk_scores = _parse_chunk(chunk, columns, lineno)
            user_code.extend([users.setdefault(uid, len(users)) for uid in uids])
            pair_code.extend([pairs.setdefault(pair, len(pairs)) for pair in zip(iids, pids)])
            stamps.extend(chunk_stamps)
            scores.extend(chunk_scores)
            lineno += len(chunk)
            del uids, iids, pids  # so that the last chunk's ids do not outlive the loop
    if not users:
        raise ParseError(f"{csv_path}: no requests")

    # Item and provider universes; explicit catalog wins over observed pairs.
    pair_item = np.empty(len(pairs), dtype=np.int64)  # the item index of each pair
    if cat_path is not None:
        catalog_provider: dict[str, int] = {}
        with _open_utf8(cat_path) as fh:
            reader = csv.DictReader(fh)
            if {"item_id", "provider_id"} - set(reader.fieldnames or ()):
                raise ParseError(f"{cat_path}: header must contain item_id,provider_id")
            for lineno, row in enumerate(reader, start=2):
                try:
                    iid, provider = row["item_id"], int(row["provider_id"])
                except (TypeError, ValueError) as exc:
                    raise ParseError(f"{cat_path} row {lineno}: {exc}") from None
                if iid in catalog_provider:
                    raise ParseError(f"{cat_path} row {lineno}: duplicate item id {iid!r}")
                catalog_provider[iid] = provider
        item_index = {iid: k for k, iid in enumerate(catalog_provider)}
        for pair, (iid, pid) in enumerate(pairs):
            if iid not in catalog_provider:
                lineno = pair_code.index(pair) + 2  # its first row; the header is row 1
                raise ParseError(f"row {lineno}: item {iid!r} is not in {cat_path}")
            try:
                consistent = int(pid) == catalog_provider[iid]
            except ValueError:
                consistent = False
            if not consistent:
                lineno = pair_code.index(pair) + 2
                raise ConsistencyError(f"row {lineno}: item {iid!r} has provider {pid!r}, "
                                       f"{cat_path} says {catalog_provider[iid]}")
            pair_item[pair] = item_index[iid]
        # Provider ids become indices into the sorted distinct ids.
        _, item_provider = np.unique(np.asarray(list(catalog_provider.values()), dtype=np.int64),
                                     return_inverse=True)
    else:
        item_index, provider_index, item_provider_list = {}, {}, []
        for pair, (iid, pid) in enumerate(pairs):
            p = provider_index.setdefault(pid, len(provider_index))
            if iid in item_index:  # a second pair of the item: another provider
                lineno = pair_code.index(pair) + 2
                raise ConsistencyError(f"row {lineno}: item {iid!r} listed under two providers")
            item_index[iid] = pair_item[pair] = len(item_provider_list)
            item_provider_list.append(p)
        item_provider = np.asarray(item_provider_list, dtype=np.int64)
    catalog = Catalog(item_provider)
    num_items = catalog.num_items

    # One relevance row per user, in order of first appearance.
    user_code = np.frombuffer(user_code, dtype=np.int64)
    if rel_path is not None:
        matrix = _read_relevance_matrix(rel_path)
        if matrix.shape != (len(users), num_items):
            raise ParseError(f"{rel_path}: matrix shape {matrix.shape} does not match "
                             f"{len(users)} users x {num_items} items")
    else:
        matrix = _relevance_matrix(len(users), num_items)
        # The last row of a (user, item) cell wins. numpy leaves the order of
        # repeated writes unspecified, so each cell is written once, from
        # its first row in reverse file order.
        cells = (user_code * num_items + pair_item[np.frombuffer(pair_code, dtype=np.int64)])[::-1]
        cells, last = np.unique(cells, return_index=True)
        matrix.reshape(-1)[cells] = np.frombuffer(scores)[::-1][last]
    matrix.flags.writeable = False

    # One request per user; all of the user's arrivals share it.
    per_user = np.empty(len(users), dtype=object)
    per_user[:] = [UserRequest(uid, relevance, row)
                   for row, (uid, relevance) in enumerate(zip(users, matrix))]
    order, counts = _group_by_interval(np.frombuffer(stamps), schema.interval_seconds)
    return catalog, counts, per_user[user_code[order]].tolist()


def _group_by_interval(stamps: np.ndarray, interval_seconds: float):
    """(arrival order, per-interval counts) of a log's timestamps.

    ``stamps[k]`` is the timestamp of the log's data row k + 2 (the header
    is row 1). The order is the int64 array of row positions sorted by
    timestamp, stable among equal ones.
    Intervals are ``interval_seconds`` wide from the earliest timestamp; a
    log spanning more than MAX_INTERVALS is a ParseError naming the row with
    the latest timestamp.
    """
    ts = np.asarray(stamps, dtype=float)
    t0, last = float(ts.min()), int(ts.argmax())
    latest = float(ts[last])
    elapsed = latest - t0  # inf if the timestamps are too far apart to subtract
    span = elapsed // interval_seconds if elapsed < math.inf else math.inf
    if span >= MAX_INTERVALS:
        raise ParseError(f"row {last + 2}: timestamp {latest!r} makes the log span "
                         f"{span + 1:.0f} intervals of {interval_seconds:g} s, more than "
                         f"{MAX_INTERVALS}")
    counts = np.bincount(((ts - t0) // interval_seconds).astype(np.int64),
                         minlength=int(span) + 1)
    return ts.argsort(kind="stable"), counts
