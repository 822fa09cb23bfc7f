"""In-memory metric store for counter and gauge series.

Counters hold cumulative joules and never decrease; gauges hold
instantaneous watts. A rate over a window is the endpoint difference
quotient in watts, with the boundary values obtained by linear
interpolation between the two nearest samples.

Layout: a series is two typed columns of equal length, array("q") of
int64 timestamps and array("d") of float64 values, 16 bytes a sample
where two lists of Python objects cost about 40. Scalar reads (bisect,
value_at, last) index the columns directly. Vectorised reads (rates)
hand numpy a copy of a column prefix, ``series._ts[:n]``, never the
live column: numpy over a live array exports its buffer, and while any
export is alive the writer's next append raises BufferError ("cannot
resize an array that is exporting buffers"), which would stop a live
run.

Concurrency: one writer per series, any number of readers. An append
validates the sample before it touches either column, so a rejected
sample leaves both unchanged. Values are appended before timestamps
and readers snapshot the timestamp count first, so a concurrent append
is never half-visible. A store builds its read index when a series is
created, under the creation lock: a key-sorted tuple of every series,
in which each metric name's series are contiguous, and a frozenset of
series per label pair. Creation publishes each as a new immutable
object by swapping one reference and never changes one in place.
Readers use only these snapshots and never iterate the mutable
key-to-series dict, so a concurrent creation cannot break a read. Every
append raises the store's watermark, the largest timestamp it holds,
which never decreases.
"""

from __future__ import annotations

import re
import threading
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from math import isfinite
from operator import attrgetter
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    BadInterval,
    CounterRegression,
    EmptyWindow,
    KindMismatch,
    NonMonotonicTimestamp,
    ParseError,
)

COUNTER = "counter"
GAUGE = "gauge"

_INT64_MAX = 2**63 - 1


class Sample(NamedTuple):
    timestamp_ms: int
    value: float


class _Watermark:
    """Largest timestamp appended to any series that shares this object."""

    __slots__ = ("ms", "_lock")

    def __init__(self) -> None:
        self.ms = 0
        self._lock = threading.Lock()

    def advance(self, ts: int) -> None:
        # Writers of different series may run on different threads (the
        # meter listener and the scenario); the lock keeps a smaller
        # timestamp from overwriting a larger one.
        with self._lock:
            if ts > self.ms:
                self.ms = ts


def _series_key(name: str, labels: Mapping[str, str] | None):
    """Store key of a series: its name and its label pairs sorted by key."""
    return (name, tuple(sorted((labels or {}).items())))


class Series:
    """One metric stream with a fixed name, label set, and kind.

    A series keeps every sample appended to it. A series made by a
    MetricStore raises that store's watermark on append.
    """

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        kind: str = GAUGE,
    ):
        if kind not in (COUNTER, GAUGE):
            raise KindMismatch(f"unknown series kind {kind!r}")
        self.name = str(name)
        self.labels = dict(labels or {})
        self.kind = kind
        self._counter = kind == COUNTER
        self.key = _series_key(self.name, self.labels)
        # The /metrics line prefix: NAME{K="V",...}, labels sorted by key.
        body = ",".join(f'{k}="{v}"' for k, v in self.key[1])
        self.exposition_name = f"{self.name}{{{body}}}" if body else self.name
        self._watermark = _Watermark()
        self._ts = array("q")
        self._values = array("d")

    def __len__(self) -> int:
        return len(self._ts)

    def __repr__(self) -> str:
        return f"Series({self.name!r}, {self.labels!r}, {self.kind}, n={len(self)})"

    def append(self, sample: Sample | tuple[int, float]) -> None:
        # Every check comes before the first write, so a rejected sample
        # leaves both columns as they were.
        timestamp_ms, value = sample
        ts = int(timestamp_ms)
        val = float(value)
        if ts < 0:
            raise ValueError(f"timestamp must be >= 0, got {ts}")
        if ts > _INT64_MAX:
            raise ValueError(f"timestamp must fit in int64, got {ts}")
        if not isfinite(val):
            raise ValueError(f"sample value must be finite, got {val!r}")
        ts_col, values = self._ts, self._values
        if ts_col:  # this is the only writer, so [-1] is the last sample
            if ts <= ts_col[-1]:
                raise NonMonotonicTimestamp(
                    f"{self.name}: timestamp {ts} does not advance past {ts_col[-1]}"
                )
            if self._counter and val < values[-1]:
                raise CounterRegression(
                    f"{self.name}: counter fell from {values[-1]} to {val}"
                )
        # Value first, timestamp last: readers key off len(_ts).
        values.append(val)
        ts_col.append(ts)
        if ts > self._watermark.ms:
            self._watermark.advance(ts)

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The timestamps and values as numpy arrays over copies of the
        columns, so the writer can keep appending."""
        n = len(self._ts)
        return (
            np.frombuffer(self._ts[:n], np.int64),
            np.frombuffer(self._values[:n], np.float64),
        )

    def last(self) -> Sample | None:
        n = len(self._ts)
        if n == 0:
            return None
        return Sample(self._ts[n - 1], self._values[n - 1])

    def last_timestamp(self) -> int | None:
        n = len(self._ts)
        return self._ts[n - 1] if n else None

    def value_at(self, t_ms: int) -> float:
        """Series value at t_ms, linearly interpolated between neighbors.

        Defined only inside the sampled range; raises EmptyWindow outside.
        """
        ts = self._ts
        n = len(ts)
        if n and t_ms == ts[n - 1]:  # the newest sample ends most rate windows
            return self._values[n - 1]
        # each column read boxes a new object, so the bounds come from i:
        # t_ms is past the last sample when i == n, before the first when
        # i == 0 and it is no exact hit
        i = bisect_left(ts, t_ms, 0, n)
        if i == n:
            raise EmptyWindow(f"{self.name}: no samples cover t={t_ms}")
        t1 = ts[i]
        if t1 == t_ms:
            return self._values[i]
        if i == 0:
            raise EmptyWindow(f"{self.name}: no samples cover t={t_ms}")
        t0 = ts[i - 1]
        v0, v1 = self._values[i - 1], self._values[i]
        return v0 + (v1 - v0) * (t_ms - t0) / (t1 - t0)


def rate(series: Series, t1_ms: int, t2_ms: int) -> float:
    """Average power in watts over [t1, t2] from a joules counter.

    Both endpoints must lie inside the sampled range (values at the
    boundaries are interpolated between the two nearest samples).
    """
    if t2_ms <= t1_ms:
        raise BadInterval(f"rate window [{t1_ms}, {t2_ms}] is empty or inverted")
    if series.kind != COUNTER:
        raise KindMismatch(f"{series.name}: rate() needs a counter, got {series.kind}")
    v1 = series.value_at(t1_ms)
    v2 = series.value_at(t2_ms)
    return (v2 - v1) / ((t2_ms - t1_ms) / 1000.0)


def rates(
    series: Series, t2_ms: np.ndarray, window_ms: int
) -> tuple[np.ndarray, np.ndarray]:
    """rate() over [t - window_ms, t] for every t of the int64 array t2_ms.

    Returns the rates and a mask of the windows the samples cover; an
    uncovered entry reads 0.0 where rate() raises EmptyWindow. A covered
    entry equals rate() bit for bit: exact timestamp hits are taken as
    stored and the rest interpolated in value_at's operation order.
    """
    if window_ms <= 0:
        raise BadInterval(f"window must be positive, got {window_ms}")
    if series.kind != COUNTER:
        raise KindMismatch(f"{series.name}: rate() needs a counter, got {series.kind}")
    ts, values = series.columns()
    t1_ms = t2_ms - window_ms
    if len(ts):
        covered = (t1_ms >= ts[0]) & (t2_ms <= ts[-1])
    else:
        covered = np.zeros(len(t2_ms), dtype=bool)
    out = np.zeros(len(t2_ms))
    v1 = _values_at(ts, values, t1_ms[covered])
    v2 = _values_at(ts, values, t2_ms[covered])
    out[covered] = (v2 - v1) / (window_ms / 1000.0)
    return out, covered


def _values_at(ts: np.ndarray, values: np.ndarray, t_ms: np.ndarray) -> np.ndarray:
    """Series.value_at for each entry of t_ms; all lie in [ts[0], ts[-1]]."""
    i = np.searchsorted(ts, t_ms)  # bisect_left
    out = values[i]
    between = ts[i] != t_ms
    j = i[between]
    t0, t1 = ts[j - 1], ts[j]
    v0, v1 = values[j - 1], values[j]
    out[between] = v0 + (v1 - v0) * (t_ms[between] - t0) / (t1 - t0)
    return out


_NAME_RE = r"[A-Za-z_][A-Za-z0-9_]*"
_QUERY_RE = re.compile(
    rf"""^\s*
    (?P<sum>sum\s*\(\s*)?
    rate\s*\(\s*
    (?P<name>{_NAME_RE})\s*
    (?:\{{(?P<labels>[^{{}}]*)\}}\s*)?
    \[\s*(?P<window>\d+)\s*s\s*\]\s*
    \)\s*
    (?P<close>\)\s*)?
    $""",
    re.VERBOSE,
)
_MATCHER_RE = re.compile(rf'\s*({_NAME_RE})\s*=\s*"([^"]*)"\s*')


@dataclass(frozen=True)
class QueryExpr:
    metric: str
    labels: tuple[tuple[str, str], ...]
    window_ms: int

    def label_map(self) -> dict[str, str]:
        return dict(self.labels)


def _parse_labels(body: str) -> tuple[tuple[str, str], ...]:
    out: dict[str, str] = {}
    pos = 0
    first = True
    while pos < len(body):
        if not first:
            if body[pos] != ",":
                raise ParseError(f"expected ',' in label matchers at offset {pos}")
            pos += 1
        m = _MATCHER_RE.match(body, pos)
        if m is None or m.start() != pos:
            raise ParseError(f"bad label matcher near {body[pos:pos + 20]!r}")
        key = m.group(1)
        if key in out:
            raise ParseError(f"duplicate label key {key!r}")
        out[key] = m.group(2)
        pos = m.end()
        first = False
    return tuple(out.items())


def parse_query(text: str) -> QueryExpr:
    """Parse ``sum(rate(NAME{K="V",...}[Ns]))``. The outer sum is optional:
    query() sums the matching series either way."""
    if not isinstance(text, str):
        raise ParseError(f"query must be a string, got {type(text).__name__}")
    m = _QUERY_RE.match(text)
    if m is None:
        raise ParseError(f"malformed query: {text!r}")
    if (m.group("sum") is None) != (m.group("close") is None):
        raise ParseError(f"unbalanced parentheses in query: {text!r}")
    window_s = int(m.group("window"))
    if window_s <= 0:
        raise ParseError("rate window must be a positive number of seconds")
    labels = _parse_labels(m.group("labels") or "")
    return QueryExpr(
        metric=m.group("name"),
        labels=labels,
        window_ms=window_s * 1000,
    )


_KEY = attrgetter("key")


class MetricStore:
    """Keyed collection of series; the key is (name, full label set)."""

    def __init__(self):
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], Series] = {}
        self._lock = threading.Lock()
        self._watermark = _Watermark()
        # The read index. Creation replaces its immutable parts under _lock;
        # readers only look them up.
        self._ordered: tuple[Series, ...] = ()
        self._postings: dict[tuple[str, str], frozenset[Series]] = {}

    def get_or_create(
        self, name: str, labels: Mapping[str, str] | None = None, kind: str = GAUGE
    ) -> Series:
        key = _series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    series = self._create(name, labels, kind)
                    self._series[key] = series
        if series.kind != kind:
            raise KindMismatch(
                f"{name}: series is a {series.kind}, appended as {kind}"
            )
        return series

    def _create(self, name: str, labels: Mapping[str, str] | None, kind: str) -> Series:
        """Build a series and publish it to every read structure (under _lock)."""
        series = Series(name, labels, kind)
        series._watermark = self._watermark
        ordered = list(self._ordered)
        insort(ordered, series, key=_KEY)
        self._ordered = tuple(ordered)
        for pair in series.key[1]:
            self._postings[pair] = self._postings.get(pair, frozenset()) | {series}
        return series

    def append(
        self,
        name: str,
        labels: Mapping[str, str] | None,
        kind: str,
        sample: Sample | tuple[int, float],
    ) -> None:
        self.get_or_create(name, labels, kind).append(sample)

    def series(self) -> list[Series]:
        """Every series, in key order."""
        return list(self._ordered)

    def _named(self, name: str) -> tuple[Series, ...]:
        """The key-sorted series with this name. Their keys sort after
        (name,) and before (name + "\\0",), the next possible name."""
        ordered = self._ordered
        lo = bisect_left(ordered, (name,), key=_KEY)
        return ordered[lo:bisect_left(ordered, (name + "\0",), lo, key=_KEY)]

    def match(self, name: str, labels: Mapping[str, str] | None = None) -> list[Series]:
        """All series with this name whose labels contain every filter pair,
        in key order."""
        named = self._named(name)
        hits = None
        for pair in (labels or {}).items():
            posting = self._postings.get(pair)
            if posting is None:
                return []
            hits = posting if hits is None else hits & posting
        if hits is None:
            return list(named)
        return [series for series in named if series in hits]

    def current_time_ms(self) -> int:
        """Largest sample timestamp seen across all series (0 when empty)."""
        return self._watermark.ms


def query(store: MetricStore, expr: QueryExpr | str) -> float:
    """Evaluate a rate query at the store's current time.

    Matching series whose samples do not cover the window contribute 0.0,
    and a selector matching nothing sums to 0.0.
    """
    if isinstance(expr, str):
        expr = parse_query(expr)
    now = store.current_time_ms()
    total = 0.0
    for series in store.match(expr.metric, expr.label_map()):
        try:
            total += rate(series, now - expr.window_ms, now)
        except EmptyWindow:
            continue
    return total
