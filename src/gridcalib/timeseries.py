"""In-memory metric store for counter and gauge series.

Counters hold cumulative joules and never decrease; gauges hold
instantaneous watts. A rate over a window is the endpoint difference
quotient in watts, with the boundary values obtained by linear
interpolation between the two nearest samples.

Layout: a series is two typed columns of equal length, array("q") of
int64 timestamps and array("d") of float64 values, 16 bytes a sample
where two lists of Python objects cost about 40. Counters that are
sampled together form a CounterFrame: its members share one timestamp
column and each keeps its own value column, so a row costs 8 bytes for
the timestamp and 8 per member, and a reader treats a member as any
series. A rate has one rule: _locate puts a window edge on a row,
between two rows, or outside them, and _interpolate reads a column
between two rows; rate and CounterFrame.trailing_rates read it from the
live columns. Series.columns hands numpy a copy of each column prefix,
``ts[:n]``, never the live column: numpy over a live array exports its
buffer, and while any export is alive the writer's next append raises
BufferError ("cannot resize an array that is exporting buffers"), which
would stop a live run.

Concurrency: one writer per series, or per frame, and any number of
readers. An append validates the sample, or the whole row, before it
touches any column, so a rejected one leaves every column unchanged.
Values are appended before timestamps, every member's value before the
row's one shared timestamp, and readers snapshot the timestamp count
first, so a concurrent append is never half-visible. A store builds its
read index when a series is created, under the creation lock: a
key-sorted tuple of every series, in which each metric name's series
are contiguous, and per metric name and label pair a posting: its
series as a key-sorted tuple and as a frozenset. Creation
publishes each as a new immutable object by swapping one reference and
never changes one in place. Readers use only these snapshots and never
iterate the mutable key-to-series dict, so a concurrent creation cannot
break a read. The store keeps no clock of its own: a query ends each
series' window at that series' newest sample. Only readers write a
series' exposition memo: the server's one serving thread and direct
in-process callers. It is one immutable (timestamp, line) tuple
published by one reference store, and an append never touches it.
"""

from __future__ import annotations

import re
import threading
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from math import isfinite
from operator import attrgetter, lt
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    BadInterval,
    CounterRegression,
    EmptyWindow,
    KindMismatch,
    MemberAppend,
    NonMonotonicTimestamp,
    ParseError,
    SeriesNotEmpty,
)

COUNTER = "counter"
GAUGE = "gauge"

_INT64_MAX = 2**63 - 1


class Sample(NamedTuple):
    timestamp_ms: int
    value: float


def _series_key(name: str, labels: Mapping[str, str] | None):
    """Store key of a series: its name and its label pairs sorted by key."""
    return (name, tuple(sorted((labels or {}).items())))


class Series:
    """One metric stream with a fixed name, label set, and kind.

    A series keeps every sample appended to it. Its attributes are
    slots: reads take the fast path for them, and a CounterFrame can
    make a series its member by changing its class without giving it an
    instance dict.
    """

    __slots__ = (
        "name", "labels", "kind", "_counter", "key", "exposition_name",
        "_exposition", "_ts", "_values",
    )

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
        # (timestamp, line) of the newest sample exposition_line() rendered
        self._exposition = (-1, "")
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

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The timestamps and values as numpy arrays over copies of the
        columns, so the writer can keep appending."""
        n = len(self._ts)
        return (
            np.frombuffer(self._ts[:n], np.int64),
            np.frombuffer(self._values[:n], np.float64),
        )

    def exposition_line(self) -> str:
        """The /metrics line of the newest sample, NAME{...} VALUE TIMESTAMP_MS
        and a newline, or "" for an empty series. It is rendered once per
        newest sample: timestamps strictly increase, so the timestamp names
        the sample the memo holds."""
        n = len(self._ts)  # the count first, as in last()
        if not n:
            return ""
        ts = self._ts[n - 1]
        memo = self._exposition
        if memo[0] != ts:
            memo = self._exposition = (
                ts, f"{self.exposition_name} {self._values[n - 1]!r} {ts}\n"
            )
        return memo[1]

    def last(self) -> Sample | None:
        n = len(self._ts)
        if n == 0:
            return None
        return Sample(self._ts[n - 1], self._values[n - 1])

    def last_timestamp(self) -> int | None:
        n = len(self._ts)
        return self._ts[n - 1] if n else None


def _locate(ts: array, n: int, t_ms: int) -> int | None:
    """Where t_ms falls among the first n timestamps of ts: i on row i,
    ~i between rows i - 1 and i, None before the first or past the last."""
    if n and t_ms == ts[n - 1]:  # the newest row ends most rate windows
        return n - 1
    i = bisect_left(ts, t_ms, 0, n)
    if i == n:
        return None
    if ts[i] == t_ms:
        return i
    return ~i if i else None


def _interpolate(t_ms, ts, column, i):
    """column's value at t_ms, linear between rows i - 1 and i."""
    t0 = ts[i - 1]
    v0 = column[i - 1]
    return v0 + (column[i] - v0) * (t_ms - t0) / (ts[i] - t0)


def rate(series: Series, t1_ms: int, t2_ms: int) -> float:
    """Average power in watts over [t1, t2] from a joules counter.

    Both endpoints must lie inside the sampled range (values at the
    boundaries are interpolated between the two nearest samples).
    """
    if t2_ms <= t1_ms:
        raise BadInterval(f"rate window [{t1_ms}, {t2_ms}] is empty or inverted")
    if series.kind != COUNTER:
        raise KindMismatch(f"{series.name}: rate() needs a counter, got {series.kind}")
    ts, values = series._ts, series._values
    n = len(ts)  # the count first: the values hold one for every row counted
    a = _locate(ts, n, t1_ms)
    b = _locate(ts, n, t2_ms)
    if a is None or b is None:
        raise EmptyWindow(f"{series.name}: no samples cover [{t1_ms}, {t2_ms}]")
    v1 = values[a] if a >= 0 else _interpolate(t1_ms, ts, values, ~a)
    v2 = values[b] if b >= 0 else _interpolate(t2_ms, ts, values, ~b)
    return (v2 - v1) / ((t2_ms - t1_ms) / 1000.0)


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
        # The read index. Creation replaces its immutable parts under _lock;
        # readers only look them up.
        self._ordered: tuple[Series, ...] = ()
        # (name, label pair) -> the series carrying both, key-sorted and as a set
        self._postings: dict[
            tuple[str, tuple[str, str]], tuple[tuple[Series, ...], frozenset[Series]]
        ] = {}

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
        ordered = list(self._ordered)
        insort(ordered, series, key=_KEY)
        self._ordered = tuple(ordered)
        for pair in series.key[1]:
            keyed, members = self._postings.get((name, pair), ((), frozenset()))
            keyed = list(keyed)
            insort(keyed, series, key=_KEY)
            self._postings[name, pair] = tuple(keyed), members | {series}
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
        in key order. Only the smallest posting is walked."""
        if not labels:
            return list(self._named(name))
        postings = [self._postings.get((name, pair)) for pair in labels.items()]
        if None in postings:
            return []
        (hits, _), *rest = sorted(postings, key=lambda posting: len(posting[0]))
        for _, members in rest:
            hits = [series for series in hits if series in members]
        return list(hits)


def trailing_rate(series: Series, window_ms: int) -> float | None:
    """rate() over the window_ms that ends at the series' newest sample,
    or None when no samples cover it. Counters are sampled only at
    emissions, so a window that ended any later would fall past them."""
    ts = series._ts  # the newest timestamp without a method call
    end = ts[-1] if ts else 0
    try:
        return rate(series, end - window_ms, end)
    except EmptyWindow:
        return None


class _FrameMember(Series):
    """A series whose samples its CounterFrame appends: a value appended
    on its own would have no timestamp in the shared column."""

    __slots__ = ()

    def append(self, sample: Sample | tuple[int, float]) -> None:
        raise MemberAppend(
            f"{self.exposition_name}: a frame member takes rows through CounterFrame.append"
        )


class CounterFrame:
    """Counters sampled together, one row per sample: the members share
    one timestamp column and each keeps its own value column.

    The members stay Series to every reader. The frame takes them empty,
    shares its timestamp column with them and turns each into a
    _FrameMember, whose append raises MemberAppend; from then on the
    frame appends their samples itself, one row at a time. A plain
    series' append stays as it was and checks for no frame.
    """

    def __init__(self, members: Sequence[Series]):
        self.members = list(members)
        for series in self.members:
            if series.kind != COUNTER:
                raise KindMismatch(
                    f"{series.name}: a counter frame takes counters, got {series.kind}"
                )
            if len(series) or isinstance(series, _FrameMember):
                raise SeriesNotEmpty(
                    f"{series.exposition_name}: a frame takes series that hold no samples "
                    "and belong to no frame"
                )
        if len(set(self.members)) != len(self.members):
            raise SeriesNotEmpty("a series can be a member of a frame only once")
        self._ts = ts = array("q")
        self._columns = [series._values for series in self.members]
        self._last: list[float] = []  # the newest row, for the counter check
        for series in self.members:
            series._ts = ts
            series.__class__ = _FrameMember

    def append(self, timestamp_ms: int, row: Sequence[float]) -> None:
        """Append one sample to every member at one timestamp. Every
        check Series.append makes comes before the first write, so a
        rejected row leaves every column as it was."""
        ts = int(timestamp_ms)
        values = list(map(float, row))
        if len(values) != len(self._columns):
            raise ValueError(f"row has {len(values)} values for {len(self._columns)} members")
        if ts < 0:
            raise ValueError(f"timestamp must be >= 0, got {ts}")
        if ts > _INT64_MAX:
            raise ValueError(f"timestamp must fit in int64, got {ts}")
        if not all(map(isfinite, values)):
            bad = next(v for v in values if not isfinite(v))
            raise ValueError(f"sample value must be finite, got {bad!r}")
        ts_col = self._ts
        if ts_col:  # this is the only writer, so [-1] is the last row
            if ts <= ts_col[-1]:
                raise NonMonotonicTimestamp(
                    f"counter frame: timestamp {ts} does not advance past {ts_col[-1]}"
                )
            if any(map(lt, values, self._last)):
                for series, old, new in zip(self.members, self._last, values):
                    if new < old:
                        raise CounterRegression(
                            f"{series.exposition_name}: counter fell from {old} to {new}"
                        )
        # Every value first, the shared timestamp last: readers key off len(_ts).
        for column, value in zip(self._columns, values):
            column.append(value)
        ts_col.append(ts)
        self._last = values

    def trailing_rates(self, window_ms: int) -> list[float] | None:
        """trailing_rate() of every member, in member order, from one
        locate of the window start, or None when the rows do not cover
        the window."""
        if window_ms <= 0:
            raise BadInterval(f"window must be positive, got {window_ms}")
        ts = self._ts
        n = len(ts)  # the count first: each column holds a value for every row counted
        if not n:
            return None
        last = n - 1
        start = ts[last] - window_ms
        i = _locate(ts, n, start)
        if i is None:
            return None
        per_s = window_ms / 1000.0
        if i >= 0:
            return [(column[last] - column[i]) / per_s for column in self._columns]
        return [
            (column[last] - _interpolate(start, ts, column, ~i)) / per_s
            for column in self._columns
        ]


class QueryResult(NamedTuple):
    value_w: float
    uncovered: int  # matching series whose samples do not cover the window
    matched: int  # series the selector matched: 0 W from none is not an idle 0 W


def evaluate(store: MetricStore, expr: QueryExpr | str) -> QueryResult:
    """Evaluate a rate query over every series its selector matches.

    Each series' window ends at its own newest sample (trailing_rate),
    as a calibration collection's does. A series whose samples do not
    cover its window adds 0.0 to the sum and 1 to `uncovered`; a
    selector matching nothing sums to 0.0 with `matched` 0.
    """
    if isinstance(expr, str):
        expr = parse_query(expr)
    total = 0.0
    uncovered = 0
    matched = store.match(expr.metric, expr.label_map())
    for series in matched:
        watts = trailing_rate(series, expr.window_ms)
        if watts is None:
            uncovered += 1
        else:
            total += watts
    return QueryResult(total, uncovered, len(matched))


def query(store: MetricStore, expr: QueryExpr | str) -> float:
    """evaluate()'s summed rate in watts."""
    return evaluate(store, expr).value_w
