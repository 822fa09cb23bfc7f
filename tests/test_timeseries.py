"""Metric store, rate, and query tests."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib.errors import (
    BadInterval,
    CounterRegression,
    EmptyWindow,
    KindMismatch,
    NonMonotonicTimestamp,
    ParseError,
)
from gridcalib.server import format_exposition
from gridcalib.timeseries import (
    COUNTER,
    GAUGE,
    MetricStore,
    QueryExpr,
    Sample,
    Series,
    parse_query,
    query,
    rate,
    rates,
)


def make_counter(samples, name="e_joules", labels=None):
    s = Series(name, labels or {}, COUNTER)
    for ts, v in samples:
        s.append((ts, v))
    return s


# append semantics

def test_append_empty_store_base_case():
    store = MetricStore()
    store.append("e", {}, COUNTER, Sample(1000, 0.0))
    assert len(store.series()) == 1
    [series] = store.match("e")
    assert len(series) == 1 and series.last() == Sample(1000, 0.0)


def test_append_monotone_counter_accepted():
    s = make_counter([(1000, 0.0)])
    s.append((2000, 100.0))
    assert s.last() == Sample(2000, 100.0)


def test_append_counter_regression_rejected():
    s = make_counter([(1000, 0.0), (2000, 100.0)])
    with pytest.raises(CounterRegression):
        s.append((3000, 50.0))


def test_append_non_monotonic_timestamp_rejected():
    s = make_counter([(1000, 0.0)])
    with pytest.raises(NonMonotonicTimestamp):
        s.append((1000, 1.0))
    with pytest.raises(NonMonotonicTimestamp):
        s.append((999, 1.0))


def test_append_kind_mismatch_on_existing_series():
    store = MetricStore()
    store.append("e", {}, COUNTER, (1000, 0.0))
    with pytest.raises(KindMismatch):
        store.append("e", {}, GAUGE, (2000, 1.0))


def test_gauge_may_decrease():
    s = Series("w", {}, GAUGE)
    s.append((1000, 5.0))
    s.append((2000, 3.0))
    assert s.columns()[1].tolist() == [5.0, 3.0]


@pytest.mark.parametrize(
    "sample, error",
    [
        ((2**63, 3.0), ValueError),
        ((-1, 3.0), ValueError),
        ((3000, float("nan")), ValueError),
        ((3000, float("inf")), ValueError),
        ((2000, 3.0), NonMonotonicTimestamp),
        ((3000, 1.0), CounterRegression),
    ],
    ids=["past-int64", "negative", "nan", "inf", "non-monotonic", "counter-regression"],
)
def test_rejected_append_leaves_columns_unchanged(sample, error):
    s = make_counter([(1000, 1.0), (2000, 2.0)])
    with pytest.raises(error):
        s.append(sample)
    assert len(s) == len(s._ts) == len(s._values) == 2
    assert s.last() == Sample(2000, 2.0)
    s.append((3000, 3.0))
    assert s.last() == Sample(3000, 3.0)


def test_int64_timestamp_limit_accepted():
    s = make_counter([(2**63 - 1, 1.0)])
    assert s.last() == Sample(2**63 - 1, 1.0)


# rate

counter_samples = st.lists(
    st.tuples(
        st.one_of(st.just(1000), st.integers(min_value=1, max_value=3000)),
        st.floats(min_value=0.0, max_value=1e6),
    ),
    max_size=12,
).map(
    # (gap, increment) pairs to a monotone counter starting at t=2000
    lambda steps: [
        (2000 + sum(g for g, _ in steps[: i + 1]), sum(v for _, v in steps[: i + 1]))
        for i in range(len(steps))
    ]
)


@given(counter_samples, st.integers(min_value=1, max_value=5000), st.data())
@settings(max_examples=200, deadline=None)
def test_vectorised_rates_equal_scalar_rate(samples, window_ms, data):
    # exact-hit, window-shifted and arbitrary end points, so windows are
    # hit exactly, interpolated, and uncovered on either side; a series
    # of zero or one sample covers no window
    series = make_counter(samples)
    stamps = [t for t, _ in samples]
    points = st.integers(min_value=0, max_value=40_000)
    if stamps:
        shifted = stamps + [t + window_ms for t in stamps]
        points = st.one_of(points, st.sampled_from(shifted))
    ends = data.draw(st.lists(points, max_size=30))
    got, covered = rates(series, np.array(ends, dtype=np.int64), window_ms)
    for t, value, ok in zip(ends, got.tolist(), covered.tolist()):
        try:
            want = rate(series, t - window_ms, t)
        except EmptyWindow:
            assert not ok and value == 0.0
        else:
            assert ok and value == want


def test_vectorised_rates_reject_what_rate_rejects():
    s = make_counter([(0, 0.0), (4000, 400.0)])
    with pytest.raises(BadInterval):
        rates(s, np.array([3000]), 0)
    g = Series("w", {}, GAUGE)
    g.append((0, 1.0))
    with pytest.raises(KindMismatch):
        rates(g, np.array([3000]), 1000)


def test_append_after_reads():
    # reads hand numpy copies only: a live column that exported its
    # buffer would make this append raise BufferError
    store = MetricStore()
    for t in range(0, 5001, 1000):
        store.append("e", {"i": "0"}, COUNTER, (t, float(t)))
    [series] = store.match("e", {"i": "0"})
    ts, values = series.columns()
    rates(series, ts, 2000)
    query(store, "sum(rate(e[2s]))")
    series.append((6000, 6000.0))
    assert len(series) == 7 and len(ts) == len(values) == 6

def test_rate_difference_quotient():
    # (160 - 100) J over 2 s -> 30.0 W
    s = make_counter([(10_000, 100.0), (12_000, 160.0)])
    assert rate(s, 10_000, 12_000) == 30.0


def test_rate_constant_counter_is_zero():
    s = make_counter([(10_000, 500.0), (12_000, 500.0)])
    assert rate(s, 10_000, 12_000) == 0.0


def test_rate_interpolates_boundaries():
    # f is linear 0 -> 400 J over 4 s; f(1000)=100, f(3000)=300; (300-100)/2 s
    s = make_counter([(0, 0.0), (4000, 400.0)])
    assert rate(s, 1000, 3000) == 100.0


def test_rate_bad_interval():
    s = make_counter([(0, 0.0), (4000, 400.0)])
    with pytest.raises(BadInterval):
        rate(s, 3000, 3000)
    with pytest.raises(BadInterval):
        rate(s, 3000, 1000)


def test_rate_window_not_covered():
    s = make_counter([(1000, 0.0), (2000, 10.0)])
    with pytest.raises(EmptyWindow):
        rate(s, 0, 2000)
    with pytest.raises(EmptyWindow):
        rate(s, 1000, 3000)
    with pytest.raises(EmptyWindow):
        rate(make_counter([]), 0, 1000)


def test_rate_requires_counter():
    g = Series("w", {}, GAUGE)
    g.append((0, 1.0))
    g.append((2000, 2.0))
    with pytest.raises(KindMismatch):
        rate(g, 0, 2000)


# moving average rate: rate() over the trailing window [now - w, now]

def test_moving_average_rate_recovers_constant_power():
    # constant 50 W -> f(t) = 0.05 J/ms
    s = make_counter([(t, 0.05 * t) for t in range(0, 10_001, 1000)])
    for now in range(2000, 10_001, 500):
        assert rate(s, now - 2000, now) == pytest.approx(50.0, rel=1e-12)


def test_moving_average_rate_power_step():
    # 0 W until 4 s, then 100 W; window [3 s, 5 s] averages to 50 W
    s = make_counter([(t, 0.0) for t in range(0, 4001, 1000)]
                     + [(t, 100.0 * (t - 4000) / 1000) for t in range(5000, 8001, 1000)])
    assert rate(s, 5000 - 2000, 5000) == 50.0


def test_moving_average_rate_whole_series():
    s = make_counter([(0, 0.0), (60_000, 60.0)])
    assert rate(s, 60_000 - 60_000, 60_000) == 1.0


def test_moving_average_rate_rejects_bad_window():
    s = make_counter([(0, 0.0), (2000, 1.0)])
    with pytest.raises(BadInterval):
        rate(s, 2000 - 0, 2000)


# query grammar

def test_parse_query_full_form():
    e = parse_query('sum(rate(e_joules{ns="bench",mode="dynamic"}[2s]))')
    assert e.metric == "e_joules"
    assert e.label_map() == {"ns": "bench", "mode": "dynamic"}
    assert e.window_ms == 2000
    # the outer sum is optional: both spellings are one query
    assert e == parse_query('rate(e_joules{ns="bench",mode="dynamic"}[2s])')


def test_parse_query_whitespace_insensitive():
    e = parse_query('  sum ( rate ( e { a = "b" , c = "d" } [ 10 s ] ) )  ')
    assert e.metric == "e"
    assert e.label_map() == {"a": "b", "c": "d"}
    assert e.window_ms == 10_000


def test_parse_query_sum_optional_and_no_labels():
    e = parse_query("rate(node_total[2s])")
    assert e == parse_query("sum(rate(node_total[2s]))")
    assert e.label_map() == {}
    assert parse_query("rate(node_total{}[2s])").label_map() == {}


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "rate()",
        "sum(rate(e[2s])",          # unbalanced
        "rate(e[2s]))",             # unbalanced
        'rate(2e{a="b"}[2s])',      # bad metric name
        'rate(e{a=b}[2s])',         # unquoted value
        'rate(e{a="b" c="d"}[2s])', # missing comma
        'rate(e{a="b",a="c"}[2s])', # duplicate key
        "rate(e[0s])",              # zero window
        "rate(e[2m])",              # wrong unit
        "avg(rate(e[2s]))",         # unknown function
    ],
)
def test_parse_query_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_query(bad)


# query evaluation

def ramp_store(end_ms=5000):
    store = MetricStore()
    for ns in ("bench", "other"):
        for i, rate_jps in ((0, 10.0), (1, 10.0)):
            name_labels = {"ns": ns, "idx": str(i)}
            for t in range(0, end_ms + 1, 1000):
                store.append("e_joules", name_labels, COUNTER, (t, rate_jps * t / 1000))
    return store


def test_query_sums_matching_series():
    store = ramp_store()
    # two bench series at 10 J/s each
    assert query(store, 'sum(rate(e_joules{ns="bench"}[2s]))') == pytest.approx(20.0, rel=1e-12)


def test_query_empty_selector_is_zero():
    store = ramp_store()
    assert query(store, 'sum(rate(e_joules{ns="nope"}[2s]))') == 0.0
    assert query(store, "sum(rate(missing[2s]))") == 0.0


def test_query_single_series():
    store = MetricStore()
    for t in range(0, 5001, 1000):
        store.append("e_joules", {"ns": "bench", "mode": "dynamic"}, COUNTER, (t, 7.0 * t / 1000))
    got = query(store, 'sum(rate(e_joules{ns="bench",mode="dynamic"}[2s]))')
    assert got == pytest.approx(7.0, rel=1e-12)


def test_query_uncovered_series_contributes_zero():
    store = MetricStore()
    store.append("e", {"i": "0"}, COUNTER, (0, 0.0))
    store.append("e", {"i": "0"}, COUNTER, (4000, 40.0))
    # this one starts too late to cover the window ending at t=4000
    store.append("e", {"i": "1"}, COUNTER, (3500, 0.0))
    store.append("e", {"i": "1"}, COUNTER, (4000, 100.0))
    assert query(store, "sum(rate(e[2s]))") == pytest.approx(10.0, rel=1e-12)


def test_query_at_explicit_time():
    # a query reads at the store's watermark, so the samples end at the
    # wanted instant
    store = ramp_store(end_ms=3000)
    assert store.current_time_ms() == 3000
    assert query(store, 'sum(rate(e_joules{ns="bench"}[2s]))') == pytest.approx(20.0, rel=1e-12)


# properties

@given(
    st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=4, max_size=40),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rate_additivity(increments, data):
    # random monotone counter sampled every second
    cum, samples = 0.0, [(0, 0.0)]
    for i, inc in enumerate(increments):
        cum += inc
        samples.append(((i + 1) * 1000, cum))
    s = make_counter(samples)
    t_end = samples[-1][0]
    t1 = data.draw(st.integers(min_value=0, max_value=t_end - 2))
    t3 = data.draw(st.integers(min_value=t1 + 2, max_value=t_end))
    t2 = data.draw(st.integers(min_value=t1 + 1, max_value=t3 - 1))
    lhs = rate(s, t1, t3) * (t3 - t1)
    rhs = rate(s, t1, t2) * (t2 - t1) + rate(s, t2, t3) * (t3 - t2)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
    assert rate(s, t1, t3) >= 0.0


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_query_matches_per_series_sum(n_series, n_windows):
    # brute-force oracle: query == sum of independent rate() calls
    store = MetricStore()
    now = n_windows * 1000
    for i in range(n_series):
        slope = 3.0 * (i + 1)
        for t in range(0, now + 1, 1000):
            store.append("e", {"i": str(i)}, COUNTER, (t, slope * t / 1000))
    expected = sum(rate(series, now - 2000, now) for series in store.match("e"))
    assert store.current_time_ms() == now
    assert query(store, "sum(rate(e[2s]))") == pytest.approx(expected, rel=1e-9)


# store index: postings, key order and watermark

def _key(series):
    return (series.name, tuple(sorted(series.labels.items())))


_label_maps = st.dictionaries(
    st.sampled_from(["ns", "mode", "proc"]), st.sampled_from(["a", "b", "c"]), max_size=3
)


@given(
    # names that prefix one another check the bounds of each name's run of keys
    st.lists(st.tuples(st.sampled_from(["e", "e\0", "e_x", "f"]), _label_maps), max_size=30),
    st.sampled_from(["e", "e\0", "e_x", "f", "g"]),
    _label_maps,
    st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_index_agrees_with_brute_force_scan(created, name, filters, increments):
    store = MetricStore()
    made = {}
    for i, (metric, labels) in enumerate(created):
        series = store.get_or_create(metric, labels, COUNTER)
        made[_key(series)] = series
        if len(series) == 0:
            # distinct per-series slopes make the sum depend on its order
            cum = 0.0
            for k, inc in enumerate(increments):
                cum += inc * (i + 1) / 7.0
                series.append((k * 1000, cum))
    ordered = [made[k] for k in sorted(made)]
    assert store.series() == ordered

    brute = [
        s for s in ordered
        if s.name == name and all(s.labels.get(k) == v for k, v in filters.items())
    ]
    assert store.match(name, filters) == brute
    assert store.match(name) == [s for s in ordered if s.name == name]

    expr = QueryExpr(metric=name, labels=tuple(filters.items()), window_ms=1000)
    now = store.current_time_ms()
    total = 0.0
    for s in brute:
        try:
            total += rate(s, now - 1000, now)
        except EmptyWindow:
            continue
    assert query(store, expr) == total  # bit-identical: same summation order


def test_watermark_tracks_appends_both_ways():
    store = MetricStore()
    assert store.current_time_ms() == 0
    handle = store.get_or_create("e", {"ns": "a"}, COUNTER)
    handle.append((4000, 1.0))  # the emitter and meter path
    assert store.current_time_ms() == 4000
    store.append("e", {"ns": "b"}, COUNTER, (2500, 1.0))
    assert store.current_time_ms() == 4000
    store.append("e", {"ns": "b"}, COUNTER, (7000, 2.0))
    assert store.current_time_ms() == 7000
    with pytest.raises(NonMonotonicTimestamp):
        handle.append((4000, 3.0))
    handle.append((6000, 3.0))
    assert store.current_time_ms() == max(s.last_timestamp() for s in store.series()) == 7000

    alone = Series("e", {"ns": "a"}, COUNTER)
    alone.append((9000, 1.0))
    assert alone.last() == Sample(9000, 1.0)
    assert store.current_time_ms() == 7000


def test_reads_race_series_creation():
    store = MetricStore()
    expr = 'sum(rate(e{mode="dynamic"}[2s]))'
    errors = []
    stop = threading.Event()

    def write():
        try:
            for t in range(1, 201):
                for i in range(t % 7 + 1):
                    labels = {"mode": "dynamic" if i % 2 else "idle", "proc": f"p{t}-{i}"}
                    store.append("e", labels, COUNTER, (t * 1000, float(t)))
                for series in store.series()[:20]:
                    series.append((t * 1000 + 500, float(t) + 1.0))
        except Exception as exc:  # reported below
            errors.append(exc)
        finally:
            stop.set()

    def read():
        last = 0
        try:
            while not stop.is_set():
                store.series()
                for series in store.match("e", {"mode": "dynamic"})[:20]:
                    ts, values = series.columns()
                    assert len(ts) == len(values)
                    rates(series, ts, 2000)
                query(store, expr)
                assert store.match("missing") == []
                format_exposition(store)
                now = store.current_time_ms()
                assert now >= last, f"watermark fell from {last} to {now}"
                last = now
        except Exception as exc:  # reported below
            errors.append(exc)

    readers = [threading.Thread(target=read) for _ in range(4)]
    writer = threading.Thread(target=write)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers + [writer]:
            thread.start()
        for thread in [writer] + readers:
            thread.join(timeout=60)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + [writer])
    assert errors == []
    assert store.current_time_ms() == 200_500
