"""Metric store, rate, and query tests."""

import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridcalib.errors import (
    BadInterval,
    CounterRegression,
    EmptyWindow,
    KindMismatch,
    MemberAppend,
    NonMonotonicTimestamp,
    ParseError,
    SeriesNotEmpty,
)
from gridcalib.server import format_exposition
from gridcalib.timeseries import (
    COUNTER,
    GAUGE,
    CounterFrame,
    MetricStore,
    QueryExpr,
    QueryResult,
    Sample,
    Series,
    evaluate,
    parse_query,
    query,
    rate,
    trailing_rate,
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

def test_append_after_reads():
    # reads hand numpy copies only: a live column that exported its
    # buffer would make this append raise BufferError
    store = MetricStore()
    frame = make_frame([(t, [float(t)]) for t in range(0, 5001, 1000)], store=store)
    [series] = store.match("e", {"i": "0"})
    ts, values = series.columns()
    query(store, "sum(rate(e[2s]))")
    frame.append(6000, [6000.0])
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
    assert evaluate(store, "sum(rate(e[2s]))") == QueryResult(query(store, "sum(rate(e[2s]))"), 1, 2)
    store.get_or_create("e", {"i": "2"}, COUNTER)  # no samples: covers no window
    assert evaluate(store, "sum(rate(e[2s]))").uncovered == 2
    assert evaluate(store, "sum(rate(missing[2s]))") == QueryResult(0.0, 0, 0)


def test_trailing_rate_ends_at_the_newest_sample():
    series = Series("e", kind=COUNTER)
    assert trailing_rate(series, 2000) is None  # empty
    series.append((1000, 0.0))
    series.append((2500, 30.0))
    assert trailing_rate(series, 2000) is None  # the window starts before the first sample
    assert trailing_rate(series, 1000) == rate(series, 1500, 2500)
    series.append((4000, 60.0))
    assert trailing_rate(series, 2000) == rate(series, 2000, 4000)


def test_query_at_explicit_time():
    # each series' window ends at its own newest sample, so a series whose
    # samples stop before another's is still read over a whole window
    store = ramp_store(end_ms=3000)
    store.append("e_joules", {"ns": "bench", "idx": "0"}, COUNTER, (4500, 45.0))
    got = evaluate(store, 'sum(rate(e_joules{ns="bench"}[2s]))')
    assert got.value_w == pytest.approx(20.0, rel=1e-12)
    assert got.uncovered == 0


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
    assert all(series.last_timestamp() == now for series in store.match("e"))
    assert query(store, "sum(rate(e[2s]))") == pytest.approx(expected, rel=1e-9)


# store index: postings and key order

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
    total, uncovered = 0.0, 0
    for s in brute:
        end = s.last_timestamp()
        try:
            total += rate(s, end - 1000, end)
        except EmptyWindow:
            uncovered += 1
    assert evaluate(store, expr) == (total, uncovered, len(brute))  # bit-identical: same summation order


@given(
    # every name draws its labels from the same pairs, so a posting keyed
    # by the pair alone would mix names; the sizes of a filter's postings
    # differ, so each of them is the smallest on some draw
    st.lists(
        st.tuples(
            st.sampled_from(["e", "e_x", "f"]),
            st.fixed_dictionaries(
                {"ns": st.sampled_from(["a", "b"])},
                optional={
                    "mode": st.sampled_from(["dyn", "idle"]),
                    "proc": st.sampled_from(["p0", "p1", "p2", "p3"]),
                },
            ),
        ),
        max_size=80,
    ),
    st.sampled_from(["e", "e_x", "f", "g"]),
    # "c" and "zone" are on no series
    st.fixed_dictionaries(
        {},
        optional={
            "ns": st.sampled_from(["a", "b", "c"]),
            "mode": st.sampled_from(["dyn", "idle"]),
            "proc": st.sampled_from(["p0", "p1", "p2", "p3"]),
            "zone": st.just("z"),
        },
    ),
)
@example(
    # the two postings are the same size, and each holds a series the other lacks
    created=[("e", {"ns": "a"}), ("f", {"ns": "a", "mode": "dyn"}),
             ("e", {"ns": "b", "mode": "dyn"}), ("e", {"ns": "a", "mode": "dyn"})],
    name="e",
    filters={"ns": "a", "mode": "dyn"},
)
@settings(max_examples=200, deadline=None)
def test_match_equals_brute_force_filter_in_key_order(created, name, filters):
    store = MetricStore()
    for metric, labels in created:
        store.get_or_create(metric, labels, COUNTER)
    brute = [
        s for s in store.series()
        if s.name == name and all(s.labels.get(k) == v for k, v in filters.items())
    ]
    assert store.match(name, filters) == brute


def uncached_exposition(store):
    """format_exposition as it was before the per-series memo: every line
    rendered from the columns on every call."""
    lines = []
    for series in store.series():
        n = len(series._ts)
        if n:
            lines.append(
                f"{series.exposition_name} {series._values[n - 1]!r} {series._ts[n - 1]}\n"
            )
    return "".join(lines)


def test_exposition_memo_agrees_with_uncached_render():
    store = MetricStore()
    steps = [
        lambda: store.append("e", {"ns": "a", "mode": "dynamic"}, COUNTER, (1000, 1.5)),
        lambda: store.append("e", {"ns": "b", "mode": "idle"}, COUNTER, (1000, 0.1)),  # new series
        lambda: store.append("e", {"ns": "a", "mode": "dynamic"}, COUNTER, (2000, 2.25)),  # new sample
        lambda: store.get_or_create("e", {"ns": "c"}, COUNTER),  # empty series
        lambda: store.append("meter_watts", {}, GAUGE, (1500, 1e-05)),  # label-less gauge
        lambda: store.append("meter_watts", {}, GAUGE, (2500, 231.0)),
        lambda: store.append("e", {"ns": "c"}, COUNTER, (3000, 0.0)),  # the empty one fills
    ]
    for step in steps:
        step()
        assert format_exposition(store) == uncached_exposition(store)
        assert format_exposition(store) == uncached_exposition(store)  # served from the memo
    assert format_exposition(store).splitlines()[-1] == "meter_watts 231.0 2500"


def test_exposition_append_changes_only_its_own_line():
    store = ramp_store()
    before = format_exposition(store)
    assert format_exposition(store) == before
    [moved] = store.match("e_joules", {"ns": "other", "idx": "0"})
    moved.append((6000, 61.0))
    after = format_exposition(store)
    assert after == uncached_exposition(store)
    changed = [
        (old, new) for old, new in zip(before.splitlines(), after.splitlines()) if old != new
    ]
    assert changed == [(
        'e_joules{idx="0",ns="other"} 50.0 5000', 'e_joules{idx="0",ns="other"} 61.0 6000'
    )]


def test_reads_race_series_creation():
    store = MetricStore()
    expr = 'sum(rate(e{mode="dynamic"}[2s]))'
    errors = []
    stop = threading.Event()

    # f{i="0"} and f{i="1"} hold t and 2t joules at t seconds: 1 and 2 W
    frame = CounterFrame([store.get_or_create("f", {"i": str(i)}, COUNTER) for i in range(2)])

    def write():
        try:
            for t in range(1, 201):
                frame.append(t * 1000, [float(t), 2.0 * t])
                for i in range(t % 7 + 1):
                    labels = {"mode": "dynamic" if i % 2 else "idle", "proc": f"p{t}-{i}"}
                    store.append("e", labels, COUNTER, (t * 1000, float(t)))
                for series in store.match("e")[:20]:
                    series.append((t * 1000 + 500, float(t) + 1.0))
        except Exception as exc:  # reported below
            errors.append(exc)
        finally:
            stop.set()

    def read():
        newest = {}  # series key -> timestamp on its last exposition line read
        try:
            while not stop.is_set():
                store.series()
                for series in store.match("e", {"mode": "dynamic"})[:20]:
                    ts, values = series.columns()
                    assert len(ts) == len(values)
                for i, member in enumerate(frame.members):
                    ts, joules = member.columns()
                    assert joules.tolist() == [(i + 1) * t / 1000 for t in ts.tolist()]
                query(store, expr)
                assert store.match("missing") == []
                format_exposition(store)
                for series in store.series():
                    line = series.exposition_line()
                    if line:
                        ts = int(line.rsplit(" ", 1)[1])
                        last = newest.get(series.key, -1)
                        assert ts >= last, f"{series.key}: line fell from {last} to {ts}"
                        newest[series.key] = ts
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
    assert format_exposition(store) == uncached_exposition(store)


# counter frame


def make_frame(rows, width=None, store=None):
    """A frame of `width` counters (the rows' width by default) named
    e{i="<index>"}, with the rows appended."""
    store = store if store is not None else MetricStore()
    width = len(rows[0][1]) if width is None else width
    frame = CounterFrame(
        [store.get_or_create("e", {"i": str(i)}, COUNTER) for i in range(width)]
    )
    for timestamp_ms, row in rows:
        frame.append(timestamp_ms, row)
    return frame


frame_rows = st.integers(min_value=1, max_value=5).flatmap(
    lambda width: st.lists(
        st.tuples(
            st.one_of(st.just(1000), st.integers(min_value=1, max_value=3000)),
            st.lists(
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
                min_size=width,
                max_size=width,
            ),
        ),
        max_size=12,
    ).map(
        # (gap, increments) pairs to monotone counters starting at t=2000
        lambda steps: (width, [
            (
                2000 + sum(g for g, _ in steps[: i + 1]),
                [sum(column) for column in zip(*(inc for _, inc in steps[: i + 1]))],
            )
            for i in range(len(steps))
        ])
    )
)


@given(frame_rows, st.data())
@settings(max_examples=300, deadline=None)
def test_trailing_rates_equal_each_members_trailing_rate(rows, data):
    # windows that start on a row, between rows, before the first row,
    # and on a frame of zero or one row, which covers no window
    width, rows = rows
    frame = make_frame(rows, width)
    windows = st.integers(min_value=1, max_value=40_000)
    if len(rows) > 1:
        end = rows[-1][0]
        windows = st.one_of(windows, st.sampled_from([end - t for t, _ in rows[:-1]]))
    window_ms = data.draw(windows)
    want = [trailing_rate(series, window_ms) for series in frame.members]
    got = frame.trailing_rates(window_ms)
    if None in want:
        assert want == [None] * width and got is None
    else:
        assert [value.hex() for value in got] == [value.hex() for value in want]


def test_trailing_rates_reject_an_empty_window():
    frame = make_frame([(0, [0.0]), (1000, [1.0])])
    with pytest.raises(BadInterval):
        frame.trailing_rates(0)


@pytest.mark.parametrize(
    "timestamp_ms, row, error",
    [
        (3000, [3.0], ValueError),
        (3000, [3.0, 3.0, 3.0], ValueError),
        (3000, [3.0, float("nan")], ValueError),
        (3000, [float("inf"), 3.0], ValueError),
        (-1, [3.0, 3.0], ValueError),
        (2**63, [3.0, 3.0], ValueError),
        (2000, [3.0, 3.0], NonMonotonicTimestamp),
        (1500, [3.0, 3.0], NonMonotonicTimestamp),
        (3000, [3.0, 1.0], CounterRegression),
    ],
    ids=[
        "narrow", "wide", "nan", "inf", "negative", "past-int64",
        "repeated-timestamp", "earlier-timestamp", "one-member-regressing",
    ],
)
def test_rejected_frame_append_leaves_every_column_unchanged(timestamp_ms, row, error):
    frame = make_frame([(1000, [1.0, 1.0]), (2000, [2.0, 2.0])])
    before = [(len(s), s.last(), *(c.tolist() for c in s.columns())) for s in frame.members]
    with pytest.raises(error):
        frame.append(timestamp_ms, row)
    after = [(len(s), s.last(), *(c.tolist() for c in s.columns())) for s in frame.members]
    assert after == before
    frame.append(3000, [3.0, 3.0])
    assert [s.last() for s in frame.members] == [Sample(3000, 3.0)] * 2


def test_frame_members_share_one_timestamp_column():
    frame = make_frame([(1000, [1.0, 10.0]), (2000, [2.0, 20.0])])
    first, second = frame.members
    assert first._ts is second._ts
    assert [c.tolist() for c in second.columns()] == [[1000, 2000], [10.0, 20.0]]
    assert first.exposition_line() == 'e{i="0"} 2.0 2000\n'


def test_direct_member_append_raises():
    frame = make_frame([(1000, [1.0, 1.0])])
    member = frame.members[1]
    with pytest.raises(MemberAppend):
        member.append((2000, 2.0))
    assert [len(s) for s in frame.members] == [1, 1]
    assert [len(s._values) for s in frame.members] == [1, 1]
    plain = make_counter([(1000, 1.0)])  # a plain series still appends
    plain.append((2000, 2.0))
    assert plain.last() == Sample(2000, 2.0)


def test_frame_takes_only_empty_unframed_counters():
    store = MetricStore()
    empty = store.get_or_create("e", {"i": "0"}, COUNTER)
    filled = store.get_or_create("e", {"i": "1"}, COUNTER)
    filled.append((1000, 1.0))
    with pytest.raises(SeriesNotEmpty):
        CounterFrame([empty, filled])
    # nothing was written: the empty series is still a plain series
    assert empty._ts is not filled._ts
    empty.append((1000, 1.0))
    with pytest.raises(SeriesNotEmpty):  # a member of another frame, still empty
        CounterFrame(make_frame([], width=1).members)
    with pytest.raises(SeriesNotEmpty):
        CounterFrame(make_frame([(1000, [1.0])]).members)
    twice = make_counter([])
    with pytest.raises(SeriesNotEmpty):
        CounterFrame([twice, twice])
    with pytest.raises(KindMismatch):
        CounterFrame([Series("w", {}, GAUGE)])


def test_frame_reads_race_frame_appends():
    # member i holds (i + 1) * k joules at k seconds, so every sample a
    # reader sees names its row, and every 2 s rate is i + 1 watts
    store = MetricStore()
    width = 8
    frame = make_frame([], width, store)
    errors = []
    stop = threading.Event()

    def write():
        try:
            for k in range(600):
                frame.append(k * 1000, [(i + 1) * float(k) for i in range(width)])
        except Exception as exc:  # reported below
            errors.append(exc)
        finally:
            stop.set()

    def check(i, timestamp_ms, value):
        assert value == (i + 1) * (timestamp_ms // 1000), (i, timestamp_ms, value)

    def read():
        try:
            while not stop.is_set():
                for i, series in enumerate(frame.members):
                    line = series.exposition_line()
                    if line:
                        _, value, ts = line.split()
                        check(i, int(ts), float(value))
                    last = series.last()
                    if last is not None:
                        check(i, *last)
                    ts, values = series.columns()
                    assert len(ts) == len(values)
                    for t, v in zip(ts.tolist(), values.tolist()):
                        check(i, t, v)
                    assert trailing_rate(series, 2000) in (None, i + 1)
                watts = frame.trailing_rates(2000)
                assert watts is None or watts == [i + 1.0 for i in range(width)]
                # the post-pass's read: the timestamps once, then each value
                # column, whose later copy holds at least as many rows
                emitted = frame.members[0].columns()[0]
                for i, series in enumerate(frame.members):
                    values = series.columns()[1][:len(emitted)]
                    assert len(values) == len(emitted)
                    for t, v in zip(emitted.tolist(), values.tolist()):
                        check(i, t, v)
                # coverage only grows, so the covered members are the last ones
                result = evaluate(store, "sum(rate(e[2s]))")
                assert result.matched == width
                assert result.value_w == sum(range(result.uncovered + 1, width + 1))
        except Exception as exc:  # reported below
            errors.append(exc)

    readers = [threading.Thread(target=read) for _ in range(3)]
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
    assert [len(series) for series in frame.members] == [600] * width
