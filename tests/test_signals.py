"""Signal and clock behaviour: firing order, retention, non-blocking reads."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib.errors import ParseError
from gridcalib.signals import (
    DEFAULT_SIGNAL_INTERVAL_MS,
    Signal,
    VirtualClock,
    WallClock,
    make_collector_signal,
    make_query_signal,
)
from gridcalib.timeseries import COUNTER, MetricStore


def test_initial_value_is_zero_before_first_firing():
    clock = VirtualClock()
    sig = make_collector_signal(lambda: 42.0, interval_ms=1000, clock=clock)
    assert sig.now() == 0.0
    assert sig.last_collection_ms == 0
    clock.advance(999)
    assert sig.now() == 0.0


def test_collector_value_visible_after_one_interval():
    clock = VirtualClock()
    sig = make_collector_signal(lambda: 42.0, interval_ms=1000, clock=clock)
    clock.advance(1000)
    assert sig.now() == 42.0
    assert sig.last_collection_ms == 1000


def test_interval_defaults_to_1000ms():
    clock = VirtualClock()
    sig = make_collector_signal(lambda: 7.0, clock=clock)
    assert sig.interval_ms == DEFAULT_SIGNAL_INTERVAL_MS == 1000
    clock.advance(999)
    assert sig.now() == 0.0
    clock.advance(1)
    assert sig.now() == 7.0


def test_value_constant_between_firings():
    clock = VirtualClock()
    values = iter([1.0, 2.0, 3.0])
    sig = make_collector_signal(lambda: next(values), interval_ms=1000, clock=clock)
    clock.advance(1500)
    assert sig.now() == 1.0
    clock.advance(400)
    assert sig.now() == 1.0
    clock.advance(100)
    assert sig.now() == 2.0


def test_failed_collection_retains_value_and_counts():
    clock = VirtualClock()
    calls = {"n": 0}

    def collector() -> float:
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("scrape failed")
        return float(calls["n"])

    sig = make_collector_signal(collector, interval_ms=1000, clock=clock)
    clock.advance(1000)
    assert sig.now() == 1.0
    assert sig.error_count == 0
    clock.advance(1000)
    assert sig.now() == 1.0
    assert sig.error_count == 1
    assert sig.last_collection_ms == 1000
    clock.advance(1000)
    assert sig.now() == 3.0
    assert sig.error_count == 1
    assert sig.last_collection_ms == 3000


def test_firing_instant_is_clock_time_during_advance():
    # collectors observe the due instant, not the advance target
    clock = VirtualClock()
    seen: list[int] = []
    sig = make_collector_signal(
        lambda: float(seen.append(clock.now_ms()) or len(seen)),
        interval_ms=1000,
        clock=clock,
    )
    clock.advance(3500)
    assert seen == [1000, 2000, 3000]
    assert clock.now_ms() == 3500
    assert sig.now() == 3.0


def test_same_instant_firing_follows_registration_order():
    clock = VirtualClock()
    order: list[str] = []
    make_collector_signal(lambda: order.append("first") or 0.0, interval_ms=1000, clock=clock)
    make_collector_signal(lambda: order.append("second") or 0.0, interval_ms=1000, clock=clock)
    clock.advance(2000)
    assert order == ["first", "second", "first", "second"]


def test_close_stops_collection():
    clock = VirtualClock()
    values = iter([1.0, 2.0])
    sig = make_collector_signal(lambda: next(values), interval_ms=1000, clock=clock)
    clock.advance(1000)
    sig.close()
    clock.advance(5000)
    assert sig.now() == 1.0


def test_nonpositive_interval_rejected():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        make_collector_signal(lambda: 0.0, interval_ms=0, clock=clock)
    with pytest.raises(ValueError):
        make_collector_signal(lambda: 0.0, interval_ms=-5, clock=clock)


@settings(max_examples=60, deadline=None)
@given(
    interval=st.integers(min_value=1, max_value=5000),
    total=st.integers(min_value=0, max_value=50000),
)
def test_firing_count_is_floor_of_elapsed_over_interval(interval, total):
    clock = VirtualClock()
    fired = {"n": 0}

    def collector() -> float:
        fired["n"] += 1
        return 0.0

    make_collector_signal(collector, interval_ms=interval, clock=clock)
    clock.advance(total)
    assert fired["n"] == total // interval


def test_advance_split_fires_same_as_one_big_advance():
    def run(steps):
        clock = VirtualClock()
        fired = {"n": 0}

        def collector() -> float:
            fired["n"] += 1
            return 0.0

        make_collector_signal(collector, interval_ms=700, clock=clock)
        for s in steps:
            clock.advance(s)
        return fired["n"]

    assert run([10000]) == run([3000, 3000, 4000]) == run([1] * 10000) == 10000 // 700


class TestQuerySignal:
    def test_tracks_counter_rate(self):
        store = MetricStore()
        clock = VirtualClock()
        series = store.get_or_create(
            "kepler_container_platform_joules_total",
            {"container_namespace": "bench"},
            COUNTER,
        )
        series.append((0, 0.0))

        # emitter registered before the signal so it runs first at shared instants
        joules = {"v": 0.0}

        def emit() -> None:
            joules["v"] += 10.0
            series.append((clock.now_ms(), joules["v"]))

        clock.schedule(1000, emit)
        sig = make_query_signal(
            store,
            'sum(rate(kepler_container_platform_joules_total{container_namespace="bench"}[2s]))',
            clock=clock,
        )
        clock.advance(2000)
        assert sig.now() == pytest.approx(10.0, rel=1e-9)

    def test_empty_selector_reads_zero(self):
        store = MetricStore()
        clock = VirtualClock()
        sig = make_query_signal(store, "rate(no_such_metric[2s])", clock=clock)
        clock.advance(3000)
        assert sig.now() == 0.0
        assert sig.error_count == 0

    def test_malformed_expression_fails_at_construction(self):
        store = MetricStore()
        clock = VirtualClock()
        with pytest.raises(ParseError):
            make_query_signal(store, "sum(rate(broken[2s])", clock=clock)


class TestWallClock:
    def test_now_does_not_block_on_slow_collector(self):
        clock = WallClock()
        release = threading.Event()

        def slow() -> float:
            release.wait(5.0)
            return 99.0

        sig = make_collector_signal(slow, interval_ms=10, clock=clock)
        try:
            time.sleep(0.05)  # collector is now stuck inside its first firing
            t0 = time.monotonic()
            value = sig.now()
            elapsed = time.monotonic() - t0
            assert value == 0.0
            assert elapsed < 0.5
        finally:
            release.set()
            sig.close()

    def test_collects_in_real_time(self):
        clock = WallClock()
        sig = make_collector_signal(lambda: 5.0, interval_ms=20, clock=clock)
        try:
            deadline = time.monotonic() + 2.0
            while sig.now() == 0.0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert sig.now() == 5.0
        finally:
            sig.close()

    def test_no_catch_up_burst_after_slow_collection(self):
        clock = WallClock()
        fired: list[float] = []
        t0 = time.monotonic()

        def collector() -> float:
            fired.append(time.monotonic() - t0)
            if len(fired) == 1:
                time.sleep(0.25)  # miss several 50 ms intervals
            return float(len(fired))

        sig = make_collector_signal(collector, interval_ms=50, clock=clock)
        try:
            time.sleep(0.6)
        finally:
            sig.close()
        # a catch-up burst would fire back-to-back; gaps must stay near the interval
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        assert gaps, "expected at least two firings"
        assert all(g > 0.03 for g in gaps)

    def test_advance_paces_real_time(self):
        clock = WallClock()
        t0 = time.monotonic()
        clock.advance(30)
        clock.advance(30)
        assert time.monotonic() - t0 >= 0.055


def test_signal_constructible_directly():
    clock = VirtualClock()
    sig = Signal(lambda: 3.5, None, clock)
    assert sig.interval_ms == 1000
    clock.advance(1000)
    assert sig.now() == 3.5
