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
    make_query_signal,
)
from gridcalib.timeseries import COUNTER, MetricStore


def test_initial_value_is_zero_before_first_firing():
    clock = VirtualClock()
    sig = Signal(lambda: 42.0, interval_ms=1000, clock=clock)
    assert sig.now() == 0.0
    assert sig.last_collection_ms == 0
    clock.advance(999)
    assert sig.now() == 0.0


def test_collector_value_visible_after_one_interval():
    clock = VirtualClock()
    sig = Signal(lambda: 42.0, interval_ms=1000, clock=clock)
    clock.advance(1000)
    assert sig.now() == 42.0
    assert sig.last_collection_ms == 1000


def test_interval_defaults_to_1000ms():
    clock = VirtualClock()
    sig = Signal(lambda: 7.0, None, clock)
    assert sig.interval_ms == DEFAULT_SIGNAL_INTERVAL_MS == 1000
    clock.advance(999)
    assert sig.now() == 0.0
    clock.advance(1)
    assert sig.now() == 7.0


def test_value_constant_between_firings():
    clock = VirtualClock()
    values = iter([1.0, 2.0, 3.0])
    sig = Signal(lambda: next(values), interval_ms=1000, clock=clock)
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

    sig = Signal(collector, interval_ms=1000, clock=clock)
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
    sig = Signal(
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
    Signal(lambda: order.append("first") or 0.0, interval_ms=1000, clock=clock)
    Signal(lambda: order.append("second") or 0.0, interval_ms=1000, clock=clock)
    clock.advance(2000)
    assert order == ["first", "second", "first", "second"]


def test_nonpositive_interval_rejected():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        Signal(lambda: 0.0, interval_ms=0, clock=clock)
    with pytest.raises(ValueError):
        Signal(lambda: 0.0, interval_ms=-5, clock=clock)


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

    Signal(collector, interval_ms=interval, clock=clock)
    clock.advance(total)
    assert fired["n"] == total // interval


def test_advance_split_fires_same_as_one_big_advance():
    def run(steps):
        clock = VirtualClock()
        fired = {"n": 0}

        def collector() -> float:
            fired["n"] += 1
            return 0.0

        Signal(collector, interval_ms=700, clock=clock)
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
    def test_advance_fires_on_calling_thread_at_interval_multiples(self):
        clock = WallClock()
        fired: list[tuple[int, int]] = []

        def collector() -> float:
            fired.append((threading.get_ident(), clock.now_ms()))
            return 0.0

        Signal(collector, interval_ms=20, clock=clock)
        clock.advance(50)
        clock.advance(50)
        assert fired == [(threading.get_ident(), t) for t in (20, 40, 60, 80, 100)]
        assert clock.now_ms() == 100

    def test_fires_in_the_virtual_clocks_order(self):
        def firings(clock) -> list[tuple[str, int]]:
            order: list[tuple[str, int]] = []
            for name, interval in (("a", 30), ("b", 20), ("c", 60)):
                clock.schedule(interval, lambda name=name: order.append((name, clock.now_ms())))
            clock.advance(70)
            clock.advance(50)
            return order

        assert firings(WallClock()) == firings(VirtualClock())

    def test_schedule_starts_no_thread(self):
        before = threading.active_count()
        clock = WallClock()
        fired: list[int] = []
        Signal(lambda: fired.append(1) or 0.0, interval_ms=10, clock=clock)
        time.sleep(0.05)
        # nothing fires until someone advances the clock
        assert fired == []
        assert threading.active_count() == before

    def test_slow_firing_delays_later_firings_but_skips_none(self):
        clock = WallClock()
        stamps: list[int] = []

        def collector() -> float:
            stamps.append(clock.now_ms())
            if len(stamps) == 1:
                time.sleep(0.25)  # overruns several 50 ms intervals
            return float(len(stamps))

        Signal(collector, interval_ms=50, clock=clock)
        t0 = time.monotonic()
        clock.advance(300)
        assert stamps == [50, 100, 150, 200, 250, 300]
        assert time.monotonic() - t0 >= 0.3

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
