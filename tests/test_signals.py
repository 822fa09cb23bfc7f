"""Signal and clock behaviour: firing order, pacing, the collection record."""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib.config import ScenarioConfig
from gridcalib.signals import Signal, VirtualClock, WallClock


def recording_collector(clock):
    """A collector that records the clock instant of each of its calls."""
    calls: list[int] = []
    return calls, lambda: calls.append(clock.now_ms())


def test_initial_value_is_zero_before_first_firing():
    # last_collection_ms starts at 0 and stays there until the first firing
    clock = VirtualClock()
    calls, collector = recording_collector(clock)
    sig = Signal(collector, interval_ms=1000, clock=clock)
    assert sig.last_collection_ms == 0
    clock.advance(999)
    assert sig.last_collection_ms == 0
    assert calls == []


def test_collector_value_visible_after_one_interval():
    clock = VirtualClock()
    calls, collector = recording_collector(clock)
    sig = Signal(collector, interval_ms=1000, clock=clock)
    clock.advance(1000)
    assert calls == [1000]
    assert sig.last_collection_ms == 1000
    assert sig.error_count == 0


def test_interval_defaults_to_1000ms():
    # the config holds the one default; the signal takes it as given
    interval = ScenarioConfig(duration_ms=1000, seed=0).signal_interval_ms
    assert interval == 1000
    clock = VirtualClock()
    calls, collector = recording_collector(clock)
    sig = Signal(collector, interval, clock)
    clock.advance(999)
    assert calls == []
    clock.advance(1)
    assert calls == [1000]
    assert sig.last_collection_ms == 1000


def test_failed_collection_retains_value_and_counts():
    # a failure keeps the last successful collection's instant
    clock = VirtualClock()
    calls: list[int] = []

    def collector() -> None:
        calls.append(clock.now_ms())
        if len(calls) == 2:
            raise RuntimeError("scrape failed")

    sig = Signal(collector, interval_ms=1000, clock=clock)
    clock.advance(1000)
    assert sig.error_count == 0
    assert sig.last_collection_ms == 1000
    clock.advance(1000)
    assert sig.error_count == 1
    assert sig.last_collection_ms == 1000
    clock.advance(1000)
    assert sig.error_count == 1
    assert sig.last_collection_ms == 3000
    assert calls == [1000, 2000, 3000]


def test_firing_instant_is_clock_time_during_advance():
    # collectors observe the due instant, not the advance target
    clock = VirtualClock()
    seen, collector = recording_collector(clock)
    sig = Signal(collector, interval_ms=1000, clock=clock)
    clock.advance(3500)
    assert seen == [1000, 2000, 3000]
    assert clock.now_ms() == 3500
    assert sig.last_collection_ms == 3000


def test_same_instant_firing_follows_registration_order():
    clock = VirtualClock()
    order: list[str] = []
    Signal(lambda: order.append("first"), interval_ms=1000, clock=clock)
    Signal(lambda: order.append("second"), interval_ms=1000, clock=clock)
    clock.advance(2000)
    assert order == ["first", "second", "first", "second"]


def test_nonpositive_interval_rejected():
    # the clock's schedule() checks every interval
    clock = VirtualClock()
    with pytest.raises(ValueError):
        Signal(lambda: None, interval_ms=0, clock=clock)
    with pytest.raises(ValueError):
        Signal(lambda: None, interval_ms=-5, clock=clock)


@settings(max_examples=60, deadline=None)
@given(
    interval=st.integers(min_value=1, max_value=5000),
    total=st.integers(min_value=0, max_value=50000),
)
def test_firing_count_is_floor_of_elapsed_over_interval(interval, total):
    clock = VirtualClock()
    fired = {"n": 0}

    def collector() -> None:
        fired["n"] += 1

    Signal(collector, interval_ms=interval, clock=clock)
    clock.advance(total)
    assert fired["n"] == total // interval


def test_advance_split_fires_same_as_one_big_advance():
    def run(steps):
        clock = VirtualClock()
        fired = {"n": 0}

        def collector() -> None:
            fired["n"] += 1

        Signal(collector, interval_ms=700, clock=clock)
        for s in steps:
            clock.advance(s)
        return fired["n"]

    assert run([10000]) == run([3000, 3000, 4000]) == run([1] * 10000) == 10000 // 700


class TestWallClock:
    def test_advance_fires_on_calling_thread_at_interval_multiples(self):
        clock = WallClock()
        fired: list[tuple[int, int]] = []

        def collector() -> None:
            fired.append((threading.get_ident(), clock.now_ms()))

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
        Signal(lambda: fired.append(1), interval_ms=10, clock=clock)
        time.sleep(0.05)
        # nothing fires until someone advances the clock
        assert fired == []
        assert threading.active_count() == before

    def test_slow_firing_delays_later_firings_but_skips_none(self):
        clock = WallClock()
        stamps: list[int] = []

        def collector() -> None:
            stamps.append(clock.now_ms())
            if len(stamps) == 1:
                time.sleep(0.25)  # overruns several 50 ms intervals

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
    calls, collector = recording_collector(clock)
    sig = Signal(collector, 1000, clock)
    clock.advance(1000)
    assert calls == [1000]
    assert (sig.last_collection_ms, sig.error_count) == (1000, 0)
