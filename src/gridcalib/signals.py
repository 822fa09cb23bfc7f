"""Periodic collection signals with a non-blocking read.

A signal owns one collector function. A clock fires the collector every
interval; now() returns the last collected value without touching the
collector, so a slow scrape never blocks the simulation loop. Under a
virtual clock, due firings run synchronously inside advance(), in
registration order for equal due times, which makes long scenarios
deterministic and fast to replay.
"""

from __future__ import annotations

import heapq
import threading
import time
from typing import Callable

from .timeseries import MetricStore, QueryExpr, parse_query, query

DEFAULT_SIGNAL_INTERVAL_MS = 1000


class _ScheduledTask:
    __slots__ = ("interval_ms", "fire", "seq", "cancelled")

    def __init__(self, interval_ms: int, fire: Callable[[], None], seq: int):
        self.interval_ms = interval_ms
        self.fire = fire
        self.seq = seq
        self.cancelled = False


class VirtualClock:
    """Deterministic clock; time moves only through advance()."""

    def __init__(self, start_ms: int = 0):
        self._now = int(start_ms)
        self._tasks: list[_ScheduledTask] = []
        self._due: list[tuple[int, int, _ScheduledTask]] = []
        self._seq = 0

    def now_ms(self) -> int:
        return self._now

    def schedule(self, interval_ms: int, fire: Callable[[], None]) -> _ScheduledTask:
        if interval_ms <= 0:
            raise ValueError(f"interval must be positive, got {interval_ms}")
        task = _ScheduledTask(int(interval_ms), fire, self._seq)
        self._seq += 1
        self._tasks.append(task)
        heapq.heappush(self._due, (self._now + task.interval_ms, task.seq, task))
        return task

    def cancel(self, task: _ScheduledTask) -> None:
        task.cancelled = True

    def advance(self, delta_ms: int) -> None:
        """Move time forward, firing every due task in (time, registration) order."""
        if delta_ms < 0:
            raise ValueError("cannot advance a clock backwards")
        target = self._now + int(delta_ms)
        while self._due and self._due[0][0] <= target:
            due, seq, task = heapq.heappop(self._due)
            if task.cancelled:
                continue
            self._now = due
            task.fire()
            heapq.heappush(self._due, (due + task.interval_ms, seq, task))
        self._now = target


class _WallTaskHandle:
    __slots__ = ("stop", "thread")

    def __init__(self, stop: threading.Event, thread: threading.Thread):
        self.stop = stop
        self.thread = thread


class WallClock:
    """Monotonic real-time clock; scheduled tasks run on daemon threads."""

    def __init__(self):
        self._t0 = time.monotonic()
        self._pace_target_s = 0.0

    def now_ms(self) -> int:
        return int((time.monotonic() - self._t0) * 1000)

    def advance(self, delta_ms: int) -> None:
        """Pacing for stepped callers: sleep until the next step boundary."""
        self._pace_target_s += delta_ms / 1000.0
        wait = self._t0 + self._pace_target_s - time.monotonic()
        if wait > 0:
            time.sleep(wait)

    def schedule(self, interval_ms: int, fire: Callable[[], None]) -> _WallTaskHandle:
        if interval_ms <= 0:
            raise ValueError(f"interval must be positive, got {interval_ms}")
        stop = threading.Event()
        t0 = time.monotonic()
        interval_s = interval_ms / 1000.0

        def loop() -> None:
            k = 1
            while True:
                due = t0 + k * interval_s
                wait = due - time.monotonic()
                if wait > 0 and stop.wait(wait):
                    return
                if stop.is_set():
                    return
                fire()
                # skip intervals missed by a slow collector, no catch-up bursts
                elapsed = time.monotonic() - t0
                k = max(k + 1, int(elapsed / interval_s) + 1)

        thread = threading.Thread(target=loop, daemon=True, name="gridcalib-signal")
        thread.start()
        return _WallTaskHandle(stop, thread)

    def cancel(self, handle: _WallTaskHandle) -> None:
        handle.stop.set()


Clock = VirtualClock | WallClock


class Signal:
    """Latest-value holder refreshed by a scheduled collector.

    current_value starts at 0.0 and changes only at collection instants.
    A collector failure keeps the previous value and increments
    error_count. last_collection_ms stays 0 until the first successful
    collection, so callers that cannot tolerate the initial zero can
    gate on it.
    """

    def __init__(
        self,
        collector: Callable[[], float],
        interval_ms: int | None,
        clock: Clock,
    ):
        self.interval_ms = DEFAULT_SIGNAL_INTERVAL_MS if interval_ms is None else int(interval_ms)
        if self.interval_ms <= 0:
            raise ValueError(f"interval must be positive, got {self.interval_ms}")
        self.current_value = 0.0
        self.last_collection_ms = 0
        self.error_count = 0
        self._collector = collector
        self._clock = clock
        self._task = clock.schedule(self.interval_ms, self._fire)

    def _fire(self) -> None:
        try:
            value = float(self._collector())
        except Exception:
            self.error_count += 1
            return
        self.current_value = value
        self.last_collection_ms = self._clock.now_ms()

    def now(self) -> float:
        """The last collected value; never invokes the collector."""
        return self.current_value

    def close(self) -> None:
        self._clock.cancel(self._task)


def make_collector_signal(
    collector: Callable[[], float],
    interval_ms: int | None = None,
    clock: Clock | None = None,
) -> Signal:
    """Signal over an arbitrary collector; interval defaults to 1000 ms."""
    return Signal(collector, interval_ms, clock if clock is not None else WallClock())


def make_query_signal(
    store: MetricStore,
    expr: QueryExpr | str,
    interval_ms: int | None = None,
    clock: Clock | None = None,
) -> Signal:
    """Signal whose collector evaluates a rate query against the store.

    The expression is parsed at construction, so a malformed query fails
    fast instead of surfacing as silent collection errors.
    """
    parsed = parse_query(expr) if isinstance(expr, str) else expr
    return make_collector_signal(lambda: query(store, parsed), interval_ms, clock)

