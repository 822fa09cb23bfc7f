"""Periodic collection signals and the clocks that fire them.

A signal owns one collector function. A clock fires the collector every
interval; the signal records when the last collection succeeded and how
many failed. There is one scheduler: due firings run synchronously
inside the clock's advance(), on the thread that advances it, in
registration order for equal due times. VirtualClock moves time only
through advance(), which makes long scenarios deterministic and fast to
replay; WallClock runs the same schedule paced to real time. Nothing
cancels a scheduled task: it runs until its clock is dropped.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable

DEFAULT_SIGNAL_INTERVAL_MS = 1000


class VirtualClock:
    """Deterministic clock; time moves only through advance()."""

    def __init__(self, start_ms: int = 0):
        self._now = int(start_ms)
        # (due, registration, interval_ms, fire), a min-heap
        self._due: list[tuple[int, int, int, Callable[[], None]]] = []
        self._seq = 0

    def now_ms(self) -> int:
        return self._now

    def schedule(self, interval_ms: int, fire: Callable[[], None]) -> None:
        if interval_ms <= 0:
            raise ValueError(f"interval must be positive, got {interval_ms}")
        interval_ms = int(interval_ms)
        heapq.heappush(self._due, (self._now + interval_ms, self._seq, interval_ms, fire))
        self._seq += 1

    def advance(self, delta_ms: int) -> None:
        """Move time forward, firing every due task in (time, registration) order."""
        if delta_ms < 0:
            raise ValueError("cannot advance a clock backwards")
        target = self._now + int(delta_ms)
        while self._due and self._due[0][0] <= target:
            due, seq, interval_ms, fire = heapq.heappop(self._due)
            self._now = due
            fire()
            heapq.heappush(self._due, (due + interval_ms, seq, interval_ms, fire))
        self._now = target


class WallClock(VirtualClock):
    """The virtual clock's schedule, paced to real time.

    advance() sleeps until each due instant and then fires the due tasks
    on the caller's thread, in the same (time, registration) order as a
    virtual run; now_ms() is the scheduled instant, not a wall reading.
    A firing that overruns delays the ones after it but skips none.
    """

    def __init__(self):
        super().__init__()
        self._t0 = time.monotonic()

    def _sleep_until(self, instant_ms: int) -> None:
        wait = self._t0 + instant_ms / 1000.0 - time.monotonic()
        if wait > 0:
            time.sleep(wait)

    def advance(self, delta_ms: int) -> None:
        target = self._now + int(delta_ms)
        while True:
            instant = min(self._due[0][0], target) if self._due else target
            self._sleep_until(instant)
            super().advance(instant - self._now)
            if instant == target:
                return


Clock = VirtualClock | WallClock


class Signal:
    """A collector run on a schedule, with its collection record.

    The collector runs inside the clock's advance(), on the thread that
    advances it, and keeps whatever it collects itself. A collector
    failure increments error_count. last_collection_ms stays 0 until the
    first successful collection, so callers that cannot use a value
    that was never collected can gate on it.
    """

    def __init__(
        self,
        collector: Callable[[], None],
        interval_ms: int | None,
        clock: Clock,
    ):
        self.interval_ms = DEFAULT_SIGNAL_INTERVAL_MS if interval_ms is None else int(interval_ms)
        if self.interval_ms <= 0:
            raise ValueError(f"interval must be positive, got {self.interval_ms}")
        self.last_collection_ms = 0
        self.error_count = 0
        self._collector = collector
        self._clock = clock
        clock.schedule(self.interval_ms, self._fire)

    def _fire(self) -> None:
        try:
            self._collector()
        except Exception:
            self.error_count += 1
            return
        self.last_collection_ms = self._clock.now_ms()
