"""Deterministic microgrid co-simulation.

Each step runs a fixed order: sample every actor's signed power
(producers positive, consumers negative) and add it up to the net
power, step every controller at the tick time, then settle the energy
against storage and the public grid. The engine keeps the battery's
charge; the battery itself is a frozen spec. The monitor's tick log
records one row per step and serializes to CSV.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .attribution import left_sum
from .errors import InvalidField, StepError
from .signals import Clock, VirtualClock
from .ticklog import TickLog, columns_csv

DEFAULT_STEP_MS = 1000


class Actor:
    """Power source or sink sampled once per step, named by actor_id."""

    actor_id: str

    def power(self, time_ms: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class StaticActor(Actor):
    """Constant signed power."""

    actor_id: str
    power_w: float

    def __post_init__(self):
        if not self.actor_id:
            raise InvalidField("actor_id: must be non-empty")
        if not math.isfinite(self.power_w):
            raise InvalidField(f"power_w: must be finite, got {self.power_w!r}")

    def power(self, time_ms: int) -> float:
        return self.power_w


@dataclass(frozen=True)
class TraceActor(Actor):
    """Piecewise-constant power from (time_ms, watts) points.

    Before the first point the actor reports 0.0; after the last point it
    holds the final value.
    """

    actor_id: str
    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.actor_id:
            raise InvalidField("actor_id: must be non-empty")
        if not self.points:
            raise InvalidField("points: trace needs at least one point")
        for i, point in enumerate(self.points):
            if len(point) != 2:
                raise InvalidField(f"points[{i}]: must be [time_ms, power_w], got {point!r}")
            if not math.isfinite(point[1]):
                raise InvalidField(f"points[{i}]: power must be finite, got {point[1]!r}")
        pts = sorted((int(t), float(p)) for t, p in self.points)
        object.__setattr__(self, "_times", [t for t, _ in pts])
        object.__setattr__(self, "_powers", [p for _, p in pts])

    def power(self, time_ms: int) -> float:
        i = bisect.bisect_right(self._times, time_ms)
        return 0.0 if i == 0 else self._powers[i - 1]


@dataclass(frozen=True)
class SimpleBattery:
    """Energy storage with rate limits and a symmetric round-trip efficiency.

    Charge is in joules stored, and charge_j is what a run starts with;
    the engine keeps the charge as it moves. Rate limits and the
    settlement interface are expressed at the grid coupling point; a
    None rate is unlimited.
    """

    capacity_j: float
    charge_j: float = 0.0
    max_charge_rate_w: float | None = None
    max_discharge_rate_w: float | None = None
    efficiency: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.capacity_j) or self.capacity_j < 0:
            raise InvalidField(
                f"capacity_j: must be finite and non-negative, got {self.capacity_j}"
            )
        if not 0 <= self.charge_j <= self.capacity_j:
            raise InvalidField(
                f"charge_j: must be in [0, capacity_j={self.capacity_j}], got {self.charge_j}"
            )
        for name in ("max_charge_rate_w", "max_discharge_rate_w"):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # `not >= 0` also rejects NaN
                raise InvalidField(f"{name}: must be non-negative, got {value}")
        if not 0 < self.efficiency <= 1:
            raise InvalidField(f"efficiency: must be in (0, 1], got {self.efficiency}")


def settle(
    storage: SimpleBattery | None, charge_j: float, delta_p_w: float, dt_ms: int
) -> tuple[float, float, float]:
    """Settle one step's energy against storage, remainder to the grid.

    charge_j is the energy stored before the step. Returns
    (storage_delta_j, grid_exchange_j, charge_j): the first two are
    measured at the grid coupling point, so storage_delta +
    grid_exchange equals delta_p * dt exactly for any efficiency, and
    the last is the charge after the step. Positive grid_exchange is an
    export.
    """
    if dt_ms <= 0:
        raise ValueError(f"dt must be positive, got {dt_ms}")
    dt_s = dt_ms / 1000.0
    energy_j = delta_p_w * dt_s
    if storage is None or energy_j == 0.0:
        return (0.0, energy_j, charge_j)
    if energy_j > 0:
        rate_w = storage.max_charge_rate_w
        rate_cap_j = (math.inf if rate_w is None else rate_w) * dt_s
        headroom_j = (storage.capacity_j - charge_j) / storage.efficiency
        take_j = min(energy_j, rate_cap_j, headroom_j)
        charge_j = min(storage.capacity_j, charge_j + take_j * storage.efficiency)
        return (take_j, energy_j - take_j, charge_j)
    need_j = -energy_j
    rate_w = storage.max_discharge_rate_w
    rate_cap_j = (math.inf if rate_w is None else rate_w) * dt_s
    available_j = charge_j * storage.efficiency
    give_j = min(need_j, rate_cap_j, available_j)
    charge_j = max(0.0, charge_j - give_j / storage.efficiency)
    return (-give_j, -(need_j - give_j), charge_j)


class Controller:
    """Stepped once per tick at the tick time, after the actors and
    before settlement."""

    controller_id: str = "controller"

    def step(self, time_ms: int) -> None:
        raise NotImplementedError


MONITOR_COLUMNS = [
    "t",
    "time_ms",
    "delta_p_w",
    "e_last_j",
    "storage_charge_j",
    "storage_delta_j",
    "grid_exchange_j",
]


class Monitor:
    """The engine's tick log: one row per step, MONITOR_COLUMNS and then
    each actor's signed power in the order the actors were added."""

    def __init__(self):
        self.log = TickLog(MONITOR_COLUMNS, int_columns=2)

    def csv_bytes(self) -> bytes:
        return columns_csv(self.log.header, list(self.log.columns().values()))


class Microgrid:
    """Step engine: actors, then their net power, then controllers, then
    storage. charge_j is the battery's charge (0.0 without one)."""

    def __init__(
        self,
        clock: Clock | None = None,
        dt_ms: int = DEFAULT_STEP_MS,
        storage: SimpleBattery | None = None,
    ):
        if dt_ms <= 0:
            raise ValueError(f"dt must be positive, got {dt_ms}")
        self.clock = clock if clock is not None else VirtualClock()
        self.dt_ms = int(dt_ms)
        self.storage = storage
        self.charge_j = storage.charge_j if storage is not None else 0.0
        self.actors: list[Actor] = []
        self.controllers: list[Controller] = []
        self.monitor = Monitor()
        self._t = 0
        self._e_last_j = 0.0

    def add_actor(self, actor: Actor) -> None:
        """Actors join before the first step, so every row of the tick
        log has a column for each of them."""
        if self._t:
            raise ValueError(f"actor {actor.actor_id!r} added after the first step")
        if any(a.actor_id == actor.actor_id for a in self.actors):
            raise ValueError(f"duplicate actor_id {actor.actor_id!r}")
        self.actors.append(actor)
        header = self.monitor.log.header + (f"actor.{actor.actor_id}_w",)
        self.monitor.log = TickLog(header, int_columns=2)

    def add_controller(self, controller: Controller) -> None:
        self.controllers.append(controller)

    def step(self) -> None:
        # advance first: step k settles the interval ending at t0 + (k+1)*dt
        self.clock.advance(self.dt_ms)
        time_ms = self.clock.now_ms()
        powers: list[float] = []
        for actor in self.actors:
            try:
                p = float(actor.power(time_ms))
                if not math.isfinite(p):
                    raise ValueError(f"non-finite power {p!r}")
            except Exception as exc:
                raise StepError(self._t, f"actor {actor.actor_id!r}: {exc}") from exc
            powers.append(p)
        delta_p_w = left_sum(powers)
        for controller in self.controllers:
            try:
                controller.step(time_ms)
            except Exception as exc:
                raise StepError(
                    self._t, f"controller {controller.controller_id!r}: {exc}"
                ) from exc
        storage_delta_j, grid_exchange_j, self.charge_j = settle(
            self.storage, self.charge_j, delta_p_w, self.dt_ms
        )
        self.monitor.log.append([
            self._t, time_ms, delta_p_w, self._e_last_j, self.charge_j,
            storage_delta_j, grid_exchange_j, *powers,
        ])
        self._e_last_j = delta_p_w * (self.dt_ms / 1000.0)
        self._t += 1

    def run(self, duration_ms: int) -> Monitor:
        if duration_ms <= 0 or duration_ms % self.dt_ms != 0:
            raise ValueError(
                f"duration {duration_ms} ms must be a positive multiple of dt {self.dt_ms} ms"
            )
        for _ in range(duration_ms // self.dt_ms):
            self.step()
        return self.monitor


class BenchmarkController(Controller):
    """Walks a load schedule: start a setting, hold it for the runtime,
    stop it and start the next, finishing with a single completion event.

    Records (action, value, time_ms) tuples; a schedule of length k
    yields exactly k "start" events and k stop-or-complete events.
    """

    controller_id = "benchmark"

    def __init__(
        self,
        schedule: Sequence[float],
        runtime_ms: int,
        on_start: Callable[[float], None] | None = None,
        on_stop: Callable[[float], None] | None = None,
    ):
        self.schedule = list(schedule)
        if not self.schedule:
            raise ValueError("schedule must not be empty")
        if runtime_ms <= 0:
            raise ValueError(f"runtime must be positive, got {runtime_ms}")
        self.runtime_ms = int(runtime_ms)
        self.events: list[tuple[str, float, int]] = []
        self.done = False
        self._idx = -1
        self._start_time_ms = 0
        self._on_start = on_start
        self._on_stop = on_stop

    def step(self, time_ms: int) -> None:
        if self.done:
            return
        if self._idx >= 0:
            if time_ms - self._start_time_ms < self.runtime_ms:
                return
            current = self.schedule[self._idx]
            last = self._idx + 1 == len(self.schedule)
            self.events.append(("complete" if last else "stop", current, time_ms))
            if self._on_stop is not None:
                self._on_stop(current)
            if last:
                self.done = True
                return
        self._idx += 1
        self._start_time_ms = time_ms
        value = self.schedule[self._idx]
        self.events.append(("start", value, time_ms))
        if self._on_start is not None:
            self._on_start(value)
