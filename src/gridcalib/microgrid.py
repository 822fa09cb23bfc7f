"""Deterministic microgrid co-simulation.

Each step runs a fixed order: sample every actor's signed power
(producers positive, consumers negative), aggregate the net power,
let controllers observe the aggregate plus the previous settlement,
then settle the energy against storage and the public grid. The
monitor's tick log records one row per step and serializes to CSV.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .attribution import left_sum
from .errors import StepError
from .signals import Clock, VirtualClock
from .ticklog import TickLog, csv_bytes

DEFAULT_STEP_MS = 1000


class Actor:
    """Power source or sink sampled once per step."""

    actor_id: str = "actor"

    def power(self, time_ms: int) -> float:
        raise NotImplementedError


class StaticActor(Actor):
    """Constant signed power."""

    def __init__(self, actor_id: str, power_w: float):
        self.actor_id = actor_id
        self._power_w = float(power_w)
        if not math.isfinite(self._power_w):
            raise ValueError(f"actor power must be finite, got {power_w!r}")

    def power(self, time_ms: int) -> float:
        return self._power_w


class TraceActor(Actor):
    """Piecewise-constant power from (time_ms, watts) points.

    Before the first point the actor reports 0.0; after the last point it
    holds the final value.
    """

    def __init__(self, actor_id: str, points: Iterable[tuple[int, float]]):
        self.actor_id = actor_id
        pts = sorted((int(t), float(p)) for t, p in points)
        if not pts:
            raise ValueError("trace needs at least one point")
        for _, p in pts:
            if not math.isfinite(p):
                raise ValueError("trace powers must be finite")
        self._times = [t for t, _ in pts]
        self._powers = [p for _, p in pts]

    def power(self, time_ms: int) -> float:
        i = bisect.bisect_right(self._times, time_ms)
        return 0.0 if i == 0 else self._powers[i - 1]


@dataclass
class SimpleBattery:
    """Energy storage with rate limits and a symmetric round-trip efficiency.

    Charge is tracked in joules stored; rate limits and the settlement
    interface are expressed at the grid coupling point.
    """

    capacity_j: float
    charge_j: float = 0.0
    max_charge_rate_w: float = math.inf
    max_discharge_rate_w: float = math.inf
    efficiency: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.capacity_j) or self.capacity_j < 0:
            raise ValueError(f"capacity must be finite and non-negative, got {self.capacity_j}")
        if not 0 <= self.charge_j <= self.capacity_j:
            raise ValueError(
                f"charge {self.charge_j} outside [0, {self.capacity_j}]"
            )
        if self.max_charge_rate_w < 0 or self.max_discharge_rate_w < 0:
            raise ValueError("rate limits must be non-negative")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")

    def snapshot(self) -> "SimpleBattery":
        return replace(self)


def aggregate(actor_powers: Mapping[str, float]) -> float:
    """Net power of the microgrid: the signed sum over all actors."""
    return left_sum(actor_powers.values())


def settle(
    storage: SimpleBattery | None, delta_p_w: float, dt_ms: int
) -> tuple[float, float]:
    """Settle one step's energy against storage, remainder to the grid.

    Returns (storage_delta_j, grid_exchange_j), both measured at the
    grid coupling point so storage_delta + grid_exchange equals
    delta_p * dt exactly for any efficiency. Positive grid_exchange is
    an export.
    """
    if dt_ms <= 0:
        raise ValueError(f"dt must be positive, got {dt_ms}")
    dt_s = dt_ms / 1000.0
    energy_j = delta_p_w * dt_s
    if storage is None or energy_j == 0.0:
        return (0.0, energy_j)
    if energy_j > 0:
        rate_cap_j = storage.max_charge_rate_w * dt_s
        headroom_j = (storage.capacity_j - storage.charge_j) / storage.efficiency
        take_j = min(energy_j, rate_cap_j, headroom_j)
        storage.charge_j = min(
            storage.capacity_j, storage.charge_j + take_j * storage.efficiency
        )
        return (take_j, energy_j - take_j)
    need_j = -energy_j
    rate_cap_j = storage.max_discharge_rate_w * dt_s
    available_j = storage.charge_j * storage.efficiency
    give_j = min(need_j, rate_cap_j, available_j)
    storage.charge_j = max(0.0, storage.charge_j - give_j / storage.efficiency)
    return (-give_j, -(need_j - give_j))


@dataclass(frozen=True)
class ControllerView:
    """Read-only snapshot handed to controllers.

    Controllers run between aggregation and settlement, so the view
    carries the current step's powers and net power, the previous
    step's settled energy, and the storage state before this step's
    settlement.
    """

    t: int
    time_ms: int
    actor_powers: Mapping[str, float]
    delta_p_w: float
    e_last_j: float
    storage: SimpleBattery | None


class Controller:
    controller_id: str = "controller"

    def step(self, view: ControllerView) -> None:
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
        return csv_bytes(self.log.header, self.log.rows())


class Microgrid:
    """Step engine: actors, then aggregation, then controllers, then storage."""

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
        powers: dict[str, float] = {}
        for actor in self.actors:
            try:
                p = float(actor.power(time_ms))
                if not math.isfinite(p):
                    raise ValueError(f"non-finite power {p!r}")
            except Exception as exc:
                raise StepError(self._t, f"actor {actor.actor_id!r}: {exc}") from exc
            powers[actor.actor_id] = p
        delta_p_w = aggregate(powers)
        view = ControllerView(
            t=self._t,
            time_ms=time_ms,
            actor_powers=MappingProxyType(powers),
            delta_p_w=delta_p_w,
            e_last_j=self._e_last_j,
            storage=self.storage.snapshot() if self.storage is not None else None,
        )
        for controller in self.controllers:
            try:
                controller.step(view)
            except Exception as exc:
                raise StepError(
                    self._t, f"controller {controller.controller_id!r}: {exc}"
                ) from exc
        storage_delta_j, grid_exchange_j = settle(self.storage, delta_p_w, self.dt_ms)
        charge_j = self.storage.charge_j if self.storage is not None else 0.0
        self.monitor.log.append([
            self._t, time_ms, delta_p_w, self._e_last_j, charge_j,
            storage_delta_j, grid_exchange_j, *powers.values(),
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

    def __init__(
        self,
        schedule: Sequence[float],
        runtime_ms: int,
        on_start: Callable[[float], None] | None = None,
        on_stop: Callable[[float], None] | None = None,
        controller_id: str = "benchmark",
    ):
        self.schedule = list(schedule)
        if not self.schedule:
            raise ValueError("schedule must not be empty")
        if runtime_ms <= 0:
            raise ValueError(f"runtime must be positive, got {runtime_ms}")
        self.runtime_ms = int(runtime_ms)
        self.controller_id = controller_id
        self.events: list[tuple[str, float, int]] = []
        self.done = False
        self._idx = -1
        self._start_time_ms = 0
        self._on_start = on_start
        self._on_stop = on_stop

    def step(self, view: ControllerView) -> None:
        self.step_at(view.time_ms)

    def step_at(self, time_ms: int) -> str | None:
        if self.done:
            return None
        if self._idx < 0:
            self._idx = 0
            self._start_time_ms = time_ms
            self._begin(time_ms)
            return "start"
        if time_ms - self._start_time_ms < self.runtime_ms:
            return None
        current = self.schedule[self._idx]
        if self._idx + 1 < len(self.schedule):
            self.events.append(("stop", current, time_ms))
            if self._on_stop is not None:
                self._on_stop(current)
            self._idx += 1
            self._start_time_ms = time_ms
            self._begin(time_ms)
            return "advance"
        self.events.append(("complete", current, time_ms))
        if self._on_stop is not None:
            self._on_stop(current)
        self.done = True
        return "complete"

    def _begin(self, time_ms: int) -> None:
        value = self.schedule[self._idx]
        self.events.append(("start", value, time_ms))
        if self._on_start is not None:
            self._on_start(value)
