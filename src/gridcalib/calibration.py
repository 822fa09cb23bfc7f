"""Meter-anchored calibration of approximated per-process power.

The approximation layer splits node power into per-process dynamic and
idle estimates; a socket meter measures what the node actually draws.
Calibration rescales the estimates so they sum to the measurement:
idle estimates are scaled by the measured idle draw, and dynamic
estimates by an approximation factor that also reassigns dynamic power
wrongly attributed to system processes back to the workloads that
caused it.

All math lives in pure functions. CalibrationStage applies them once
per collection to every process, reading each counter rate and the
meter at the collection instant; NamespacePowerActor sums its
namespace's share of that snapshot so a microgrid can treat the
calibrated draw as a consumer actor, and calibrated_power.csv
serialises the same snapshots, so the two agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean
from typing import Sequence

from .errors import DegenerateDenominator, EmptyWindow, StaleSignal, ZeroNodeIdle
from .microgrid import Controller, ControllerView
from .signals import Clock, Signal
from .timeseries import MetricStore, Series, rate
from .wire import (
    METER_GAUGE_METRIC,
    MODE_DYNAMIC,
    MODE_IDLE,
    MODE_LABEL,
    NAMESPACE_LABEL,
    POWER_COUNTER_METRIC,
    PROCESS_LABEL,
    SYSTEM_NAMESPACE,
)

# denominator guard: approximated system power this close to the node total
# means calibration is undefined, not merely large
DENOMINATOR_GUARD_W = 1e-6

DEFAULT_QUERY_WINDOW_MS = 2000
DEFAULT_M_IDLE_WINDOW_MS = 30_000


@dataclass(frozen=True)
class CalibrationFactor:
    """Dimensionless scale applied to the measured dynamic budget."""

    a: float


def calibrate_idle(p_idle: float, n_idle: float, m_idle: float) -> float:
    """Scale a process's idle estimate by the measured idle draw."""
    if n_idle <= 0:
        raise ZeroNodeIdle(f"node idle estimate must be positive, got {n_idle}")
    return (p_idle / n_idle) * m_idle


def dynamic_factor(p_dyn: float, n_dyn: float, s_dyn: float) -> CalibrationFactor:
    """Fraction of the node's non-system dynamic power owned by the process.

    Equivalent to first handing each workload its proportional share of
    the system-process dynamic power and then dividing by the node total;
    the algebra collapses to p_dyn / (n_dyn - s_dyn).
    """
    denominator = n_dyn - s_dyn
    if denominator <= DENOMINATOR_GUARD_W:
        raise DegenerateDenominator(
            f"node dynamic {n_dyn} W minus system dynamic {s_dyn} W leaves "
            f"{denominator} W; calibration undefined"
        )
    return CalibrationFactor(p_dyn / denominator)


def calibrate_dynamic(
    a: CalibrationFactor | float, m: float, m_idle: float
) -> float:
    """Apply the factor to the measured dynamic budget, clamped at zero."""
    factor = a.a if isinstance(a, CalibrationFactor) else float(a)
    return factor * max(0.0, m - m_idle)


def capture_idle_baseline(
    store: MetricStore,
    now_ms: int,
    mode: str = "averaged",
    window_ms: int = DEFAULT_M_IDLE_WINDOW_MS,
) -> float:
    """Read the meter's idle level from the store at construction time.

    "averaged" takes the mean of the gauge samples in the trailing
    window; "single" takes the latest sample. Returns 0.0 when the gauge
    has no samples yet.
    """
    if mode not in ("averaged", "single"):
        raise ValueError(f"unknown m_idle capture mode {mode!r}")
    series = store.get(METER_GAUGE_METRIC)
    if series is None:
        return 0.0
    samples = series.samples()
    if not samples:
        return 0.0
    if mode == "single":
        return samples[-1].value
    window = [s.value for s in samples if now_ms - window_ms <= s.timestamp_ms <= now_ms]
    if not window:
        return samples[-1].value
    return fmean(window)


@dataclass(frozen=True)
class CalibrationSnapshot:
    """One collection's calibration inputs and the kernel's outputs.

    Per-process tuples follow the stage's process order. degenerate
    carries the DegenerateDenominator message when node minus system
    dynamic power left calibration undefined; those processes read 0.
    """

    p_dyn: tuple[float, ...]
    n_dyn: float
    s_dyn: float
    m: float
    m_idle: float
    factor: tuple[float, ...]
    cal_dyn: tuple[float, ...]
    cal_idle: tuple[float, ...]
    degenerate: str | None = None


def member_sum(values: tuple[float, ...], members: tuple[int, ...]) -> float:
    """Sum of the members' entries in process order; actors and the
    calibrated table both total a namespace this way, so they agree
    bit for bit."""
    return sum((values[i] for i in members), 0.0)


class CalibrationStage(Controller):
    """Calibrated power for every process, computed once per collection.

    One scheduled collection reads, at the collection instant, each
    process's dynamic and idle counter rate over the trailing query
    window and the meter's latest reading, then applies the kernel per
    process. Namespace actors sum the latest snapshot; as a microgrid
    controller the stage also logs the snapshot each engine tick saw.
    The system pseudo-process keeps only its idle share: its dynamic
    power is exactly what calibration redistributes to the workloads.
    """

    controller_id = "calibration"

    def __init__(
        self,
        store: MetricStore,
        processes: Sequence[tuple[str, str]],
        clock: Clock,
        m_idle_w: float,
        *,
        window_ms: int = DEFAULT_QUERY_WINDOW_MS,
        interval_ms: int | None = None,
    ):
        if window_ms < 1000 or window_ms % 1000:
            raise ValueError(
                f"query window must be a positive whole number of seconds, got {window_ms} ms"
            )
        self.window_ms = window_ms
        self.processes = list(processes)
        self.m_idle_w = m_idle_w
        # namespace -> indices of its processes, in first-seen order
        self.namespaces: dict[str, tuple[int, ...]] = {}
        for i, (_, ns) in enumerate(self.processes):
            self.namespaces[ns] = self.namespaces.get(ns, ()) + (i,)
        self._system = self.namespaces.get(SYSTEM_NAMESPACE, ())
        self._store = store
        # (name, labels) of the meter, then every process's dynamic and
        # then idle counter; _series() resolves them to Series handles
        self._wanted = [(METER_GAUGE_METRIC, None)] + [
            (POWER_COUNTER_METRIC, {NAMESPACE_LABEL: ns, PROCESS_LABEL: pid, MODE_LABEL: mode})
            for mode in (MODE_DYNAMIC, MODE_IDLE)
            for pid, ns in self.processes
        ]
        self._handles: list[Series | None] = [None] * len(self._wanted)
        zeros = (0.0,) * len(self.processes)
        self.snapshot = CalibrationSnapshot(
            zeros, 0.0, 0.0, 0.0, m_idle_w, zeros, zeros, zeros
        )
        self.log: list[tuple[int, CalibrationSnapshot]] = []
        self._signal = Signal(self._collect, interval_ms, clock)

    @property
    def last_collection_ms(self) -> int:
        """0 until the first successful collection."""
        return self._signal.last_collection_ms

    def _series(self) -> list[Series | None]:
        """The wanted series; a handle is looked up until its series exists
        and then kept, since a store never replaces a series."""
        handles = self._handles
        if None in handles:
            handles = self._handles = [
                series if series is not None else self._store.get(*wanted)
                for series, wanted in zip(handles, self._wanted)
            ]
        return handles

    def _rate(self, series: Series | None, now_ms: int) -> float:
        # a missing series or one that does not cover the window reads 0
        if series is None:
            return 0.0
        try:
            return rate(series, now_ms - self.window_ms, now_ms)
        except EmptyWindow:
            return 0.0

    def _collect(self) -> float:
        # the signal's value is the meter reading; the snapshot is
        # replaced only when the whole collection succeeds
        meter, *counters = self._series()
        last = None if meter is None else meter.last()
        if last is None:
            raise LookupError("no meter samples yet")
        m = last.value
        now = self._store.current_time_ms()
        watts = [self._rate(series, now) for series in counters]
        k = len(self.processes)
        p_dyn, p_idle = tuple(watts[:k]), tuple(watts[k:])
        n_dyn = sum(p_dyn)
        s_dyn = member_sum(p_dyn, self._system)
        n_idle = sum(p_idle)
        factor, cal_dyn, cal_idle = [], [], []
        degenerate = None
        for i, (p, idle) in enumerate(zip(p_dyn, p_idle)):
            a = 0.0
            # an idle process draws nothing, which also sidesteps a
            # degenerate denominator while counters have not moved yet
            if p > 0 and i not in self._system:
                try:
                    a = dynamic_factor(p, n_dyn, s_dyn).a
                except DegenerateDenominator as exc:
                    degenerate = str(exc)
            factor.append(a)
            cal_dyn.append(calibrate_dynamic(a, m, self.m_idle_w))
            try:
                cal_idle.append(calibrate_idle(idle, n_idle, self.m_idle_w))
            except ZeroNodeIdle:
                cal_idle.append(0.0)
        self.snapshot = CalibrationSnapshot(
            p_dyn, n_dyn, s_dyn, m, self.m_idle_w,
            tuple(factor), tuple(cal_dyn), tuple(cal_idle), degenerate,
        )
        return m

    def step(self, view: ControllerView) -> None:
        self.log.append((view.time_ms, self.snapshot))


class NamespacePowerActor:
    """Microgrid consumer reporting one namespace's calibrated dynamic draw:
    the sum over its processes in the stage's latest snapshot."""

    def __init__(
        self,
        stage: CalibrationStage,
        namespace: str,
        *,
        actor_id: str | None = None,
        strict: bool = False,
    ):
        self.actor_id = actor_id if actor_id is not None else f"ns.{namespace}"
        self.namespace = namespace
        self.strict = strict
        self._stage = stage
        self._members = stage.namespaces.get(namespace, ())

    def calibrated_dynamic_w(self) -> float:
        """Calibrated namespace dynamic power from the latest snapshot."""
        if self.strict and self._stage.last_collection_ms == 0:
            raise StaleSignal("calibration stage has never collected")
        snap = self._stage.snapshot
        if snap.degenerate is not None and member_sum(snap.p_dyn, self._members) > 0:
            raise DegenerateDenominator(snap.degenerate)
        return member_sum(snap.cal_dyn, self._members)

    def power(self, time_ms: int | None = None) -> float:
        """Signed actor power: a consumer, so the calibrated draw negated."""
        return -self.calibrated_dynamic_w()

    def info(self) -> dict[str, float]:
        """The namespace's share of the stage's latest snapshot."""
        snap = self._stage.snapshot
        return {
            "p_dyn_w": member_sum(snap.p_dyn, self._members),
            "n_dyn_w": snap.n_dyn,
            "s_dyn_w": snap.s_dyn,
            "m_w": snap.m,
            "m_idle_w": snap.m_idle,
            "factor_a": member_sum(snap.factor, self._members),
            "calibrated_w": member_sum(snap.cal_dyn, self._members),
        }
