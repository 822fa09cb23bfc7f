"""Meter-anchored calibration of approximated per-process power.

The approximation layer splits node power into per-process dynamic and
idle estimates; a socket meter measures what the node actually draws.
Calibration rescales the estimates so they sum to the measurement:
idle estimates are scaled by the measured idle draw, and dynamic
estimates by an approximation factor that also reassigns dynamic power
wrongly attributed to system processes back to the workloads that
caused it.

All math lives in pure functions over per-process tuples; calibrate()
runs them once per collection. CalibrationStage calls it on every
counter rate of the emitter's CounterFrame, read in one pass over a
window that ends at the latest emission, and on the meter's latest
reading; NamespacePowerActor sums its namespace's share of that
snapshot so a microgrid can treat the calibrated draw as a consumer
actor, and calibrated_power.csv serialises the same snapshots, so the
two agree by construction.
"""

from __future__ import annotations

from statistics import fmean
from typing import NamedTuple, Sequence

from .attribution import left_sum
from .errors import DegenerateDenominator, StaleSignal, ZeroNodeIdle
from .microgrid import Controller
from .signals import Clock, Signal
from .ticklog import TickLog
from .timeseries import CounterFrame, Series
from .wire import SYSTEM_NAMESPACE

# denominator guard: approximated system power this close to the node total
# means calibration is undefined, not merely large
DENOMINATOR_GUARD_W = 1e-6


def calibrated_idle(p_idle: Sequence[float], n_idle: float, m_idle: float) -> tuple[float, ...]:
    """Scale each process's idle estimate by the measured idle draw."""
    if n_idle <= 0:
        raise ZeroNodeIdle(f"node idle estimate must be positive, got {n_idle}")
    return tuple([(p / n_idle) * m_idle for p in p_idle])


def dynamic_factors(p_dyn: Sequence[float], n_dyn: float, s_dyn: float) -> tuple[float, ...]:
    """Fraction of the node's non-system dynamic power owned by each process.

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
    return tuple([p / denominator for p in p_dyn])


def calibrated_dynamic(factors: Sequence[float], m: float, m_idle: float) -> tuple[float, ...]:
    """Apply each factor to the measured dynamic budget, clamped at zero."""
    budget = max(0.0, m - m_idle)
    return tuple([a * budget for a in factors])


def capture_idle_baseline(gauge: Series, now_ms: int, mode: str, window_ms: int) -> float:
    """Read the meter's idle level from its gauge at construction time.

    mode is the config's m_idle_capture: "averaged" takes the mean of the
    gauge samples in the trailing window; "single" takes the latest
    sample. Returns 0.0 when the gauge has no samples yet.
    """
    ts, values = gauge.columns()
    window = values[(now_ms - window_ms <= ts) & (ts <= now_ms)].tolist()
    if mode == "averaged" and window:
        return fmean(window)
    return float(values[-1]) if len(values) else 0.0


class CalibrationSnapshot(NamedTuple):
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


def member_sum(values: Sequence, members: Sequence[int]):
    """left_sum of the members' entries. Actors total a namespace over
    floats and the calibrated table over numpy columns this way, so they
    agree bit for bit."""
    return left_sum(map(values.__getitem__, members))


def calibrate(
    p_dyn: tuple[float, ...],
    p_idle: tuple[float, ...],
    m: float,
    m_idle: float,
    system: Sequence[int] = (),
) -> CalibrationSnapshot:
    """The calibration kernel, once over every process. The system
    pseudo-processes (indexed by `system`) and processes drawing no
    dynamic power get factor 0; so a degenerate denominator is reported
    only when some other process draws, and then every factor is 0. A
    zero node idle estimate gives every process 0 idle power."""
    n_dyn = left_sum(p_dyn)
    s_dyn = member_sum(p_dyn, system)
    n_idle = left_sum(p_idle)
    owned = [p if p > 0 else 0.0 for p in p_dyn]
    for i in system:
        owned[i] = 0.0
    zeros = (0.0,) * len(p_dyn)
    degenerate = None
    try:
        factor = dynamic_factors(owned, n_dyn, s_dyn)
    except DegenerateDenominator as exc:
        factor = zeros
        degenerate = str(exc) if any(owned) else None
    try:
        cal_idle = calibrated_idle(p_idle, n_idle, m_idle)
    except ZeroNodeIdle:
        cal_idle = zeros
    return CalibrationSnapshot(
        p_dyn, n_dyn, s_dyn, m, m_idle,
        factor, calibrated_dynamic(factor, m, m_idle), cal_idle, degenerate,
    )


class CalibrationStage(Controller):
    """Calibrated power for every process, computed once per collection.

    One scheduled collection reads each process's dynamic and idle
    counter rate over the query window that ends at the counters' newest
    row, and the meter's latest reading, then applies calibrate(). The
    stage is handed the series it reads: `frame` is the emitter's
    counters, whose members are every process's dynamic counter and then
    every idle counter, in process order, and `gauge` is the meter's.
    window_ms and interval_ms are the config's query_window_ms and
    signal_interval_ms, checked there.
    Namespace actors sum the latest snapshot; as a microgrid controller
    the stage also logs the calibrated power each tick saw.
    The system pseudo-process keeps only its idle share: its dynamic
    power is exactly what calibration redistributes to the workloads.
    """

    controller_id = "calibration"

    def __init__(
        self,
        processes: Sequence[tuple[str, str]],
        frame: CounterFrame,
        gauge: Series,
        clock: Clock,
        m_idle_w: float,
        *,
        window_ms: int,
        interval_ms: int,
    ):
        self.window_ms = window_ms
        self.processes = list(processes)
        if len(frame.members) != 2 * len(self.processes):
            raise ValueError(
                f"need a dynamic and an idle counter for each of {len(self.processes)} "
                f"processes, got {len(frame.members)} counters"
            )
        self.m_idle_w = m_idle_w
        # namespace -> indices of its processes, in first-seen order
        self.namespaces: dict[str, tuple[int, ...]] = {}
        for i, (_, ns) in enumerate(self.processes):
            self.namespaces[ns] = self.namespaces.get(ns, ()) + (i,)
        self._system = self.namespaces.get(SYSTEM_NAMESPACE, ())
        self._frame = frame
        self._gauge = gauge
        zeros = (0.0,) * len(self.processes)
        self.snapshot = CalibrationSnapshot(
            zeros, 0.0, 0.0, 0.0, m_idle_w, zeros, zeros, zeros
        )
        names = [f"{pid}_{mode}_w" for mode in ("dyn", "idle") for pid, _ in self.processes]
        self.log = TickLog(["time_ms", *names], int_columns=1)
        self._signal = Signal(self._collect, interval_ms, clock)

    @property
    def last_collection_ms(self) -> int:
        """0 until the first successful collection."""
        return self._signal.last_collection_ms

    def _collect(self) -> None:
        # the snapshot is replaced only when the whole collection succeeds
        last = self._gauge.last()
        if last is None:
            raise LookupError("no meter samples yet")
        watts = self._frame.trailing_rates(self.window_ms)
        k = len(self.processes)
        if watts is None:  # an uncovered window reads 0
            watts = [0.0] * (2 * k)
        self.snapshot = calibrate(
            tuple(watts[:k]), tuple(watts[k:]), last.value, self.m_idle_w, self._system
        )

    def step(self, time_ms: int) -> None:
        self.log.append([time_ms, *self.snapshot.cal_dyn, *self.snapshot.cal_idle])


class NamespacePowerActor:
    """Microgrid consumer reporting one namespace's calibrated dynamic draw:
    the sum over its processes in the stage's latest snapshot."""

    def __init__(self, stage: CalibrationStage, namespace: str, *, actor_id: str, strict: bool):
        self.actor_id = actor_id
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
