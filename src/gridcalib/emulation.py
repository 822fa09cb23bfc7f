"""Synthetic stand-ins for workloads, the power exporter, and the meter.

Real deployments lack a per-process power oracle, so this module invents
one: workload specs map a load level to true power through a linear
model, an error model distorts the truth the way the approximation
layer would (gain, offset, noise, and dynamic power leaking into system
processes), and a meter model measures the true node total with bounded
instrument error. Everything is seeded and deterministic under a
virtual clock.

The error model is oriented for recovery: plotting approximated power
(x) against measured power (y) fits back to slope = gain and
intercept = bias. Equivalently, approx = (true - bias + noise) / gain.
"""

from __future__ import annotations

import json
import math
import random
import socket
import socketserver
import threading
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterable, Sequence

from .attribution import dynamic_shares, even_shares, left_sum, requested_shares
from .errors import InvalidField, NonMonotonicTimestamp
from .microgrid import Controller
from .signals import Clock
from .ticklog import TickLog
from .timeseries import COUNTER, MetricStore, Series
from .wire import (
    MODE_DYNAMIC,
    MODE_IDLE,
    MODE_LABEL,
    NAMESPACE_LABEL,
    POWER_COUNTER_METRIC,
    PROCESS_LABEL,
    SYSTEM_NAMESPACE,
)

WORKLOAD_KINDS = ("service", "batch", "stress")
LOAD_KNOBS = ("rps", "batch_size", "threads")
IDLE_SPLIT_MODES = ("even", "requested")

# kind -> (knob, levels) of each builtin escalation schedule
BUILTIN_SCHEDULES = {
    "rps": ("rps", tuple(range(250, 2001, 250))),
    "batch": ("batch_size", (1, 4, 8, 16, 32)),
    "threads": ("threads", tuple(range(1, 17))),
}
DEFAULT_ITERATION_RUNTIME_MS = 600_000

MAX_ERROR_V = 0.01
MAX_ERROR_I = 0.015
MAX_ERROR_PHI = 0.01

DEFAULT_VOLTAGE_V = 230.0
SYSTEM_PROCESS_ID = "system"


def _non_negative(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise InvalidField(f"{what}: must be finite and non-negative, got {value!r}")
    return value


@dataclass(frozen=True)
class WorkloadSpec:
    """Linear load-to-power model for one emulated process.

    leakage_lambda is the fraction of this process's dynamic power that
    the approximation layer misattributes to system processes.
    """

    process_id: str
    kind: str = "service"
    namespace: str = "bench"
    idle_share_w: float = 0.0
    dyn_coeff_w: float = 0.0
    load_knob: str = "rps"
    noise_sigma_w: float = 0.0
    leakage_lambda: float = 0.0

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise InvalidField(f"kind: must be one of {WORKLOAD_KINDS}, got {self.kind!r}")
        if self.load_knob not in LOAD_KNOBS:
            raise InvalidField(
                f"load_knob: must be one of {LOAD_KNOBS}, got {self.load_knob!r}"
            )
        if self.namespace == SYSTEM_NAMESPACE:
            raise InvalidField(f"namespace: {SYSTEM_NAMESPACE!r} is reserved")
        if self.process_id == SYSTEM_PROCESS_ID:
            raise InvalidField(f"process_id: {SYSTEM_PROCESS_ID!r} is reserved")
        _non_negative(self.idle_share_w, "idle_share_w")
        _non_negative(self.dyn_coeff_w, "dyn_coeff_w")
        _non_negative(self.noise_sigma_w, "noise_sigma_w")
        if not 0 <= self.leakage_lambda < 1:
            raise InvalidField(
                f"leakage_lambda: must be in [0, 1), got {self.leakage_lambda}"
            )


def true_power(spec: WorkloadSpec, load: float, rng: random.Random) -> float:
    """True process draw at a load level: idle + coeff*load + noise, >= 0.

    With noise_sigma_w = 0 no random draw happens, so noiseless streams
    stay aligned regardless of call order.
    """
    if not 0 <= load < math.inf:  # NaN fails this too
        raise ValueError(f"load must be finite and non-negative, got {load}")
    watts = spec.idle_share_w + spec.dyn_coeff_w * load
    if spec.noise_sigma_w > 0:
        watts += rng.gauss(0.0, spec.noise_sigma_w)
    return max(0.0, watts)


def decompose_true_power(spec: WorkloadSpec, total_w: float) -> tuple[float, float]:
    """(dynamic, idle) components of a true power value.

    The dynamic part is whatever exceeds the configured idle share; when
    noise drags the total below the idle share, idle absorbs the loss so
    the parts always sum to the total and stay non-negative.
    """
    dynamic = max(0.0, total_w - spec.idle_share_w)
    return dynamic, total_w - dynamic


def node_true_total(dyn: Iterable, idle: Iterable, system_w):
    """The node's true draw: workload dynamic power, then the system's,
    then idle, added left to right. Takes floats or numpy columns."""
    return left_sum(dyn) + system_w + left_sum(idle)


@dataclass(frozen=True)
class ApproximationParams:
    """Error shape of the approximation layer at node level."""

    gain: float = 1.0
    bias_w: float = 0.0
    sigma_w: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.gain) or self.gain <= 0:
            raise InvalidField(f"gain: must be positive, got {self.gain!r}")
        if not math.isfinite(self.bias_w):
            raise InvalidField(f"bias_w: must be finite, got {self.bias_w!r}")
        _non_negative(self.sigma_w, "sigma_w")


def approximation_plan(
    workloads: Sequence[WorkloadSpec], idle_split: str = "even"
) -> tuple[list[float], list[float] | None, float]:
    """approximate()'s last three arguments, worked out once per run: each
    workload's leakage fraction, the requested resources to split idle
    power by (each idle_share_w, then the system's 0.0) or None to split
    it evenly, and their total. "requested" falls back to even when no
    workload declares an idle share."""
    if idle_split not in IDLE_SPLIT_MODES:
        raise ValueError(f"idle_split must be one of {IDLE_SPLIT_MODES}, got {idle_split!r}")
    requested = [w.idle_share_w for w in workloads] + [0.0]
    total = _non_negative(left_sum(requested), "total_requested")
    use_requested = idle_split == "requested" and total > 0
    return [w.leakage_lambda for w in workloads], requested if use_requested else None, total


def approximate(
    dyn: Sequence[float],
    idle: Sequence[float],
    system_w: float,
    params: ApproximationParams,
    rng: random.Random,
    lambdas: Sequence[float],
    requested: Sequence[float] | None = None,
    total_requested: float = 0.0,
) -> tuple[list[float], float, float]:
    """Distort one instant's true power into what the approximation layer
    would report: (watts, node_dynamic, node_idle).

    dyn, idle and lambdas hold each workload's true dynamic and idle
    power and leakage fraction; system_w is the true system draw. Each
    workload's dynamic power loses its leakage fraction to the system
    pseudo-process; the node total is shrunk by the gain and shifted by
    the bias so that measured = gain*approx + bias holds. Gain and bias
    (and the noise draw) land in the node idle estimate, keeping the
    dynamic decomposition exact for the calibration algebra. watts holds
    the workloads' dynamic shares, the system's, then the idle shares in
    the same order: even, or by `requested` when it is given.
    """
    noise = rng.gauss(0.0, params.sigma_w) if params.sigma_w > 0 else 0.0
    node_dynamic = (left_sum(dyn) + system_w) / params.gain
    node_idle = max(0.0, (left_sum(idle) - params.bias_w + noise) / params.gain)
    # every share below is finite when these are
    if not (math.isfinite(node_dynamic) and math.isfinite(node_idle)):
        raise ValueError(f"node power must be finite, got {node_dynamic!r} W, {node_idle!r} W")

    # utilization proxies make the ratio split reproduce the leakage split:
    # each workload keeps (1-lambda) of its dynamic draw, the system
    # pseudo-process absorbs the leaked remainder plus the true baseline
    utils = [(1.0 - lam) * d for lam, d in zip(lambdas, dyn, strict=True)]
    utils.append(left_sum(map(mul, lambdas, dyn)) + system_w)
    watts = dynamic_shares(node_dynamic, utils)
    if requested is None:
        watts += even_shares(node_idle, len(utils))
    else:
        watts += requested_shares(node_idle, requested, total_requested)
    return watts, node_dynamic, node_idle


@dataclass(frozen=True)
class MeterSpec:
    """Socket meter model: active power with bounded instrument error."""

    voltage_v: float = DEFAULT_VOLTAGE_V
    relative_error_v: float = 0.0
    relative_error_i: float = 0.0
    relative_error_phi: float = 0.0
    sample_interval_ms: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.voltage_v) or self.voltage_v <= 0:
            raise InvalidField(f"voltage_v: must be positive, got {self.voltage_v!r}")
        for value, cap, what in (
            (self.relative_error_v, MAX_ERROR_V, "relative_error_v"),
            (self.relative_error_i, MAX_ERROR_I, "relative_error_i"),
            (self.relative_error_phi, MAX_ERROR_PHI, "relative_error_phi"),
        ):
            if not 0 <= value <= cap:
                raise InvalidField(f"{what}: must be in [0, {cap}], got {value!r}")
        if self.sample_interval_ms <= 0:
            raise InvalidField(
                f"sample_interval_ms: must be positive, got {self.sample_interval_ms}"
            )

    def combined_error(self) -> float:
        return self.relative_error_v + self.relative_error_i + self.relative_error_phi


def active_power(voltage_v: float, current_a: float, cos_phi: float = 1.0) -> float:
    """P = V * I * cos(phi)."""
    return voltage_v * current_a * cos_phi


def meter_sample(true_total_w: float, spec: MeterSpec, rng: random.Random) -> float:
    """One meter reading of the true node draw.

    The true power implies a current at the configured voltage (power
    factor 1); voltage, current, and power factor are then perturbed
    independently with uniform relative errors. The multiplicative
    combination can exceed the rated combined bound by a hair at the
    worst corner, so the result is clipped to true*(1 +- combined).
    An error-free meter is an exact identity and draws nothing.
    """
    if true_total_w < 0:
        raise ValueError(f"true power must be non-negative, got {true_total_w}")
    combined = spec.combined_error()
    if combined == 0.0:
        return float(true_total_w)
    current_a = true_total_w / (spec.voltage_v * 1.0)
    v = spec.voltage_v * (1.0 + rng.uniform(-spec.relative_error_v, spec.relative_error_v))
    i = current_a * (1.0 + rng.uniform(-spec.relative_error_i, spec.relative_error_i))
    phi = 1.0 * (1.0 + rng.uniform(-spec.relative_error_phi, spec.relative_error_phi))
    measured = active_power(v, i, phi)
    low = true_total_w * (1.0 - combined)
    high = true_total_w * (1.0 + combined)
    return min(max(measured, low), high)


@dataclass(frozen=True)
class LoadSchedule:
    """Ordered load levels with a per-iteration runtime, and the load-bank
    knob the benchmark drives with them.

    A builtin kind (a key of BUILTIN_SCHEDULES) fixes its levels and
    infers its knob; kind custom takes explicit values and a knob.
    values and knob are omitted from JSON when None and take no null.
    """

    kind: str
    values: tuple[float, ...] | None = field(default=None, metadata={"omit_none": True})
    runtime_ms: int = DEFAULT_ITERATION_RUNTIME_MS
    knob: str | None = field(default=None, metadata={"omit_none": True})

    def __post_init__(self):
        builtin = BUILTIN_SCHEDULES.get(self.kind)
        if builtin is not None:
            if self.values is not None:
                raise InvalidField(
                    f"values: only allowed with kind custom (the {self.kind} sequence is fixed)"
                )
            if self.knob is None:
                object.__setattr__(self, "knob", builtin[0])
        elif self.kind != "custom":
            kinds = (*BUILTIN_SCHEDULES, "custom")
            raise InvalidField(f"kind: must be one of {kinds}, got {self.kind!r}")
        elif self.values is None:
            raise InvalidField("values: required")
        elif not self.values:
            raise InvalidField("values: must not be empty")
        for i, value in enumerate(self.values or ()):
            if not 0 <= value < math.inf:  # NaN fails this too
                raise InvalidField(f"values[{i}]: must be finite and non-negative, got {value!r}")
        if self.runtime_ms <= 0:
            raise InvalidField(f"runtime_ms: must be positive, got {self.runtime_ms}")
        if self.knob is None:
            raise InvalidField("knob: required for custom schedules")
        if self.knob not in LOAD_KNOBS:
            raise InvalidField(f"knob: must be one of {LOAD_KNOBS}, got {self.knob!r}")

    @property
    def levels(self) -> tuple[float, ...]:
        """The load levels in order: the values, or the builtin kind's."""
        return BUILTIN_SCHEDULES[self.kind][1] if self.values is None else self.values


class LoadBank:
    """Current load level per knob; workloads read `levels`, the benchmark
    writes through set_level."""

    def __init__(self):
        self.levels = {knob: 0.0 for knob in LOAD_KNOBS}

    def set_level(self, knob: str, value: float) -> None:
        if knob not in self.levels:
            raise ValueError(f"unknown load knob {knob!r}")
        self.levels[knob] = float(value)


class BenchmarkController(Controller):
    """Walks a parsed load schedule on the load bank: set the schedule's
    knob to a level, hold it for the runtime, stop it and start the next,
    finishing with a single completion event that sets the knob to 0.

    Records (action, value, time_ms) tuples; a schedule of length k
    yields exactly k "start" events and k stop-or-complete events.
    """

    controller_id = "benchmark"

    def __init__(self, schedule: LoadSchedule, bank: LoadBank):
        # read once: the engine steps the controller every tick
        self.levels = schedule.levels
        self.runtime_ms = schedule.runtime_ms
        self.knob = schedule.knob
        self.events: list[tuple[str, float, int]] = []
        self.done = False
        self._bank = bank
        self._idx = -1
        self._start_time_ms = 0

    def step(self, time_ms: int) -> None:
        if self.done:
            return
        if self._idx >= 0:
            if time_ms - self._start_time_ms < self.runtime_ms:
                return
            current = self.levels[self._idx]
            last = self._idx + 1 == len(self.levels)
            self.events.append(("complete" if last else "stop", current, time_ms))
            if last:
                self._bank.set_level(self.knob, 0.0)
                self.done = True
                return
        self._idx += 1
        self._start_time_ms = time_ms
        value = self.levels[self._idx]
        self.events.append(("start", value, time_ms))
        self._bank.set_level(self.knob, value)


class PowerModelEmitter:
    """Periodic task: sample truth, distort it, emit joules counters.

    At every firing the emitter reads the load bank, evaluates each
    workload's true power, runs the approximation error model, and
    appends cumulative joules (watts integrated over the emission
    interval) to one counter series per mode and process, the system
    pseudo-process included. The keyword arguments are the config's
    values, which the config has checked. `processes` is the run's
    process table: (process_id, namespace) of each workload in config
    order, then system. `counters` holds those series, every process's
    dynamic counter and then every idle counter, in process order.
    Counters start at 0 at construction time so rate windows have a
    left edge. The
    `truth` tick log keeps each firing's time, workload dynamic powers,
    idle powers and system power, the oracle real nodes lack;
    node_total_w is the latest firing's true node draw.
    """

    def __init__(
        self,
        store: MetricStore,
        workloads: Sequence[WorkloadSpec],
        load_bank: LoadBank,
        clock: Clock,
        *,
        params: ApproximationParams,
        system_baseline_w: float,
        emission_interval_ms: int,
        idle_split: str,
        seed: int,
    ):
        self.workloads = list(workloads)
        self.params = params
        self.system_baseline_w = system_baseline_w
        self.emission_interval_ms = emission_interval_ms
        self._approximation = approximation_plan(self.workloads, idle_split)
        self._levels = load_bank.levels
        self._clock = clock
        self._plan = [(w, random.Random(f"{seed}:truth:{w.process_id}")) for w in self.workloads]
        self._approx_rng = random.Random(f"{seed}:approx")
        # (process_id, namespace): the workloads in config order, then system
        self.processes = [(w.process_id, w.namespace) for w in self.workloads]
        self.processes.append((SYSTEM_PROCESS_ID, SYSTEM_NAMESPACE))
        # one joules counter per (mode, process), dynamic first
        self.counters = [
            store.get_or_create(
                POWER_COUNTER_METRIC,
                {NAMESPACE_LABEL: ns, MODE_LABEL: mode, PROCESS_LABEL: pid},
                COUNTER,
            )
            for mode in (MODE_DYNAMIC, MODE_IDLE)
            for pid, ns in self.processes
        ]
        self._joules = [0.0] * len(self.counters)
        self._last_emit_ms = clock.now_ms()
        for series in self.counters:
            series.append((self._last_emit_ms, 0.0))
        names = [f"{pid}_true_{m}_w" for m in ("dyn", "idle") for pid, _ in self.processes[:-1]]
        self.truth = TickLog(["time_ms", *names, "system_true_dyn_w"], int_columns=1)
        self._dyn, self._idle = self._sample_truth()
        clock.schedule(self.emission_interval_ms, self._fire)

    def _sample_truth(self) -> tuple[list[float], list[float]]:
        """Every workload's true dynamic and idle power at the current loads."""
        dyn, idle = [], []
        for w, rng in self._plan:
            d, i = decompose_true_power(w, true_power(w, self._levels[w.load_knob], rng))
            dyn.append(d)
            idle.append(i)
        return dyn, idle

    def _fire(self) -> None:
        now_ms = self._clock.now_ms()
        dyn, idle = self._sample_truth()
        system = self.system_baseline_w
        watts, _, _ = approximate(
            dyn, idle, system, self.params, self._approx_rng, *self._approximation
        )
        dt_s = (now_ms - self._last_emit_ms) / 1000.0
        self._joules = joules = [j + w * dt_s for j, w in zip(self._joules, watts)]
        for series, value in zip(self.counters, joules):
            series.append((now_ms, value))
        self._last_emit_ms = now_ms
        self._dyn, self._idle = dyn, idle
        self.truth.append([now_ms, *dyn, *idle, system])

    @property
    def node_total_w(self) -> float:
        """The latest firing's true node draw, which the meter measures."""
        return node_true_total(self._dyn, self._idle, self.system_baseline_w)


class MeterEmitter:
    """Periodic task: measure the current true node draw.

    Each sample goes to `publish` as a (timestamp_ms, watts) tuple: the
    meter gauge's append in a virtual run, the TCP publisher's send in
    live mode. last_ms is the last sample's timestamp.
    """

    def __init__(
        self,
        meter: MeterSpec,
        truth_source: Callable[[], float],
        clock: Clock,
        publish: Callable[[tuple[int, float]], None],
    ):
        self.meter = meter
        self._truth_source = truth_source
        self._clock = clock
        self._rng = random.Random(f"{meter.seed}:meter")
        self._publish = publish
        self.last_ms: int | None = None
        clock.schedule(meter.sample_interval_ms, self._fire)

    def _fire(self) -> None:
        now_ms = self._clock.now_ms()
        measured = meter_sample(self._truth_source(), self.meter, self._rng)
        self.last_ms = now_ms
        self._publish((now_ms, measured))


class MeterPublisher:
    """Client side of the meter line protocol: one JSON object per line.
    send() takes a (timestamp_ms, watts) sample, as Series.append does."""

    def __init__(self, host: str, port: int, timeout_s: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._file = self._sock.makefile("w", encoding="utf-8", newline="\n")

    def send(self, sample: tuple[int, float]) -> None:
        ts_ms, power_w = sample
        self._file.write(json.dumps({"power_w": float(power_w), "ts_ms": int(ts_ms)}) + "\n")
        self._file.flush()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


class _MeterIngestHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                power_w, ts_ms = record["power_w"], record["ts_ms"]
                # a JSON number for power_w and a JSON integer for ts_ms,
                # as the config walker reads them: no bool, string or null
                if type(power_w) not in (int, float) or type(ts_ms) is not int:
                    continue
                power_w = float(power_w)
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
                continue  # malformed, nested past the parser's depth, or past float: skip it
            self.server.ingest(ts_ms, power_w)


class MeterListener(socketserver.ThreadingTCPServer):
    """Accepts meter publisher connections and feeds the meter gauge."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, bind: tuple[str, int], gauge: Series):
        super().__init__(bind, _MeterIngestHandler)
        self._gauge = gauge
        self._lock = threading.Lock()

    def ingest(self, ts_ms: int, power_w: float) -> None:
        with self._lock:
            try:
                self._gauge.append((ts_ms, power_w))
            except (NonMonotonicTimestamp, ValueError):
                pass  # late, duplicate, non-finite or out-of-range sample: drop

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread
