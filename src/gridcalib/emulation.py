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
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .attribution import NodePower, ProcessUtilization, split_dynamic, split_idle_requested
from .errors import NonMonotonicTimestamp, UnknownKind
from .signals import Clock
from .timeseries import COUNTER, GAUGE, MetricStore, Series
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

WORKLOAD_KINDS = ("service", "batch", "stress")
LOAD_KNOBS = ("rps", "batch_size", "threads")

RPS_SCHEDULE = list(range(250, 2001, 250))
BATCH_SCHEDULE = [1, 4, 8, 16, 32]
THREADS_SCHEDULE = list(range(1, 17))
DEFAULT_ITERATION_RUNTIME_MS = 600_000

MAX_ERROR_V = 0.01
MAX_ERROR_I = 0.015
MAX_ERROR_PHI = 0.01
COMBINED_ERROR_MAX = 0.035

DEFAULT_VOLTAGE_V = 230.0
DEFAULT_SYSTEM_BASELINE_W = 5.0
SYSTEM_PROCESS_ID = "system"

DEFAULT_EMISSION_INTERVAL_MS = 1000


def _non_negative(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{what} must be finite and non-negative, got {value!r}")
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
            raise ValueError(f"kind must be one of {WORKLOAD_KINDS}, got {self.kind!r}")
        if self.load_knob not in LOAD_KNOBS:
            raise ValueError(
                f"load_knob must be one of {LOAD_KNOBS}, got {self.load_knob!r}"
            )
        if self.namespace == SYSTEM_NAMESPACE:
            raise ValueError(f"namespace {SYSTEM_NAMESPACE!r} is reserved")
        if self.process_id == SYSTEM_PROCESS_ID:
            raise ValueError(f"process_id {SYSTEM_PROCESS_ID!r} is reserved")
        _non_negative(self.idle_share_w, "idle_share_w")
        _non_negative(self.dyn_coeff_w, "dyn_coeff_w")
        _non_negative(self.noise_sigma_w, "noise_sigma_w")
        if not 0 <= self.leakage_lambda < 1:
            raise ValueError(
                f"leakage_lambda must be in [0, 1), got {self.leakage_lambda}"
            )


def true_power(spec: WorkloadSpec, load: float, rng: random.Random) -> float:
    """True process draw at a load level: idle + coeff*load + noise, >= 0.

    With noise_sigma_w = 0 no random draw happens, so noiseless streams
    stay aligned regardless of call order.
    """
    if load < 0:
        raise ValueError(f"load must be non-negative, got {load}")
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


@dataclass(frozen=True)
class GroundTruth:
    """True per-process power at one instant, the oracle real nodes lack."""

    time_ms: int
    process_dynamic_w: Mapping[str, float]
    process_idle_w: Mapping[str, float]
    system_dynamic_w: float

    @property
    def node_dynamic_w(self) -> float:
        return sum(self.process_dynamic_w.values()) + self.system_dynamic_w

    @property
    def node_idle_w(self) -> float:
        return sum(self.process_idle_w.values())

    @property
    def node_total_w(self) -> float:
        return self.node_dynamic_w + self.node_idle_w


@dataclass(frozen=True)
class ApproximationParams:
    """Error shape of the approximation layer at node level."""

    gain: float = 1.0
    bias_w: float = 0.0
    sigma_w: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.gain) or self.gain <= 0:
            raise ValueError(f"gain must be positive, got {self.gain!r}")
        if not math.isfinite(self.bias_w):
            raise ValueError(f"bias_w must be finite, got {self.bias_w!r}")
        _non_negative(self.sigma_w, "sigma_w")


@dataclass(frozen=True)
class ApproximationSnapshot:
    """Approximated per-process power at one instant.

    Consistency contract: node_dynamic_w equals the sum of
    process_dynamic_w values plus system_dynamic_w, and node_total_w
    equals node_dynamic_w + node_idle_w.
    """

    time_ms: int
    process_dynamic_w: Mapping[str, float]
    process_idle_w: Mapping[str, float]
    system_dynamic_w: float
    node_dynamic_w: float
    node_idle_w: float

    @property
    def node_total_w(self) -> float:
        return self.node_dynamic_w + self.node_idle_w


def approximate(
    truth: GroundTruth,
    workloads: Sequence[WorkloadSpec],
    params: ApproximationParams,
    rng: random.Random,
    idle_split: str = "even",
) -> ApproximationSnapshot:
    """Distort ground truth into what the approximation layer would report.

    Each workload's dynamic power loses its leakage fraction to the
    system pseudo-process; the node total is shrunk by the gain and
    shifted by the bias so that measured = gain*approx + bias holds.
    Gain and bias (and the noise draw) land in the node idle estimate,
    keeping the dynamic decomposition exact for the calibration algebra.
    The idle estimate is split across processes and the system
    pseudo-process, evenly by default, or by idle_share_w as the
    requested-resource proxy when idle_split = "requested" (falling back
    to even when no workload declares an idle share).
    """
    if idle_split not in ("even", "requested"):
        raise ValueError(f"idle_split must be 'even' or 'requested', got {idle_split!r}")
    specs = {w.process_id: w for w in workloads}
    if set(specs) != set(truth.process_dynamic_w):
        raise ValueError("workload specs do not match ground-truth processes")

    noise = rng.gauss(0.0, params.sigma_w) if params.sigma_w > 0 else 0.0
    node_dynamic = truth.node_dynamic_w / params.gain
    node_idle = max(0.0, (truth.node_idle_w - params.bias_w + noise) / params.gain)

    # utilization proxies make the ratio split reproduce the leakage split:
    # each workload keeps (1-lambda) of its dynamic draw, the system
    # pseudo-process absorbs the leaked remainder plus the true baseline
    utils = [
        ProcessUtilization(
            pid,
            (1.0 - specs[pid].leakage_lambda) * dyn,
            requested=specs[pid].idle_share_w,
        )
        for pid, dyn in truth.process_dynamic_w.items()
    ]
    leaked = sum(
        specs[pid].leakage_lambda * dyn
        for pid, dyn in truth.process_dynamic_w.items()
    )
    utils.append(
        ProcessUtilization(
            SYSTEM_PROCESS_ID, leaked + truth.system_dynamic_w, requested=0.0
        )
    )
    total_requested = sum(u.requested for u in utils)
    node = NodePower(
        dynamic=node_dynamic, idle=node_idle, total_requested=total_requested
    )
    dynamic_shares = split_dynamic(node, utils)
    system_dynamic = dynamic_shares.pop(SYSTEM_PROCESS_ID)

    if idle_split == "requested" and total_requested > 0:
        idle_shares = split_idle_requested(node, utils)
    else:
        even = node.idle / len(utils)
        idle_shares = {u.process_id: even for u in utils}

    return ApproximationSnapshot(
        time_ms=truth.time_ms,
        process_dynamic_w=dynamic_shares,
        process_idle_w=idle_shares,
        system_dynamic_w=system_dynamic,
        node_dynamic_w=node_dynamic,
        node_idle_w=node_idle,
    )


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
            raise ValueError(f"voltage must be positive, got {self.voltage_v!r}")
        for value, cap, what in (
            (self.relative_error_v, MAX_ERROR_V, "relative_error_v"),
            (self.relative_error_i, MAX_ERROR_I, "relative_error_i"),
            (self.relative_error_phi, MAX_ERROR_PHI, "relative_error_phi"),
        ):
            if not 0 <= value <= cap:
                raise ValueError(f"{what} must be in [0, {cap}], got {value!r}")
        if self.combined_error() > COMBINED_ERROR_MAX:
            raise ValueError(
                f"combined error {self.combined_error()} exceeds {COMBINED_ERROR_MAX}"
            )
        if self.sample_interval_ms <= 0:
            raise ValueError(
                f"sample interval must be positive, got {self.sample_interval_ms}"
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
    """Ordered load levels with a per-iteration runtime."""

    kind: str
    values: tuple[float, ...]
    runtime_ms: int = DEFAULT_ITERATION_RUNTIME_MS

    def __post_init__(self):
        if not self.values:
            raise ValueError("schedule must not be empty")
        if self.runtime_ms <= 0:
            raise ValueError(f"runtime must be positive, got {self.runtime_ms}")


def builtin_schedule(kind: str) -> LoadSchedule:
    """The canonical escalation schedule for a load knob."""
    if kind == "rps":
        return LoadSchedule("rps", tuple(RPS_SCHEDULE))
    if kind == "batch":
        return LoadSchedule("batch", tuple(BATCH_SCHEDULE))
    if kind == "threads":
        return LoadSchedule("threads", tuple(THREADS_SCHEDULE))
    raise UnknownKind(f"no builtin schedule for kind {kind!r}")


SCHEDULE_KNOBS = {"rps": "rps", "batch": "batch_size", "threads": "threads"}


class LoadBank:
    """Current load level per knob; workloads read, the benchmark writes."""

    def __init__(self):
        self._levels = {knob: 0.0 for knob in LOAD_KNOBS}

    def set_level(self, knob: str, value: float) -> None:
        if knob not in self._levels:
            raise ValueError(f"unknown load knob {knob!r}")
        self._levels[knob] = float(value)

    def clear(self, knob: str) -> None:
        self.set_level(knob, 0.0)

    def get(self, knob: str) -> float:
        if knob not in self._levels:
            raise ValueError(f"unknown load knob {knob!r}")
        return self._levels[knob]


class PowerModelEmitter:
    """Periodic task: sample truth, distort it, emit joules counters.

    At every firing the emitter reads the load bank, evaluates each
    workload's true power, runs the approximation error model, and
    appends cumulative joules (watts integrated over the emission
    interval) to one counter series per process and mode, plus the
    system pseudo-process. Counters start at 0 at construction time so
    rate windows have a left edge.
    """

    def __init__(
        self,
        store: MetricStore,
        workloads: Sequence[WorkloadSpec],
        load_bank: LoadBank,
        clock: Clock,
        *,
        params: ApproximationParams | None = None,
        system_baseline_w: float = DEFAULT_SYSTEM_BASELINE_W,
        emission_interval_ms: int = DEFAULT_EMISSION_INTERVAL_MS,
        idle_split: str = "even",
        seed: int = 0,
    ):
        if not workloads:
            raise ValueError("need at least one workload")
        self.workloads = list(workloads)
        self.params = params if params is not None else ApproximationParams()
        self.system_baseline_w = _non_negative(system_baseline_w, "system_baseline_w")
        self.emission_interval_ms = int(emission_interval_ms)
        if self.emission_interval_ms <= 0:
            raise ValueError("emission interval must be positive")
        self.idle_split = idle_split
        self._bank = load_bank
        self._clock = clock
        self._truth_rngs = {
            w.process_id: random.Random(f"{seed}:truth:{w.process_id}")
            for w in self.workloads
        }
        self._approx_rng = random.Random(f"{seed}:approx")
        self._series: dict[tuple[str, str], Series] = {}
        for w in self.workloads:
            for mode in (MODE_DYNAMIC, MODE_IDLE):
                self._series[(w.process_id, mode)] = store.get_or_create(
                    POWER_COUNTER_METRIC,
                    {
                        NAMESPACE_LABEL: w.namespace,
                        MODE_LABEL: mode,
                        PROCESS_LABEL: w.process_id,
                    },
                    COUNTER,
                )
        for mode in (MODE_DYNAMIC, MODE_IDLE):
            self._series[(SYSTEM_PROCESS_ID, mode)] = store.get_or_create(
                POWER_COUNTER_METRIC,
                {
                    NAMESPACE_LABEL: SYSTEM_NAMESPACE,
                    MODE_LABEL: mode,
                    PROCESS_LABEL: SYSTEM_PROCESS_ID,
                },
                COUNTER,
            )
        self._joules = {key: 0.0 for key in self._series}
        self._last_emit_ms = clock.now_ms()
        for series in self._series.values():
            series.append((self._last_emit_ms, 0.0))
        self.truth_log: list[GroundTruth] = []
        self.approx_log: list[ApproximationSnapshot] = []
        self.latest_truth = self._sample_truth(self._last_emit_ms)
        clock.schedule(self.emission_interval_ms, self._fire)

    def _sample_truth(self, time_ms: int) -> GroundTruth:
        dynamic: dict[str, float] = {}
        idle: dict[str, float] = {}
        for w in self.workloads:
            load = self._bank.get(w.load_knob)
            total = true_power(w, load, self._truth_rngs[w.process_id])
            dynamic[w.process_id], idle[w.process_id] = decompose_true_power(w, total)
        return GroundTruth(
            time_ms=time_ms,
            process_dynamic_w=dynamic,
            process_idle_w=idle,
            system_dynamic_w=self.system_baseline_w,
        )

    def _fire(self) -> None:
        now_ms = self._clock.now_ms()
        truth = self._sample_truth(now_ms)
        approx = approximate(
            truth, self.workloads, self.params, self._approx_rng, self.idle_split
        )
        dt_s = (now_ms - self._last_emit_ms) / 1000.0
        watts: dict[tuple[str, str], float] = {}
        for w in self.workloads:
            watts[(w.process_id, MODE_DYNAMIC)] = approx.process_dynamic_w[w.process_id]
            watts[(w.process_id, MODE_IDLE)] = approx.process_idle_w[w.process_id]
        watts[(SYSTEM_PROCESS_ID, MODE_DYNAMIC)] = approx.system_dynamic_w
        watts[(SYSTEM_PROCESS_ID, MODE_IDLE)] = approx.process_idle_w[SYSTEM_PROCESS_ID]
        for key, series in self._series.items():
            self._joules[key] += watts[key] * dt_s
            series.append((now_ms, self._joules[key]))
        self._last_emit_ms = now_ms
        self.latest_truth = truth
        self.truth_log.append(truth)
        self.approx_log.append(approx)


class MeterEmitter:
    """Periodic task: measure the current true node draw.

    Samples go either into the store's meter gauge or to a publish
    callback (the TCP line protocol in live mode).
    """

    def __init__(
        self,
        store: MetricStore | None,
        meter: MeterSpec,
        truth_source: Callable[[], float],
        clock: Clock,
        *,
        publish: Callable[[float, int], None] | None = None,
    ):
        self.meter = meter
        self._truth_source = truth_source
        self._clock = clock
        self._rng = random.Random(f"{meter.seed}:meter")
        self._publish = publish
        self._series = (
            store.get_or_create(METER_GAUGE_METRIC, {}, GAUGE)
            if store is not None
            else None
        )
        self.samples: list[tuple[int, float]] = []
        clock.schedule(meter.sample_interval_ms, self._fire)

    def _fire(self) -> None:
        now_ms = self._clock.now_ms()
        measured = meter_sample(self._truth_source(), self.meter, self._rng)
        self.samples.append((now_ms, measured))
        if self._series is not None:
            self._series.append((now_ms, measured))
        if self._publish is not None:
            self._publish(measured, now_ms)


class MeterPublisher:
    """Client side of the meter line protocol: one JSON object per line."""

    def __init__(self, host: str, port: int, timeout_s: float = 5.0):
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._file = self._sock.makefile("w", encoding="utf-8", newline="\n")

    def send(self, power_w: float, ts_ms: int) -> None:
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
                power_w = float(record["power_w"])
                ts_ms = int(record["ts_ms"])
            except (ValueError, KeyError, TypeError):
                continue  # malformed line: skip, keep the stream alive
            self.server.ingest(ts_ms, power_w)


class MeterListener(socketserver.ThreadingTCPServer):
    """Accepts meter publisher connections and feeds the store's gauge."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, bind: tuple[str, int], store: MetricStore):
        super().__init__(bind, _MeterIngestHandler)
        self._store = store
        self._gauge = store.get_or_create(METER_GAUGE_METRIC, {}, GAUGE)
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
