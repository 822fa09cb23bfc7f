"""End-to-end scenario execution and artifact emission.

run() wires the full stack under one clock: workload emulation feeds the
metric store, one calibration stage turns it into per-process calibrated
power once per collection, namespace actors report their share of it as
microgrid consumers, the benchmark controller walks the load schedule,
and a post-pass turns the run into CSV/JSON artifacts. The calibrated
power table serialises the columns the stage logged on each tick, so
it matches the monitor's actor powers by construction. The numeric
tables are encoded from their columns by ticklog.columns_csv; the energy
summary and the events, which hold strings, go through ticklog.csv_bytes.
Everything is deterministic under virtual time: the same config and seed
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attribution import left_sum
from .calibration import (
    DEFAULT_M_IDLE_WINDOW_MS,
    CalibrationStage,
    NamespacePowerActor,
    capture_idle_baseline,
    member_sum,
)
from .config import NamespaceActorSpec, ScenarioConfig, config_to_dict
from .emulation import (
    LoadBank,
    MeterEmitter,
    MeterListener,
    MeterPublisher,
    PowerModelEmitter,
    node_true_total,
)
from .errors import (
    ConfigError,
    DegenerateX,
    GridCalibError,
    MissingArtifact,
)
from .microgrid import BenchmarkController, Microgrid, Monitor
from .signals import VirtualClock, WallClock
from .ticklog import columns_csv
from .ticklog import csv_bytes as _csv_bytes
from .timeseries import GAUGE, MetricStore, Series, rates
from .validation import (
    PLOT_HEADER,
    RegressionReport,
    compare_to_ideal,
    fit_ols,
    report_to_json,
)
from .wire import METER_GAUGE_METRIC, POWER_COUNTER_METRIC

MONITOR_CSV = "monitor.csv"
CALIBRATED_CSV = "calibrated_power.csv"
ENERGY_CSV = "energy_summary.csv"
REGRESSION_JSON = "regression_report.json"
REGRESSION_CSV = "regression_points.csv"
TRUTH_CSV = "ground_truth.csv"
EVENTS_CSV = "events.csv"
CONFIG_JSON = "config.json"

ARTIFACT_NAMES = [
    MONITOR_CSV,
    CALIBRATED_CSV,
    ENERGY_CSV,
    REGRESSION_JSON,
    REGRESSION_CSV,
    TRUTH_CSV,
    EVENTS_CSV,
    CONFIG_JSON,
]

# how long a live run waits for the meter listener to store a reading
# that has already been published over TCP
METER_WAIT_S = 5.0

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _artifact_path(name: str) -> property:
    return property(lambda self: self.out_dir / name)


@dataclass
class RunArtifacts:
    """Paths of everything run() wrote, plus live handles for callers
    that want to inspect the run without re-reading the files: the
    per-tick records are the handles' tick logs (stage.log,
    emitter.truth, monitor.log)."""

    out_dir: Path
    store: MetricStore
    monitor: Monitor
    events: list[tuple[str, float, int]]
    emitter: PowerModelEmitter | None
    stage: CalibrationStage | None
    regression: RegressionReport | None
    regression_skipped: str | None
    m_idle_w: float
    energy_wh: dict[str, float] = field(default_factory=dict)

    monitor_csv = _artifact_path(MONITOR_CSV)
    calibrated_csv = _artifact_path(CALIBRATED_CSV)
    energy_csv = _artifact_path(ENERGY_CSV)
    regression_json = _artifact_path(REGRESSION_JSON)
    regression_csv = _artifact_path(REGRESSION_CSV)
    truth_csv = _artifact_path(TRUTH_CSV)
    events_csv = _artifact_path(EVENTS_CSV)
    config_json = _artifact_path(CONFIG_JSON)


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


class _Runtime:
    """Everything run() builds before stepping the engine."""

    def __init__(self, config: ScenarioConfig, clock, store: MetricStore):
        self.config = config
        self.clock = clock
        self.store = store
        self.bank = LoadBank()
        self.emitter: PowerModelEmitter | None = None
        # the meter's gauge, resolved once; None when there are no workloads
        self.gauge: Series | None = None
        self.meter: MeterEmitter | None = None
        self.listener: MeterListener | None = None
        self.publisher: MeterPublisher | None = None
        self.benchmark: BenchmarkController | None = None
        self.stage: CalibrationStage | None = None
        self.m_idle_w = 0.0
        self.engine: Microgrid | None = None

    def build(self, wall_clock: bool) -> None:
        config, clock, store = self.config, self.clock, self.store
        if config.workloads:
            self.emitter = PowerModelEmitter(
                store,
                config.workloads,
                self.bank,
                clock,
                params=config.approximation,
                system_baseline_w=config.system_baseline_w,
                emission_interval_ms=config.emission_interval_ms,
                idle_split=config.idle_split,
                seed=config.seed,
            )
            emitter = self.emitter
            self.gauge = gauge = store.get_or_create(METER_GAUGE_METRIC, {}, GAUGE)

            def truth() -> float:
                return emitter.node_total_w

            publish = gauge.append
            if wall_clock:
                # live mode pushes meter readings over the TCP line
                # protocol; the listener feeds the gauge
                self.listener = MeterListener(("127.0.0.1", 0), gauge)
                self.listener.serve_in_background()
                host, port = self.listener.server_address[:2]
                self.publisher = MeterPublisher(host, port)
                publish = self.publisher.send
            self.meter = MeterEmitter(config.meter, truth, clock, publish)
        if config.warmup_ms:
            clock.advance(config.warmup_ms)
        self.await_meter()
        self.engine = Microgrid(
            clock=clock,
            dt_ms=config.dt_ms,
            storage=config.storage,
        )
        if config.workloads:
            self.m_idle_w = capture_idle_baseline(
                self.gauge,
                clock.now_ms(),
                mode=config.m_idle_capture,
                window_ms=config.warmup_ms or DEFAULT_M_IDLE_WINDOW_MS,
            )
            self.stage = CalibrationStage(
                self.emitter.processes,
                self.emitter.counters,
                self.gauge,
                clock,
                self.m_idle_w,
                window_ms=config.query_window_ms,
                interval_ms=config.signal_interval_ms,
            )
            self.engine.add_controller(self.stage)
        for actor in config.actors:  # static and trace actors run as parsed
            if isinstance(actor, NamespaceActorSpec):
                # config validation guarantees a stage: namespace actors need workloads
                actor = NamespacePowerActor(
                    self.stage,
                    actor.namespace,
                    actor_id=actor.resolved_id,
                    strict=config.strict_signals,
                )
            self.engine.add_actor(actor)
        schedule = config.schedule
        if schedule is not None:  # config validation guarantees workloads
            self.benchmark = BenchmarkController(
                schedule.levels,
                schedule.runtime_ms,
                on_start=lambda value: self.bank.set_level(schedule.knob, value),
                on_stop=lambda value: self.bank.clear(schedule.knob),
            )
            self.engine.add_controller(self.benchmark)

    def await_meter(self) -> None:
        """Live mode: wait until the listener has stored the last reading
        the meter published, so the gauge holds what a virtual run's would."""
        if self.listener is None or self.meter.last_ms is None:
            return
        last_ms = self.meter.last_ms
        deadline = time.monotonic() + METER_WAIT_S
        while (self.gauge.last_timestamp() or 0) < last_ms:
            if time.monotonic() > deadline:
                raise GridCalibError(
                    f"meter reading at {last_ms} ms never reached the store"
                )
            time.sleep(0.001)

    def close(self) -> None:
        if self.publisher is not None:
            self.publisher.close()
        if self.listener is not None:
            self.listener.shutdown()
            self.listener.server_close()


def run(
    config: ScenarioConfig,
    out_dir: str | Path | None = None,
    wall_clock: bool = False,
    store: MetricStore | None = None,
) -> RunArtifacts:
    """Execute a scenario and write its artifacts.

    out_dir overrides config.outputs. Callers may inject a store to
    observe the run live (the serve command does); by default each run
    gets a fresh one.
    """
    target = out_dir if out_dir is not None else config.outputs
    if target is None:
        raise ConfigError("outputs: no output directory (set outputs or pass --out)")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)

    clock = WallClock() if wall_clock else VirtualClock()
    runtime = _Runtime(config, clock, store if store is not None else MetricStore())
    try:
        runtime.build(wall_clock)
        runtime.engine.run(config.duration_ms)
        runtime.await_meter()
    finally:
        runtime.close()
    return _write_artifacts(runtime, out)


def _write_artifacts(runtime: _Runtime, out: Path) -> RunArtifacts:
    """Build, encode and write each artifact in turn, so no table is
    held while the next one is built."""
    config, monitor = runtime.config, runtime.engine.monitor
    _atomic_write(out / MONITOR_CSV, monitor.csv_bytes())
    _atomic_write(out / CALIBRATED_CSV, columns_csv(*_calibrated_table(runtime.stage)))
    energy_header, energy_rows, energy_wh = _energy_summary(runtime.stage)
    _atomic_write(out / ENERGY_CSV, _csv_bytes(energy_header, energy_rows))
    report, skipped = _write_regression(runtime, out)
    _atomic_write(out / TRUTH_CSV, _truth_csv(runtime.emitter))
    events = list(runtime.benchmark.events) if runtime.benchmark is not None else []
    _atomic_write(out / EVENTS_CSV, _csv_bytes(["action", "value", "time_ms"], events))
    config_payload = json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"
    _atomic_write(out / CONFIG_JSON, config_payload.encode())

    return RunArtifacts(
        out_dir=out,
        store=runtime.store,
        monitor=monitor,
        events=events,
        emitter=runtime.emitter,
        stage=runtime.stage,
        regression=report,
        regression_skipped=skipped,
        m_idle_w=runtime.m_idle_w,
        energy_wh=energy_wh,
    )


def _write_regression(
    runtime: _Runtime, out: Path
) -> tuple[RegressionReport | None, str | None]:
    """Fit and write the regression report and its points; the points
    are dropped when this returns."""
    report, skipped, points = _node_regression(runtime.config, runtime.gauge, runtime.store)
    if report is not None:
        _atomic_write(out / REGRESSION_JSON, (report_to_json(report) + "\n").encode())
        fitted = report.slope * points[1] + report.intercept_w
        plot = [*points[1:], fitted, points[2] - fitted]
    else:
        payload = json.dumps({"skipped": skipped}, sort_keys=True) + "\n"
        _atomic_write(out / REGRESSION_JSON, payload.encode())
        plot = []
    _atomic_write(out / REGRESSION_CSV, columns_csv(PLOT_HEADER, plot))
    return report, skipped


def _calibrated_table(stage: CalibrationStage | None) -> tuple[list[str], list[np.ndarray]]:
    """Per-process and per-namespace calibrated power, one row per engine
    tick: the snapshot the namespace actors read on that tick, totalled
    per namespace by the same member_sum."""
    if stage is None:
        return ["time_ms"], []
    logged = stage.log.columns()
    pids = [pid for pid, _ in stage.processes]
    header = ["time_ms", *(f"{p}_{mode}_w" for p in pids for mode in ("dyn", "idle"))]
    columns = [logged[name] for name in header]
    dyn, idle = [logged[f"{p}_dyn_w"] for p in pids], [logged[f"{p}_idle_w"] for p in pids]
    for ns, members in stage.namespaces.items():
        header += [f"ns.{ns}_dyn_w", f"ns.{ns}_idle_w"]
        columns += [member_sum(dyn, members), member_sum(idle, members)]
    return header, columns


def _energy_summary(
    stage: CalibrationStage | None,
) -> tuple[list[str], list[list], dict[str, float]]:
    """Trapezoidal integration of each process's calibrated power, from
    the stage's logged columns."""
    header = ["process", "namespace", "energy_wh", "share_pct"]
    if stage is None or len(stage.log) == 0:
        return header, [], {}
    processes = stage.processes
    logged = stage.log.columns()
    times_s = logged["time_ms"] / 1000.0
    energy: dict[str, float] = {}
    for pid, _ in processes:
        power = logged[f"{pid}_dyn_w"] + logged[f"{pid}_idle_w"]
        energy[pid] = float(_trapezoid(power, times_s)) / 3600.0
    total = left_sum(energy.values())
    ns_of = dict(processes)
    ordered = sorted(processes, key=lambda item: (-energy[item[0]], item[0]))
    rows = []
    for pid, _ in ordered:
        share = 100.0 * energy[pid] / total if total > 0 else 0.0
        rows.append([pid, ns_of[pid], energy[pid], share])
    return header, rows, energy


def _node_regression(
    config: ScenarioConfig, gauge: Series | None, store: MetricStore
) -> tuple[RegressionReport | None, str | None, tuple[np.ndarray, ...] | None]:
    """Fit measured node power against the approximated node total. The
    points are _regression_points' columns, None when skipped."""
    if not config.workloads:
        return None, "no workloads", None
    if len(gauge) == 0:
        return None, "no meter samples", None
    points = _regression_points(
        gauge, store.match(POWER_COUNTER_METRIC, None), config.emission_interval_ms
    )
    if len(points[0]) < 2:
        return None, "not enough aligned samples", None
    try:
        report = fit_ols(*points[1:])
    except DegenerateX as exc:
        return None, str(exc), None
    return report, None, points


def _regression_points(
    gauge: Series, counters: list[Series], interval_ms: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The t, x and y columns, one entry per meter sample whose trailing
    interval every counter covers: x is the sum of the counter rates over
    that interval, which recovers exactly the watts the emitter
    integrated, and y is the sample's reading. Counters are added in the
    order given, which is key order for a store match."""
    ts, measured = gauge.columns()
    total = np.zeros(len(ts))
    covered = np.ones(len(ts), dtype=bool)
    for series in counters:
        watts, ok = rates(series, ts, interval_ms)
        total += watts
        covered &= ok
    return ts[covered], total[covered], measured[covered]


def _truth_csv(emitter: PowerModelEmitter | None) -> bytes:
    """The emitter's truth log with each workload's columns side by side,
    and each row's node total as node_true_total adds it for the meter."""
    pids = [pid for pid, _ in emitter.processes[:-1]] if emitter is not None else []
    header = ["time_ms", *(f"{p}_true_{mode}_w" for p in pids for mode in ("dyn", "idle"))]
    header.append("system_true_dyn_w")
    if emitter is None:
        return columns_csv(header + ["node_true_total_w"], [])
    logged = emitter.truth.columns()
    dyn = [logged[f"{p}_true_dyn_w"] for p in pids]
    idle = [logged[f"{p}_true_idle_w"] for p in pids]
    total = node_true_total(dyn, idle, logged["system_true_dyn_w"])
    columns = [logged[name] for name in header] + [total]
    return columns_csv(header + ["node_true_total_w"], columns)


# --- artifact consumers --------------------------------------------------------


def _read_energy_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _load_regression_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def report(artifacts_dir: str | Path, floor_wh: float = 1.0) -> str:
    """Human-readable run summary: energy table plus regression verdicts.

    Processes under floor_wh are grouped into an "other" bucket, the way
    long tails usually are in per-service energy reports.
    """
    out = Path(artifacts_dir)
    energy_path = out / ENERGY_CSV
    regression_path = out / REGRESSION_JSON
    for path in (energy_path, regression_path):
        if not path.exists():
            raise MissingArtifact(f"missing artifact: {path}")
    rows = _read_energy_rows(energy_path)
    entries = [
        (row["process"], row["namespace"], float(row["energy_wh"])) for row in rows
    ]
    total = left_sum(e for _, _, e in entries)
    major = [item for item in entries if item[2] >= floor_wh]
    minor = [item for item in entries if item[2] < floor_wh]
    lines = [f"{'process':<24} {'namespace':<12} {'energy_wh':>12} {'share':>8}"]

    def pct(wh: float) -> float:
        return 100.0 * wh / total if total > 0 else 0.0

    for pid, ns, wh in major:
        lines.append(f"{pid:<24} {ns:<12} {wh:>12.3f} {pct(wh):>7.1f}%")
    if minor:
        other = left_sum(e for _, _, e in minor)
        label = f"other ({len(minor)} under {floor_wh:g} Wh)"
        lines.append(f"{label:<24} {'-':<12} {other:>12.3f} {pct(other):>7.1f}%")
    if not entries:
        lines.append("(no processes)")
    lines.append(f"{'total':<24} {'':<12} {total:>12.3f} {100.0 if total > 0 else 0.0:>7.1f}%")

    data = _load_regression_json(regression_path)
    if "skipped" in data:
        lines.append(f"regression: skipped ({data['skipped']})")
    else:
        fitted = RegressionReport(**data)
        verdict = compare_to_ideal(fitted)

        def mark(ok: bool) -> str:
            return "ok" if ok else "FAIL"

        lines.append(
            f"regression: slope {fitted.slope:.4f} ({mark(verdict.slope_ok)}), "
            f"intercept {fitted.intercept_w:.2f} W ({mark(verdict.intercept_ok)}), "
            f"r2 {fitted.r2:.4f} ({mark(verdict.r2_ok)}), n={fitted.n}"
        )
    return "\n".join(lines) + "\n"


def validate(artifacts_dir: str | Path) -> RegressionReport | None:
    """Re-fit the stored regression points and check them against the
    stored report. Returns the recomputed report, or None when the run
    skipped regression."""
    out = Path(artifacts_dir)
    points_path = out / REGRESSION_CSV
    report_path = out / REGRESSION_JSON
    for path in (points_path, report_path):
        if not path.exists():
            raise MissingArtifact(f"missing artifact: {path}")
    data = _load_regression_json(report_path)
    if "skipped" in data:
        return None
    stored = RegressionReport(**data)
    with open(points_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    x = np.array([float(r["x_w"]) for r in rows])
    y = np.array([float(r["y_w"]) for r in rows])
    recomputed = fit_ols(x, y)
    checks = [
        ("slope", stored.slope, recomputed.slope),
        ("intercept_w", stored.intercept_w, recomputed.intercept_w),
        ("r2", stored.r2, recomputed.r2),
        ("residual_median_w", stored.residual_median_w, recomputed.residual_median_w),
        ("residual_max_w", stored.residual_max_w, recomputed.residual_max_w),
    ]
    for name, want, got in checks:
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            raise GridCalibError(
                f"stored regression does not match its points: "
                f"{name} {want} vs recomputed {got}"
            )
    if stored.n != recomputed.n:
        raise GridCalibError(
            f"stored regression does not match its points: "
            f"n {stored.n} vs recomputed {recomputed.n}"
        )
    return recomputed
