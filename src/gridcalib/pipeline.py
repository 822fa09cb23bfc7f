"""End-to-end scenario execution and artifact emission.

run() wires the full stack under one clock: workload emulation feeds the
metric store, one calibration stage turns it into per-process calibrated
power once per collection, namespace actors report their share of it as
microgrid consumers, the benchmark controller walks the load schedule,
and a post-pass walks ARTIFACTS, the one table of the run's files,
building and writing each in turn. The calibrated power table
serialises the columns the stage logged on each tick, so it matches
the monitor's actor powers by construction. The numeric
tables are encoded from their columns by ticklog.columns_csv, which
formats each run of repeated rows of a block once, and each distinct
float of those runs once; the energy summary and the events, which hold
strings, go through ticklog.csv_bytes.
Everything is deterministic under virtual time: the same config and seed
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attribution import left_sum
from .calibration import (
    CalibrationStage,
    NamespacePowerActor,
    capture_idle_baseline,
    member_sum,
)
from .config import NamespaceActorSpec, ScenarioConfig, config_to_dict
from .emulation import (
    LOAD_KNOBS,
    BenchmarkController,
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
from .microgrid import Microgrid, Monitor
from .signals import VirtualClock, WallClock
from .ticklog import columns_csv
from .ticklog import csv_bytes as _csv_bytes
from .timeseries import GAUGE, CounterFrame, MetricStore, Series
from .validation import (
    PLOT_HEADER,
    RegressionReport,
    compare_to_ideal,
    fit_ols,
    report_to_json,
)
from .wire import METER_GAUGE_METRIC

MONITOR_CSV = "monitor.csv"
CALIBRATED_CSV = "calibrated_power.csv"
ENERGY_CSV = "energy_summary.csv"
REGRESSION_JSON = "regression_report.json"
REGRESSION_CSV = "regression_points.csv"
TRUTH_CSV = "ground_truth.csv"
EVENTS_CSV = "events.csv"
CONFIG_JSON = "config.json"

# how long a live run waits for the meter listener to store a reading
# that has already been published over TCP
METER_WAIT_S = 5.0

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class RunArtifacts:
    """The directory run() wrote ARTIFACT_NAMES to, plus live handles
    for callers that want to inspect the run without re-reading the
    files: the per-tick records are the handles' tick logs (stage.log,
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
    energy_wh: dict[str, float]


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


class _Runtime:
    """Everything run() builds before stepping the engine, and what the
    artifact builders keep of the post-pass: the energy totals and the
    node regression."""

    def __init__(self, config: ScenarioConfig, clock, store: MetricStore):
        self.config = config
        self.clock = clock
        self.store = store
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
        self.energy_wh: dict[str, float] = {}
        self.fit: tuple | None = None  # _node_regression's result, once fitted

    def build(self, wall_clock: bool) -> None:
        config, clock, store = self.config, self.clock, self.store
        loads = dict.fromkeys(LOAD_KNOBS, 0.0)  # each knob's current level
        if config.workloads:
            self.emitter = PowerModelEmitter(
                store,
                config.workloads,
                loads,
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
            # the trailing window is the warmup: with none, the clock is at 0
            # and any window holds the same samples
            self.m_idle_w = capture_idle_baseline(
                self.gauge, clock.now_ms(), config.m_idle_capture, config.warmup_ms
            )
            self.stage = CalibrationStage(
                self.emitter.processes,
                self.emitter.frame,
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
        if config.schedule is not None:  # config validation guarantees workloads
            self.benchmark = BenchmarkController(config.schedule, loads)
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
    config: ScenarioConfig, gauge: Series | None, frame: CounterFrame | None
) -> tuple[RegressionReport | None, str | None, tuple[np.ndarray, ...] | None]:
    """Fit measured node power against the approximated node total. The
    points are _regression_points' columns, None when skipped."""
    if not config.workloads:
        return None, "no workloads", None
    if len(gauge) == 0:
        return None, "no meter samples", None
    points = _regression_points(gauge, frame, config.emission_interval_ms)
    if len(points[0]) < 2:
        return None, "not enough aligned samples", None
    try:
        report = fit_ols(*points[1:])
    except DegenerateX as exc:
        return None, str(exc), None
    return report, None, points


def _regression_points(
    gauge: Series, frame: CounterFrame, interval_ms: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The t, x and y columns, one entry per meter sample whose trailing
    interval the emitter's counter frame covers: x is the sum of the
    counter rates over that interval, which recovers exactly the watts
    the emitter integrated, and y is the sample's reading. The rates come
    from the frame's vector shape of the rate rule, a window per meter
    sample, and are added in store key order: the sum's last bits, and
    so the artifacts', depend on that order."""
    ts, measured = gauge.columns()
    watts, covered = frame.rates(ts, interval_ms)
    members = frame.members
    total = np.zeros(len(watts))
    for j in sorted(range(len(members)), key=lambda j: members[j].key):
        total += watts[:, j]
    return ts[covered], total, measured[covered]


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


def _regression(runtime: _Runtime) -> tuple:
    """The node regression that the report and its points share, fitted
    when the first of them is built."""
    if runtime.fit is None:
        frame = runtime.emitter.frame if runtime.emitter is not None else None
        runtime.fit = _node_regression(runtime.config, runtime.gauge, frame)
    return runtime.fit


def _json_bytes(payload: dict, indent: int | None = None) -> bytes:
    return (json.dumps(payload, indent=indent, sort_keys=True) + "\n").encode()


def _energy_csv(runtime: _Runtime) -> bytes:
    header, rows, runtime.energy_wh = _energy_summary(runtime.stage)
    return _csv_bytes(header, rows)


def _regression_json(runtime: _Runtime) -> bytes:
    report, skipped, _ = _regression(runtime)
    if report is None:
        return _json_bytes({"skipped": skipped})
    return (report_to_json(report) + "\n").encode()


def _regression_csv(runtime: _Runtime) -> bytes:
    report, skipped, points = _regression(runtime)
    runtime.fit = report, skipped, None  # the points are not held past their file
    if report is None:
        return columns_csv(PLOT_HEADER, [])
    fitted = report.slope * points[1] + report.intercept_w
    return columns_csv(PLOT_HEADER, [*points[1:], fitted, points[2] - fitted])


def _events(runtime: _Runtime) -> list[tuple[str, float, int]]:
    return list(runtime.benchmark.events) if runtime.benchmark is not None else []


# Every artifact of a run, in the order it is built and written. Each
# builder takes the finished runtime and returns the file's bytes; it looks
# its functions up in this module when it runs, so a rebound one is called.
ARTIFACTS = (
    (MONITOR_CSV, lambda runtime: runtime.engine.monitor.csv_bytes()),
    (CALIBRATED_CSV, lambda runtime: columns_csv(*_calibrated_table(runtime.stage))),
    (ENERGY_CSV, _energy_csv),
    (REGRESSION_JSON, _regression_json),
    (REGRESSION_CSV, _regression_csv),
    (TRUTH_CSV, lambda runtime: _truth_csv(runtime.emitter)),
    (EVENTS_CSV, lambda runtime: _csv_bytes(["action", "value", "time_ms"], _events(runtime))),
    (CONFIG_JSON, lambda runtime: _json_bytes(config_to_dict(runtime.config), indent=2)),
)

ARTIFACT_NAMES = [name for name, _ in ARTIFACTS]


def _write_artifacts(runtime: _Runtime, out: Path) -> RunArtifacts:
    """Build, encode and write each artifact in table order, so no table
    is held while the next one is built."""
    for name, build in ARTIFACTS:
        _atomic_write(out / name, build(runtime))
    report, skipped, _ = _regression(runtime)
    return RunArtifacts(
        out_dir=out,
        store=runtime.store,
        monitor=runtime.engine.monitor,
        events=_events(runtime),
        emitter=runtime.emitter,
        stage=runtime.stage,
        regression=report,
        regression_skipped=skipped,
        m_idle_w=runtime.m_idle_w,
        energy_wh=runtime.energy_wh,
    )


# --- artifact consumers --------------------------------------------------------


@contextmanager
def _corrupt(artifacts_dir: str | Path, name: str):
    """Turn a value error met while reading one artifact (bad JSON, a
    missing column or key, a wrong type, a non-finite number) into a
    GridCalibError that names the file."""
    try:
        yield
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        path = Path(artifacts_dir) / name
        raise GridCalibError(f"corrupt artifact {path}: {type(exc).__name__}: {exc}") from None


def _read_artifact(artifacts_dir: str | Path, name: str):
    """One artifact of a run directory, parsed: a JSON file's object or a
    CSV file's rows. MissingArtifact names the file when it is not there."""
    path = Path(artifacts_dir) / name
    if not path.exists():
        raise MissingArtifact(f"missing artifact: {path}")
    with open(path, newline="") as fh, _corrupt(artifacts_dir, name):
        return json.load(fh) if name.endswith(".json") else list(csv.DictReader(fh))


def report(artifacts_dir: str | Path, floor_wh: float) -> str:
    """Human-readable run summary: energy table plus regression verdicts.

    Processes under floor_wh are grouped into an "other" bucket, the way
    long tails usually are in per-service energy reports.
    """
    rows = _read_artifact(artifacts_dir, ENERGY_CSV)
    with _corrupt(artifacts_dir, ENERGY_CSV):
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

    data = _read_artifact(artifacts_dir, REGRESSION_JSON)
    with _corrupt(artifacts_dir, REGRESSION_JSON):
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
    rows = _read_artifact(artifacts_dir, REGRESSION_CSV)
    data = _read_artifact(artifacts_dir, REGRESSION_JSON)
    with _corrupt(artifacts_dir, REGRESSION_JSON):
        if "skipped" in data:
            return None
        stored = RegressionReport(**data)
    with _corrupt(artifacts_dir, REGRESSION_CSV):
        recomputed = fit_ols([float(r["x_w"]) for r in rows], [float(r["y_w"]) for r in rows])
    checks = [
        ("slope", stored.slope, recomputed.slope),
        ("intercept_w", stored.intercept_w, recomputed.intercept_w),
        ("r2", stored.r2, recomputed.r2),
        ("residual_median_w", stored.residual_median_w, recomputed.residual_median_w),
        ("residual_max_w", stored.residual_max_w, recomputed.residual_max_w),
    ]
    with _corrupt(artifacts_dir, REGRESSION_JSON):
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
