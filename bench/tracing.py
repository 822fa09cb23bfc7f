"""Host-time probes around gridcalib's layers, installed from outside.

Nothing under src/ is edited. Each probe replaces a module or class
attribute for the life of one benchmark child process, so it sees every
call the program makes through that binding.

StepTimer is always on: one timer pair per Microgrid.step, plus the
instant the engine loop returns (the start of the artifact post-pass).
Tracer is on only in traced repetitions. It keeps spans (name, start,
end, parent) and counters in memory and writes them when the child
ends. Self time is a span's duration minus the time of its child spans
on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from gridcalib import (
    calibration,
    config,
    emulation,
    microgrid,
    pipeline,
    server,
    signals,
    timeseries,
    validation,
)
from gridcalib.errors import EmptyWindow


class StepTimer:
    """Host ns per engine step and the end of the engine loop."""

    def __init__(self):
        self.step_ns: list[int] = []
        self.loop_end_ns: int | None = None

    def install(self) -> None:
        step, run = microgrid.Microgrid.step, microgrid.Microgrid.run
        timer = self

        @functools.wraps(step)
        def timed_step(engine):
            t0 = perf_counter_ns()
            tick = step(engine)
            timer.step_ns.append(perf_counter_ns() - t0)
            return tick

        @functools.wraps(run)
        def timed_run(engine, duration_ms):
            monitor = run(engine, duration_ms)
            timer.loop_end_ns = perf_counter_ns()
            return monitor

        microgrid.Microgrid.step = timed_step
        microgrid.Microgrid.run = timed_run


# --- counters taken at a layer boundary, after the call ----------------------


def _count_match(tracer, args, result, exc):
    # How many series a match visits is not visible from outside the
    # store, so there is no scanned count or useful-work ratio yet.
    if result is not None:
        tracer.add("timeseries.match.returned", len(result))


def _count_rate(tracer, args, result, exc):
    if isinstance(exc, EmptyWindow):
        tracer.add("timeseries.rate.empty_window")


def _note_signal(tracer, args, result, exc):
    tracer.signals[id(args[0])] = args[0]


def _count_zero_factor(tracer, args, result, exc):
    if exc is None and args[0].info().get("factor_a") == 0:
        tracer.add("calibration.actor.zero_factor")


def _count_written(tracer, args, result, exc):
    tracer.add("pipeline.atomic_write.bytes", len(args[1]))


def _count_exposition(tracer, args, result, exc):
    if result is not None:
        tracer.add("server.exposition.bytes", len(result.encode()))


# (span name, bindings the program calls it through, keep every span, counter).
# Leaf calls made hundreds of thousands of times keep totals only.
PROBES = [
    ("config.resolve", [(config, "resolve_config")], True, None),
    ("pipeline.run", [(pipeline, "run")], True, None),
    ("emulation.emit", [(emulation.PowerModelEmitter, "_fire")], True, None),
    ("emulation.approximate", [(emulation, "approximate")], True, None),
    ("emulation.meter", [(emulation.MeterEmitter, "_fire")], True, None),
    ("timeseries.append", [(timeseries.Series, "append")], False, None),
    ("timeseries.query", [(timeseries, "query"), (signals, "query")], True, None),
    ("timeseries.match", [(timeseries.MetricStore, "match")], False, _count_match),
    ("timeseries.rate", [(timeseries, "rate"), (pipeline, "rate")], False, _count_rate),
    ("signals.fire", [(signals.Signal, "_fire")], True, _note_signal),
    ("signals.advance", [(signals.VirtualClock, "advance")], True, None),
    ("calibration.actor", [(calibration.NamespacePowerActor, "power")], True, _count_zero_factor),
    ("microgrid.step", [(microgrid.Microgrid, "step")], True, None),
    ("microgrid.settle", [(microgrid, "settle")], True, None),
    ("pipeline.calibrated_table", [(pipeline, "_calibrated_table")], True, None),
    ("pipeline.energy_summary", [(pipeline, "_energy_summary")], True, None),
    ("pipeline.node_regression", [(pipeline, "_node_regression")], True, None),
    ("pipeline.truth_csv", [(pipeline, "_truth_csv")], True, None),
    ("pipeline.csv_bytes", [(pipeline, "_csv_bytes")], True, None),
    ("pipeline.monitor_csv", [(microgrid.Monitor, "csv_bytes")], True, None),
    ("pipeline.atomic_write", [(pipeline, "_atomic_write")], True, _count_written),
    ("validation.pair", [(validation, "pair"), (pipeline, "pair")], True, None),
    ("validation.fit_ols", [(validation, "fit_ols"), (pipeline, "fit_ols")], True, None),
    ("server.exposition", [(server, "format_exposition")], True, _count_exposition),
]


CALLS, TOTAL_NS, SELF_NS = range(3)  # fields of Tracer.stats values


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans: list[tuple] = []  # (id, parent id, name, phase, thread, start ns, end ns)
        self.stats: dict[tuple[str, str], list[int]] = {}  # (phase, name) -> calls, total, self
        self.counts: Counter = Counter()  # (phase, name) -> count
        self.signals: dict[int, signals.Signal] = {}
        self.unhooked: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def install(self) -> None:
        """Wrap every probe binding; a binding the program no longer has
        is listed in `unhooked` and its metrics read 0."""
        served_query = getattr(server, "query", None)
        for name, bindings, keep, count in PROBES:
            owner, attr = bindings[0]
            original = getattr(owner, attr, None)
            if original is None:
                self.unhooked.append(f"{name}: {owner.__name__}.{attr}")
                continue
            wrapped = self._wrap(name, original, keep, count)
            for owner, attr in bindings:
                if getattr(owner, attr, None) is original:
                    setattr(owner, attr, wrapped)
                else:
                    self.unhooked.append(f"{name}: {owner.__name__}.{attr}")
        # a server.query span around the traced timeseries.query, so the
        # request handler's query nests the store's match and rate spans
        if served_query is not None and served_query is getattr(timeseries.query, "__wrapped__", None):
            server.query = self._wrap("server.query", timeseries.query, True, None)
        else:
            self.unhooked.append("server.query: server.query")

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple[list, list]:
        stack = self._stack()
        frame = [next(self._ids), stack[-1][0] if stack else 0, 0]  # id, parent, child ns
        stack.append(frame)
        return stack, frame

    def _exit(self, name, stack, frame, start, end, keep) -> None:
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            stat = self.stats.setdefault((self.phase, name), [0, 0, 0])
            stat[CALLS] += 1
            stat[TOTAL_NS] += duration
            stat[SELF_NS] += duration - frame[2]
            if keep:
                self.spans.append(
                    (frame[0], frame[1], name, self.phase, threading.get_ident(), start, end)
                )

    def _wrap(self, name, fn, keep, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, frame = tracer._enter()
            result = exc = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                tracer._exit(name, stack, frame, start, perf_counter_ns(), keep)
                if count is not None:
                    count(tracer, args, result, exc)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one client request."""
        stack, frame = self._enter()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._exit(name, stack, frame, start, perf_counter_ns(), True)

    # --- reading it back --------------------------------------------------

    def total(self, name: str, phases, field: int = TOTAL_NS) -> int:
        """Calls, total ns or self ns of one probe, summed over phases."""
        return sum(self.stats.get((p, name), (0, 0, 0))[field] for p in phases)

    def count(self, name: str, phases) -> int:
        return sum(self.counts[(p, name)] for p in phases)

    def dump(self, path: Path) -> None:
        payload = {
            "span_fields": ["id", "parent", "name", "phase", "thread", "start_ns", "end_ns"],
            "spans": self.spans,
            "stats": [[p, n, *v] for (p, n), v in sorted(self.stats.items())],
            "counts": [[p, n, v] for (p, n), v in sorted(self.counts.items())],
            "unhooked": self.unhooked,
        }
        Path(path).write_text(json.dumps(payload))


MEASURED_PHASES = ("setup", "run", "serve")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if metric.endswith("us"):
        return "us"
    if metric.endswith(".s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith(("ratio", "rate")):
        return "ratio"
    return "count"


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, summed over the child's
    set-up, run and serve phases."""
    ph = MEASURED_PHASES

    def calls(name):
        return tracer.total(name, ph, CALLS)

    def us(name, field=TOTAL_NS):
        return tracer.total(name, ph, field) / 1e3

    def s(name):
        return tracer.total(name, ph) / 1e9

    client_ns = tracer.total("client.metrics", ph) + tracer.total("client.query", ph)
    return {
        "emulation.emit.calls": calls("emulation.emit"),
        "emulation.emit.self_us": us("emulation.emit", SELF_NS),
        "emulation.approximate.us": us("emulation.approximate"),
        "emulation.meter.calls": calls("emulation.meter"),
        "emulation.meter.us": us("emulation.meter"),
        "timeseries.append.calls": calls("timeseries.append"),
        "timeseries.append.us": us("timeseries.append"),
        "timeseries.query.calls": calls("timeseries.query"),
        "timeseries.query.self_us": us("timeseries.query", SELF_NS),
        "timeseries.match.us": us("timeseries.match"),
        "timeseries.match.returned": tracer.count("timeseries.match.returned", ph),
        "timeseries.rate.calls": calls("timeseries.rate"),
        "timeseries.rate.us": us("timeseries.rate"),
        "timeseries.rate.empty_window": tracer.count("timeseries.rate.empty_window", ph),
        "signals.fire.calls": calls("signals.fire"),
        "signals.collect.errors": sum(sig.error_count for sig in tracer.signals.values()),
        "signals.advance.self_us": us("signals.advance", SELF_NS),
        "calibration.actor.calls": calls("calibration.actor"),
        "calibration.actor.us": us("calibration.actor"),
        "calibration.actor.zero_factor": tracer.count("calibration.actor.zero_factor", ph),
        "microgrid.step.self_us": us("microgrid.step", SELF_NS),
        "microgrid.settle.calls": calls("microgrid.settle"),
        "microgrid.settle.us": us("microgrid.settle"),
        "pipeline.calibrated_table.s": s("pipeline.calibrated_table"),
        "pipeline.energy_summary.s": s("pipeline.energy_summary"),
        "pipeline.node_regression.s": s("pipeline.node_regression"),
        "pipeline.truth_csv.s": s("pipeline.truth_csv"),
        "pipeline.csv_bytes.s": s("pipeline.csv_bytes"),
        "pipeline.monitor_csv.s": s("pipeline.monitor_csv"),
        "pipeline.atomic_write.s": s("pipeline.atomic_write"),
        "pipeline.atomic_write.bytes": tracer.count("pipeline.atomic_write.bytes", ph),
        "validation.pair.s": s("validation.pair"),
        "validation.fit_ols.s": s("validation.fit_ols"),
        "server.exposition.us": us("server.exposition"),
        "server.exposition.bytes": tracer.count("server.exposition.bytes", ph),
        "server.query.us": us("server.query"),
        "server.handler_other_us": (
            client_ns - tracer.total("server.exposition", ph) - tracer.total("server.query", ph)
        ) / 1e3,
        "config.resolve.s": s("config.resolve"),
    }


def self_time_table(tracer: Tracer) -> str:
    """Per phase, every probe's calls, total and self time. In the run
    phase the self times add up to pipeline.run; in the serve phase the
    client's request latency splits into exposition, query and the rest
    of the HTTP handling."""
    lines = []
    for phase in MEASURED_PHASES:
        rows = sorted(
            ((n, *v) for (p, n), v in tracer.stats.items() if p == phase),
            key=lambda row: -row[3],
        )
        if not rows:
            continue
        if phase == "serve":
            client = tracer.total("client.metrics", (phase,)) + tracer.total(
                "client.query", (phase,)
            )
            root, root_name = client, "client request latency"
        elif phase == "run":
            root, root_name = tracer.total("pipeline.run", (phase,)), "pipeline.run"
        else:
            root, root_name = sum(r[3] for r in rows), "traced set-up calls"
        lines.append(f"[{phase}] 100% = {root / 1e6:.3f} ms ({root_name})")
        lines.append(f"  {'layer':<28}{'calls':>10}{'total ms':>12}{'self ms':>12}{'self %':>8}")
        for name, n, total, own in rows:
            share = 100.0 * own / root if root else 0.0
            lines.append(f"  {name:<28}{n:>10}{total / 1e6:>12.3f}{own / 1e6:>12.3f}{share:>7.1f}%")
        if phase == "run":
            own = sum(row[3] for row in rows)
            share = 100.0 * own / root if root else 0.0
            lines.append(f"  {'sum of self times':<28}{'':>10}{'':>12}{own / 1e6:>12.3f}{share:>7.1f}%")
        if phase == "serve":
            other = client - tracer.total("server.exposition", (phase,)) - tracer.total(
                "server.query", (phase,)
            )
            share = 100.0 * other / client if client else 0.0
            lines.append(f"  {'server.handler_other':<28}{'':>10}{'':>12}{other / 1e6:>12.3f}{share:>7.1f}%")
    return "\n".join(lines)
