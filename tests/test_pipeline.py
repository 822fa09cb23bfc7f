"""End-to-end pipeline runs, artifact formats, and the HTTP endpoint."""

import csv
import dataclasses
import json
import socket
import threading
import time
import tracemalloc
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib import pipeline
from gridcalib.calibration import CalibrationStage
from gridcalib.config import (
    PRESETS,
    NamespaceActorSpec,
    ScenarioConfig,
)
from gridcalib.emulation import (
    LOAD_KNOBS,
    LoadSchedule,
    MeterEmitter,
    MeterListener,
    MeterSpec,
    PowerModelEmitter,
    WorkloadSpec,
)
from gridcalib.errors import (
    BindError,
    ConfigError,
    EmptyWindow,
    GridCalibError,
    MissingArtifact,
    SeriesNotEmpty,
    StepError,
)
from gridcalib.microgrid import Monitor, SimpleBattery, StaticActor
from gridcalib.server import format_exposition, serve_metrics
from gridcalib.signals import VirtualClock
from gridcalib.timeseries import (
    COUNTER,
    GAUGE,
    CounterFrame,
    MetricStore,
    QueryResult,
    evaluate,
    query,
    rate,
)
from gridcalib.validation import PLOT_HEADER
from gridcalib.wire import (
    METER_GAUGE_METRIC,
    MODE_DYNAMIC,
    MODE_LABEL,
    NAMESPACE_LABEL,
    POWER_COUNTER_METRIC,
    PROCESS_LABEL,
)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def leakage_config(**overrides):
    """Small scenario exercising the whole stack in under a second."""
    base = dict(
        duration_ms=60_000,
        seed=42,
        warmup_ms=10_000,
        workloads=(
            WorkloadSpec(
                process_id="job",
                kind="batch",
                namespace="bench",
                idle_share_w=20.0,
                dyn_coeff_w=2.0,
                load_knob="batch_size",
                leakage_lambda=0.25,
            ),
        ),
        schedule=LoadSchedule("custom", (5.0, 10.0), runtime_ms=20_000, knob="batch_size"),
        actors=(NamespaceActorSpec("bench"),),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def two_namespace_config(**overrides):
    """Two namespace actors; "bench" holds two workloads."""
    workloads = (
        *leakage_config().workloads,
        WorkloadSpec(
            process_id="job2",
            kind="batch",
            namespace="bench",
            idle_share_w=10.0,
            dyn_coeff_w=3.0,
            load_knob="batch_size",
        ),
        WorkloadSpec(
            process_id="etl",
            kind="batch",
            namespace="etl",
            idle_share_w=15.0,
            dyn_coeff_w=1.5,
            load_knob="batch_size",
            leakage_lambda=0.1,
        ),
    )
    actors = (NamespaceActorSpec("bench"), NamespaceActorSpec("etl"))
    return leakage_config(workloads=workloads, actors=actors, **overrides)


@pytest.fixture(scope="module")
def leak_art(tmp_path_factory):
    out = tmp_path_factory.mktemp("leak")
    return pipeline.run(leakage_config(), out)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunArtifacts:
    def test_minimal_monitor_rows(self, tmp_path):
        art = pipeline.run(PRESETS["minimal"], tmp_path / "min")
        assert len(art.monitor.log) == 10  # duration / dt
        for name in pipeline.ARTIFACT_NAMES:
            assert (tmp_path / "min" / name).exists()
        assert art.regression is None
        assert art.regression_skipped == "no workloads"
        assert json.loads((art.out_dir / pipeline.REGRESSION_JSON).read_text()) == {"skipped": "no workloads"}

    def test_out_dir_required(self):
        with pytest.raises(ConfigError, match="outputs"):
            pipeline.run(PRESETS["minimal"])

    def test_outputs_field_used(self, tmp_path):
        import dataclasses

        cfg = dataclasses.replace(PRESETS["minimal"], outputs=str(tmp_path / "fromcfg"))
        art = pipeline.run(cfg)
        assert art.out_dir == tmp_path / "fromcfg"
        assert (art.out_dir / pipeline.MONITOR_CSV).exists()

    @pytest.mark.parametrize("interval_ms", [1000, 3000])
    @pytest.mark.parametrize(
        "make_config", [leakage_config, two_namespace_config], ids=["one-ns", "two-ns"]
    )
    def test_live_actor_matches_post_pass(self, tmp_path, make_config, interval_ms):
        # the calibrated CSV holds exactly what each actor reported, also
        # when signals collect less often than the engine ticks
        cfg = make_config(signal_interval_ms=interval_ms)
        art = pipeline.run(cfg, tmp_path)
        rows = read_csv(art.out_dir / pipeline.CALIBRATED_CSV)  # floats written as repr read back exactly
        assert len(rows) == len(art.monitor.log)
        ticks = art.monitor.log.columns()
        for spec in cfg.actors:
            cells = [float(row[f"ns.{spec.namespace}_dyn_w"]) for row in rows]
            assert any(cell > 0 for cell in cells)
            powers = ticks[f"actor.{spec.resolved_id}_w"].tolist()
            for time_ms, power, row, cell in zip(ticks["time_ms"].tolist(), powers, rows, cells):
                assert time_ms == int(row["time_ms"])
                assert -power == cell

    @pytest.mark.parametrize("emission_interval_ms", [1500, 2000])
    def test_collections_conserve_meter_power_between_emissions(
        self, tmp_path, emission_interval_ms
    ):
        # counters are sampled only at emissions, so most collection
        # instants fall between two samples; every tick must still hand
        # out the measured idle and dynamic power in full
        cfg = dataclasses.replace(PRESETS["regression"], emission_interval_ms=emission_interval_ms)
        art = pipeline.run(cfg, tmp_path)
        [gauge] = art.store.match(METER_GAUGE_METRIC)
        ts, measured = gauge.columns()
        meter = dict(zip(ts.tolist(), measured.tolist()))
        pids = [pid for pid, _ in art.stage.processes]
        logged = art.stage.log.columns()
        dyn = sum(logged[f"{pid}_dyn_w"] for pid in pids)
        idle = sum(logged[f"{pid}_idle_w"] for pid in pids)
        assert len(dyn) == 600
        for time_ms, dyn_w, idle_w in zip(logged["time_ms"].tolist(), dyn, idle):
            # one collection per 1 s tick, reading the meter sample of that instant
            budget = max(0.0, meter[time_ms] - art.m_idle_w)
            assert idle_w == pytest.approx(art.m_idle_w, rel=1e-9), time_ms
            assert dyn_w == pytest.approx(budget, rel=1e-9, abs=1e-9), time_ms

    @pytest.mark.parametrize("emission_interval_ms", [1500, 2000])
    def test_query_reads_the_emitted_dynamic_power_between_emissions(self, emission_interval_ms):
        # preset regression's node on one-second ticks: the meter samples
        # every tick, the counters only at emissions, so most query
        # instants fall between two emissions
        cfg = PRESETS["regression"]
        clock = VirtualClock()
        store = MetricStore()
        bank = dict.fromkeys(LOAD_KNOBS, 0.0)
        emitter = PowerModelEmitter(
            store,
            cfg.workloads,
            bank,
            clock,
            params=cfg.approximation,
            system_baseline_w=cfg.system_baseline_w,
            emission_interval_ms=emission_interval_ms,
            idle_split=cfg.idle_split,
            seed=cfg.seed,
        )
        gauge = store.get_or_create(METER_GAUGE_METRIC, {}, GAUGE)
        MeterEmitter(cfg.meter, lambda: emitter.node_total_w, clock, gauge.append)
        expr = f'sum(rate({POWER_COUNTER_METRIC}{{{MODE_LABEL}="{MODE_DYNAMIC}"}}[2s]))'
        gain = cfg.approximation.gain
        covered = 0
        for tick in range(1, 121):
            bank["rps"] = 250.0 * (tick // 15 + 1)
            clock.advance(1000)
            truth = emitter.truth.columns()
            # each emission's node dynamic power holds since the one before
            ends = [0, *truth["time_ms"].tolist()]
            node_dyn = (truth["svc_true_dyn_w"] + truth["system_true_dyn_w"]) / gain
            last = ends[-1]
            got = evaluate(store, expr)
            if last < 2000:
                assert got == QueryResult(0.0, 2, 2), tick  # svc and system
                continue
            joules = sum(
                p * (min(t1, last) - max(t0, last - 2000)) / 1000
                for t0, t1, p in zip(ends, ends[1:], node_dyn.tolist())
                if t1 > last - 2000
            )
            assert got.uncovered == 0, tick
            assert got.value_w == pytest.approx(joules / 2, rel=1e-9), tick
            covered += 1
        assert covered == 120 - (2 if emission_interval_ms == 1500 else 1)

    def test_calibrated_csv_columns(self, leak_art):
        rows = read_csv(leak_art.out_dir / pipeline.CALIBRATED_CSV)
        assert len(rows) == 60
        expected = {
            "time_ms",
            "job_dyn_w",
            "job_idle_w",
            "system_dyn_w",
            "system_idle_w",
            "ns.bench_dyn_w",
            "ns.bench_idle_w",
            "ns.system_dyn_w",
            "ns.system_idle_w",
        }
        assert set(rows[0]) == expected
        # system dynamic is redistributed to the workloads, never kept
        assert all(float(r["system_dyn_w"]) == 0.0 for r in rows)

    def test_energy_shares_sum_to_100(self, leak_art):
        rows = read_csv(leak_art.out_dir / pipeline.ENERGY_CSV)
        assert rows, "energy summary should not be empty"
        assert sum(float(r["share_pct"]) for r in rows) == pytest.approx(100.0)
        energies = [float(r["energy_wh"]) for r in rows]
        assert energies == sorted(energies, reverse=True)

    def test_energy_matches_trapezoid_of_csv(self, leak_art):
        # cross-file oracle: summary Wh == trapezoid over the power CSV
        power_rows = read_csv(leak_art.out_dir / pipeline.CALIBRATED_CSV)
        times_s = np.array([float(r["time_ms"]) for r in power_rows]) / 1000.0
        for entry in read_csv(leak_art.out_dir / pipeline.ENERGY_CSV):
            pid = entry["process"]
            watts = np.array(
                [float(r[f"{pid}_dyn_w"]) + float(r[f"{pid}_idle_w"]) for r in power_rows]
            )
            wh = float(_trapezoid(watts, times_s)) / 3600.0
            assert float(entry["energy_wh"]) == pytest.approx(wh, rel=1e-6)

    def test_truth_csv_shape(self, leak_art):
        rows = read_csv(leak_art.out_dir / pipeline.TRUTH_CSV)
        # one row per emission, warmup included
        assert len(rows) == 70
        assert set(rows[0]) == {
            "time_ms",
            "job_true_dyn_w",
            "job_true_idle_w",
            "system_true_dyn_w",
            "node_true_total_w",
        }

    def test_events_csv(self, leak_art):
        rows = read_csv(leak_art.out_dir / pipeline.EVENTS_CSV)
        assert [(r["action"], float(r["value"])) for r in rows] == [
            ("start", 5.0),
            ("stop", 5.0),
            ("start", 10.0),
            ("complete", 10.0),
        ]

    def test_config_json_reparses(self, leak_art):
        from gridcalib.config import parse_config

        data = json.loads((leak_art.out_dir / pipeline.CONFIG_JSON).read_text())
        assert parse_config(data) == leakage_config()

    def test_determinism_byte_identical(self, tmp_path):
        a = pipeline.run(leakage_config(), tmp_path / "a")
        b = pipeline.run(leakage_config(), tmp_path / "b")
        for name in pipeline.ARTIFACT_NAMES:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), f"{name} differs between identical runs"

    def test_storage_wired_through(self, tmp_path):
        cfg = ScenarioConfig(
            duration_ms=5000,
            seed=3,
            warmup_ms=0,
            actors=(StaticActor("pv", 100.0),),
            storage=SimpleBattery(capacity_j=300.0),
        )
        art = pipeline.run(cfg, tmp_path / "bat")
        ticks = art.monitor.log.columns()
        assert ticks["storage_charge_j"].tolist() == [100.0, 200.0, 300.0, 300.0, 300.0]
        assert ticks["grid_exchange_j"][-1] == 100.0

    def test_strict_signals_surface_as_step_error(self, tmp_path):
        cfg = leakage_config(
            duration_ms=2000,
            warmup_ms=0,
            schedule=None,
            strict_signals=True,
            signal_interval_ms=5000,  # signals never fire before the first tick
        )
        with pytest.raises(StepError, match="never collected"):
            pipeline.run(cfg, tmp_path / "strict")


def scalar_regression_points(gauge, counters, interval_ms):
    """The regression points as (meter timestamp, x, meter reading), with x
    one scalar rate() per meter sample and counter, added in the
    counters' order."""
    points = []
    for ts, measured in zip(*(column.tolist() for column in gauge.columns())):
        total = 0.0
        try:
            for series in counters:
                total += rate(series, ts - interval_ms, ts)
        except EmptyWindow:
            continue
        points.append((ts, total, measured))
    return points


class TestRegressionX:
    @given(
        st.integers(min_value=0, max_value=12),  # first row index: late starts
        st.integers(min_value=0, max_value=12),  # row count: 0, 1 or more
        st.lists(  # each member's watts
            st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=12, max_size=12),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([500, 1000, 1500]),  # row spacing
        st.sampled_from([700, 1000, 3000]),  # meter spacing
        st.sampled_from([1000, 2000, 2500]),  # emission interval
        st.integers(min_value=0, max_value=999),  # meter offset
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_vectorised_equals_scalar_rate_loop(
        self, start, count, watts, step, meter_step, interval, offset, data
    ):
        # the frame's member order is drawn, so it is rarely key order
        labels = data.draw(st.permutations(range(len(watts))))
        store = MetricStore()
        frame = CounterFrame([
            store.get_or_create(POWER_COUNTER_METRIC, {"p": str(p)}, COUNTER) for p in labels
        ])
        joules = [0.0] * len(watts)
        for k in range(start, min(start + count, 12)):
            joules = [j + w[k] for j, w in zip(joules, watts)]
            frame.append(k * step, joules)
        gauge = store.get_or_create(METER_GAUGE_METRIC, None, GAUGE)
        for t in range(offset, 12 * step + 2000, meter_step):
            gauge.append((t, 100.0 + t / 7))
        t, x, y = pipeline._regression_points(gauge, frame, interval)
        got = list(zip(t.tolist(), x.tolist(), y.tolist()))
        want = scalar_regression_points(gauge, store.match(POWER_COUNTER_METRIC, None), interval)
        assert got == want
        assert all(type(t) is int and type(x) is float and type(y) is float for t, x, y in got)

    def test_points_are_the_meters_own_samples(self, tmp_path):
        config = PRESETS["regression"]
        store = MetricStore()
        art = pipeline.run(config, tmp_path / "r", store=store)
        [gauge] = store.match(METER_GAUGE_METRIC)
        report, _, (t, _, y) = pipeline._node_regression(config, gauge, art.emitter.frame)
        points = list(zip(t.tolist(), y.tolist()))
        readings = dict(zip(*(column.tolist() for column in gauge.columns())))
        assert all(t in readings and y == readings[t] for t, y in points)
        covered = scalar_regression_points(
            gauge, store.match(POWER_COUNTER_METRIC, None), config.emission_interval_ms
        )
        assert len(points) == len(covered) == report.n
        assert len(points) > 100

    def test_counters_the_run_did_not_emit_stay_out_of_the_fit(self, tmp_path):
        # a caller that watches a run live hands it a store that may hold
        # other power counters; the fit reads only the run's own
        config = PRESETS["regression"]
        store = MetricStore()
        labels = {NAMESPACE_LABEL: "elsewhere", MODE_LABEL: MODE_DYNAMIC, PROCESS_LABEL: "other"}
        end_ms = config.warmup_ms + config.duration_ms
        for t, joules in ((0, 0.0), (end_ms // 2, 5000.0), (end_ms + 60_000, 20_000.0)):
            store.append(POWER_COUNTER_METRIC, labels, COUNTER, (t, joules))
        pipeline.run(config, tmp_path / "shared", store=store)
        pipeline.run(config, tmp_path / "fresh")
        for name in pipeline.ARTIFACT_NAMES:
            shared = (tmp_path / "shared" / name).read_bytes()
            assert shared == (tmp_path / "fresh" / name).read_bytes(), name

    def test_store_takes_appends_after_the_regression_read(self, tmp_path):
        config = leakage_config()
        store = MetricStore()
        art = pipeline.run(config, tmp_path / "r", store=store)
        [gauge] = store.match(METER_GAUGE_METRIC)
        # the counters take their rows through the emitter's frame
        frame = art.emitter.frame
        report, skipped, _ = pipeline._node_regression(config, gauge, frame)
        assert report is not None and skipped is None
        assert set(store.series()) == {gauge, *frame.members}
        t = max(series.last_timestamp() for series in store.series()) + 1000
        gauge.append((t, gauge.last().value))
        frame.append(t, [series.last().value for series in frame.members])

    def test_store_with_the_counters_filled_is_refused(self, tmp_path):
        # a second run into the same store would append over the first
        # run's counters; it stops before it writes any sample
        config = leakage_config()
        store = MetricStore()
        pipeline.run(config, tmp_path / "first", store=store)
        lengths = [len(series) for series in store.series()]
        with pytest.raises(SeriesNotEmpty):
            pipeline.run(config, tmp_path / "second", store=store)
        assert [len(series) for series in store.series()] == lengths


class TestRegressionSkipped:
    @pytest.mark.parametrize(
        "overrides, reason",
        [
            # the meter's first sample would come after the run ends
            (dict(meter=MeterSpec(sample_interval_ms=100_000)), "no meter samples"),
            (dict(duration_ms=1000, warmup_ms=0), "not enough aligned samples"),
            # constant load and no approximation noise: every x is the same
            (dict(schedule=None), "all x values identical; slope undefined"),
        ],
    )
    def test_skip_reason_in_the_artifacts(self, tmp_path, overrides, reason):
        art = pipeline.run(leakage_config(**overrides), tmp_path / "r")
        assert art.regression is None and art.regression_skipped == reason
        assert json.loads((art.out_dir / pipeline.REGRESSION_JSON).read_text()) == {"skipped": reason}
        assert (art.out_dir / pipeline.REGRESSION_CSV).read_bytes() == ",".join(PLOT_HEADER).encode() + b"\r\n"


class TestRegressionArtifacts:
    def test_report_matches_points(self, leak_art):
        assert leak_art.regression is not None
        recomputed = pipeline.validate(leak_art.out_dir)
        assert recomputed.slope == pytest.approx(leak_art.regression.slope, rel=1e-9)
        assert recomputed.n == leak_art.regression.n
        rows = read_csv(leak_art.out_dir / pipeline.REGRESSION_CSV)
        assert len(rows) == leak_art.regression.n

    def test_stored_json_fields(self, leak_art):
        data = json.loads((leak_art.out_dir / pipeline.REGRESSION_JSON).read_text())
        assert set(data) == {
            "slope",
            "intercept_w",
            "r2",
            "residual_median_w",
            "residual_max_w",
            "n",
        }

    def test_validate_none_on_skipped(self, tmp_path):
        pipeline.run(PRESETS["minimal"], tmp_path / "min")
        assert pipeline.validate(tmp_path / "min") is None

    def test_validate_detects_tampering(self, tmp_path):
        pipeline.run(leakage_config(), tmp_path / "t")
        path = tmp_path / "t" / pipeline.REGRESSION_JSON
        data = json.loads(path.read_text())
        data["slope"] += 0.5
        path.write_text(json.dumps(data))
        with pytest.raises(GridCalibError, match="does not match"):
            pipeline.validate(tmp_path / "t")

    def test_validate_detects_a_changed_point_count(self, tmp_path):
        pipeline.run(leakage_config(), tmp_path / "t")
        path = tmp_path / "t" / pipeline.REGRESSION_JSON
        data = json.loads(path.read_text())
        data["n"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(GridCalibError, match=f"n {data['n']} vs recomputed {data['n'] - 1}"):
            pipeline.validate(tmp_path / "t")

    def test_validate_missing_artifacts(self, tmp_path):
        with pytest.raises(MissingArtifact):
            pipeline.validate(tmp_path / "nothing")


class TestReport:
    def write_summary(self, out, rows, regression=None):
        out.mkdir(parents=True, exist_ok=True)
        with open(out / pipeline.ENERGY_CSV, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["process", "namespace", "energy_wh", "share_pct"])
            writer.writerows(rows)
        payload = regression if regression is not None else {"skipped": "synthetic"}
        (out / pipeline.REGRESSION_JSON).write_text(json.dumps(payload))

    def test_hand_percentages(self, tmp_path):
        # 30/10 Wh split two ways
        self.write_summary(
            tmp_path / "r",
            [["a", "ns", "30.0", "75.0"], ["b", "ns", "10.0", "25.0"]],
        )
        text = pipeline.report(tmp_path / "r", floor_wh=1.0)
        assert "75.0%" in text and "25.0%" in text

    def test_single_process_full_share(self, tmp_path):
        self.write_summary(tmp_path / "r", [["only", "ns", "4.2", "100.0"]])
        assert "100.0%" in pipeline.report(tmp_path / "r", floor_wh=1.0)

    def test_other_bucket(self, tmp_path):
        self.write_summary(
            tmp_path / "r",
            [
                ["big", "ns", "9.0", "90.0"],
                ["tiny1", "ns", "0.6", "6.0"],
                ["tiny2", "ns", "0.4", "4.0"],
            ],
        )
        text = pipeline.report(tmp_path / "r", floor_wh=1.0)
        assert "other (2 under 1 Wh)" in text
        assert "10.0%" in text  # grouped share
        assert "tiny1" not in text

    def test_totals_add_left_to_right(self, tmp_path):
        # compensated summation (sum() from Python 3.12) would give 1e16 + 2
        self.write_summary(
            tmp_path / "r",
            [["big", "ns", "1e16", "100.0"], ["a", "ns", "1.0", "0.0"], ["b", "ns", "1.0", "0.0"]],
        )
        lines = pipeline.report(tmp_path / "r", floor_wh=2.0).splitlines()
        assert lines[2].split()[-2:] == ["2.000", "0.0%"]  # other: 1 + 1
        assert lines[3].split() == ["total", "10000000000000000.000", "100.0%"]

    def test_floor_configurable(self, tmp_path):
        self.write_summary(
            tmp_path / "r",
            [["big", "ns", "9.0", "90.0"], ["small", "ns", "0.9", "10.0"]],
        )
        assert "small" in pipeline.report(tmp_path / "r", floor_wh=0.5)
        assert "small" not in pipeline.report(tmp_path / "r", floor_wh=1.0)

    def test_regression_verdicts(self, tmp_path):
        self.write_summary(
            tmp_path / "r",
            [["a", "ns", "2.0", "100.0"]],
            regression={
                "slope": 1.2,
                "intercept_w": 0.5,
                "r2": 0.99,
                "residual_median_w": 0.1,
                "residual_max_w": 0.3,
                "n": 50,
            },
        )
        text = pipeline.report(tmp_path / "r", floor_wh=1.0)
        assert "slope 1.2000 (FAIL)" in text  # |1.2 - 1| > 0.05
        assert "intercept 0.50 W (ok)" in text
        assert "r2 0.9900 (ok)" in text

    def test_missing_artifact(self, tmp_path):
        with pytest.raises(MissingArtifact):
            pipeline.report(tmp_path / "void", floor_wh=1.0)

    def test_real_run_report(self, leak_art):
        # the short scenario stays under 1 Wh, so lower the floor
        text = pipeline.report(leak_art.out_dir, floor_wh=0.01)
        assert "job" in text and "regression:" in text


class TestServer:
    @pytest.fixture()
    def served(self, leak_art):
        server = serve_metrics(leak_art.store, ("127.0.0.1", 0))
        server.serve_in_background()
        host, port = server.server_address[:2]
        yield leak_art.store, f"http://{host}:{port}"
        server.shutdown()
        server.server_close()

    def get(self, url):
        with urllib.request.urlopen(url) as resp:
            return resp.status, resp.read().decode()

    def test_single_gauge_single_line(self):
        store = MetricStore()
        store.append(METER_GAUGE_METRIC, {}, GAUGE, (1000, 231.5))
        assert format_exposition(store) == "socket_meter_watts 231.5 1000\n"

    def test_labelled_lines_sorted_and_empty_series_skipped(self):
        store = MetricStore()
        store.append("e_joules", {"process": "p1", "mode": "idle", "ns": "a"}, COUNTER, (2000, 0.5))
        store.append("e_joules", {"ns": "a", "process": "p0", "mode": "dynamic"}, COUNTER, (1000, 12.25))
        store.append("e_joules", {"ns": "a", "process": "p0", "mode": "dynamic"}, COUNTER, (3000, 30.0))
        store.get_or_create("e_joules", {"ns": "b", "mode": "dynamic"}, COUNTER)
        store.append(METER_GAUGE_METRIC, {}, GAUGE, (3000, 1e-05))
        assert format_exposition(store) == (
            'e_joules{mode="dynamic",ns="a",process="p0"} 30.0 3000\n'
            'e_joules{mode="idle",ns="a",process="p1"} 0.5 2000\n'
            "socket_meter_watts 1e-05 3000\n"
        )

    def test_exposition_line_format(self, served):
        _, base = served
        status, text = self.get(base + "/metrics")
        assert status == 200
        lines = text.splitlines()
        assert lines == sorted(lines)
        import re

        pat = re.compile(r'^[A-Za-z_][A-Za-z0-9_]*(\{[a-z_]+="[^"]*"(,[a-z_]+="[^"]*")*\})? \S+ \d+$')
        for line in lines:
            assert pat.match(line), line

    def test_query_matches_in_process(self, served):
        store, base = served
        expr = f'sum(rate({POWER_COUNTER_METRIC}{{{NAMESPACE_LABEL}="bench"}}[2s]))'
        url = base + "/query?" + urllib.parse.urlencode({"expr": expr})
        _, body = self.get(url)
        assert json.loads(body) == evaluate(store, expr)._asdict()
        assert json.loads(body)["value_w"] == query(store, expr) > 0

    def test_query_counts_matched_series(self, served):
        # a selector that matches nothing reads 0 W like an idle node;
        # matched tells the two apart
        _, base = served

        def served_query(namespace):
            expr = f'sum(rate({POWER_COUNTER_METRIC}{{{NAMESPACE_LABEL}="{namespace}"}}[2s]))'
            return json.loads(self.get(base + "/query?" + urllib.parse.urlencode({"expr": expr}))[1])

        assert served_query("bench")["matched"] > 0
        assert served_query("bnech") == {"value_w": 0.0, "uncovered": 0, "matched": 0}

    def test_malformed_expr_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            self.get(base + "/query?expr=oops(")
        with err.value:
            assert err.value.code == 400
            assert "error" in json.loads(err.value.read())

    def test_rate_of_gauge_400(self, served):
        _, base = served
        expr = f"rate({METER_GAUGE_METRIC}[2s])"
        with pytest.raises(urllib.error.HTTPError) as err:
            self.get(base + "/query?" + urllib.parse.urlencode({"expr": expr}))
        with err.value:
            assert err.value.code == 400
            assert "counter" in json.loads(err.value.read())["error"]

    def test_missing_expr_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            self.get(base + "/query")
        with err.value:
            assert err.value.code == 400

    def test_unknown_path_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as err:
            self.get(base + "/shutdown")
        with err.value:
            assert err.value.code == 404

    def test_bind_error(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(BindError):
                serve_metrics(MetricStore(), ("127.0.0.1", port))
        finally:
            blocker.close()


class TestMemory:
    # a run holds its store and three tick logs, and in the post-pass one
    # artifact's bytes and one block of its text at a time: about 340 B a
    # tick on preset "regression", where a csv.writer over every row of
    # the artifact took about 620 B, building every table before writing
    # any about 1060 B and per-tick record objects about 3300 B
    BYTES_PER_TICK = 500
    # a returned RunArtifacts holds the store and the tick logs, no
    # per-tick rows: about 220 B a tick on preset "regression"
    HELD_BYTES_PER_TICK = 400

    @staticmethod
    def traced(tmp_path, ticks):
        """(memory held with the returned RunArtifacts alive, peak) of a run."""
        cfg = dataclasses.replace(PRESETS["regression"], duration_ms=ticks * 1000)
        tracemalloc.start()
        try:
            art = pipeline.run(cfg, tmp_path / str(ticks))  # alive while memory is read
            assert art.regression is not None
            return tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    def test_peak_grows_boundedly_per_tick(self, tmp_path):
        self.traced(tmp_path, 100)  # first-run allocations (caches, lazy imports) are not per tick
        short = self.traced(tmp_path, 1000)[1]
        growth = (self.traced(tmp_path, 3000)[1] - short) / 2000
        assert growth < self.BYTES_PER_TICK, f"{growth:.0f} B a tick"

    def test_returned_artifacts_hold_no_per_tick_rows(self, tmp_path):
        self.traced(tmp_path, 100)
        short = self.traced(tmp_path, 1000)[0]
        growth = (self.traced(tmp_path, 3000)[0] - short) / 2000
        assert growth < self.HELD_BYTES_PER_TICK, f"{growth:.0f} B a tick"


class TestWallClock:
    def test_live_run_feeds_gauge_over_tcp(self, tmp_path):
        cfg = ScenarioConfig(
            duration_ms=2000,
            seed=5,
            warmup_ms=1000,
            workloads=(WorkloadSpec(process_id="svc", idle_share_w=20.0),),
        )
        art = pipeline.run(cfg, tmp_path / "live", wall_clock=True)
        assert len(art.monitor.log) == 2
        [gauge] = art.store.match(METER_GAUGE_METRIC)
        assert len(gauge) >= 1
        # meter readings traveled the TCP line protocol into the store
        assert all(value == pytest.approx(25.0) for value in gauge.columns()[1].tolist())

    def test_live_run_equals_virtual_run(self, tmp_path):
        # noiseless meter and constant load: the live run must compute
        # exactly what the virtual run computes, only paced to real time
        cfg = ScenarioConfig(
            duration_ms=2000,
            seed=5,
            warmup_ms=1000,
            workloads=(WorkloadSpec(process_id="svc", idle_share_w=20.0),),
            actors=(NamespaceActorSpec("bench"),),
        )
        live = pipeline.run(cfg, tmp_path / "live", wall_clock=True)
        virtual = pipeline.run(cfg, tmp_path / "virtual")
        assert live.m_idle_w == virtual.m_idle_w == 25.0
        for name in pipeline.ARTIFACT_NAMES:
            assert (live.out_dir / name).read_bytes() == (
                virtual.out_dir / name
            ).read_bytes(), name

    def test_live_run_reads_each_meter_reading_at_its_instant(self, tmp_path, monkeypatch):
        # power follows a varying load, and every reading lands 50 ms late:
        # each collection must still calibrate against the meter reading
        # of its own instant, as in a virtual run
        store_reading = MeterListener.ingest

        def slow_ingest(self, ts_ms, power_w):
            time.sleep(0.05)
            store_reading(self, ts_ms, power_w)

        monkeypatch.setattr(MeterListener, "ingest", slow_ingest)
        cfg = ScenarioConfig(
            duration_ms=3000,
            seed=5,
            warmup_ms=1000,
            workloads=(WorkloadSpec(process_id="svc", idle_share_w=20.0, dyn_coeff_w=100.0),),
            actors=(NamespaceActorSpec("bench"),),
            schedule=LoadSchedule("custom", (0.2, 0.9, 0.4), runtime_ms=1000, knob="rps"),
        )
        live = pipeline.run(cfg, tmp_path / "live", wall_clock=True)
        virtual = pipeline.run(cfg, tmp_path / "virtual")
        for name in pipeline.ARTIFACT_NAMES:
            assert (live.out_dir / name).read_bytes() == (
                virtual.out_dir / name
            ).read_bytes(), name

    def test_live_run_starts_no_thread(self, tmp_path, monkeypatch):
        counts = []
        collect = CalibrationStage._collect

        def counting_collect(self, *args):
            counts.append(threading.active_count())
            return collect(self, *args)

        monkeypatch.setattr(CalibrationStage, "_collect", counting_collect)
        cfg = ScenarioConfig(
            duration_ms=2000,
            seed=5,
            warmup_ms=1000,
            workloads=(WorkloadSpec(process_id="svc", idle_share_w=20.0),),
        )
        before = threading.active_count()
        pipeline.run(cfg, tmp_path / "live", wall_clock=True)
        assert counts and set(counts) == {before}

    def test_live_run_fails_when_meter_reading_never_lands(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "METER_WAIT_S", 0.05)
        monkeypatch.setattr(MeterListener, "ingest", lambda self, ts_ms, power_w: None)
        cfg = ScenarioConfig(
            duration_ms=1000,
            seed=5,
            warmup_ms=1000,
            workloads=(WorkloadSpec(process_id="svc"),),
        )
        with pytest.raises(GridCalibError, match="meter reading at 1000 ms"):
            pipeline.run(cfg, tmp_path / "live", wall_clock=True)

    def test_live_run_fails_when_a_later_meter_reading_never_lands(self, tmp_path, monkeypatch):
        # the firing that publishes the lost reading fails the run, mid-run
        monkeypatch.setattr(pipeline, "METER_WAIT_S", 0.05)
        store_reading = MeterListener.ingest

        def ingest_until_2000(self, ts_ms, power_w):
            if ts_ms < 2000:
                store_reading(self, ts_ms, power_w)

        monkeypatch.setattr(MeterListener, "ingest", ingest_until_2000)
        cfg = ScenarioConfig(
            duration_ms=3000,
            seed=5,
            warmup_ms=1000,
            workloads=(WorkloadSpec(process_id="svc"),),
        )
        with pytest.raises(GridCalibError, match="meter reading at 2000 ms"):
            pipeline.run(cfg, tmp_path / "live", wall_clock=True)
