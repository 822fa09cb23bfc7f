"""Emulated workloads, approximation error model, and socket meter."""

import contextlib
import dataclasses
import math
import random
import socket
import struct
import threading
import time
from typing import NamedTuple

import pytest

from gridcalib import emulation
from gridcalib.emulation import (
    LOAD_KNOBS,
    MAX_LINE,
    ApproximationParams,
    LoadSchedule,
    MeterEmitter,
    MeterListener,
    MeterPublisher,
    MeterSpec,
    PowerModelEmitter,
    WorkloadSpec,
    active_power,
    approximate,
    approximation_plan,
    decompose_true_power,
    meter_sample,
    node_true_total,
    true_power,
)
from gridcalib.errors import BindError, InvalidField
from gridcalib.signals import VirtualClock
from gridcalib.timeseries import GAUGE, MetricStore, Series, rate
from gridcalib.wire import (
    MODE_DYNAMIC,
    MODE_IDLE,
    MODE_LABEL,
    NAMESPACE_LABEL,
    POWER_COUNTER_METRIC,
    PROCESS_LABEL,
    SYSTEM_NAMESPACE,
)


def samples(series: Series) -> list[tuple[int, float]]:
    """Every (timestamp, value) the series holds, as Python numbers."""
    return list(zip(*(column.tolist() for column in series.columns())))


def spec(**kwargs) -> WorkloadSpec:
    base = dict(
        process_id="svc",
        kind="service",
        idle_share_w=10.0,
        dyn_coeff_w=0.05,
        load_knob="rps",
    )
    base.update(kwargs)
    return WorkloadSpec(**base)


class TestTruePower:
    def test_linear_model(self):
        assert true_power(spec(), 1000.0, random.Random(0)) == 60.0

    def test_zero_load_is_idle_share(self):
        assert true_power(spec(), 0.0, random.Random(0)) == 10.0

    def test_noiseless_calls_are_identical(self):
        rng = random.Random(1)
        values = {true_power(spec(), 500.0, rng) for _ in range(50)}
        assert values == {35.0}

    def test_noise_is_seeded(self):
        a = true_power(spec(noise_sigma_w=2.0), 100.0, random.Random(42))
        b = true_power(spec(noise_sigma_w=2.0), 100.0, random.Random(42))
        assert a == b
        assert a != 15.0

    def test_clamped_at_zero(self):
        heavy_noise = spec(idle_share_w=0.1, dyn_coeff_w=0.0, noise_sigma_w=50.0)
        rng = random.Random(3)
        values = [true_power(heavy_noise, 0.0, rng) for _ in range(200)]
        assert min(values) == 0.0
        assert all(v >= 0.0 for v in values)

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            true_power(spec(), -1.0, random.Random(0))


class TestDecompose:
    def test_load_above_idle(self):
        assert decompose_true_power(spec(), 60.0) == (50.0, 10.0)

    def test_total_below_idle_share(self):
        dynamic, idle = decompose_true_power(spec(), 7.0)
        assert (dynamic, idle) == (0.0, 7.0)

    def test_parts_sum_to_total(self):
        for total in (0.0, 5.0, 10.0, 123.456):
            dynamic, idle = decompose_true_power(spec(), total)
            assert dynamic + idle == total
            assert dynamic >= 0.0 and idle >= 0.0


class TestWorkloadSpecValidation:
    @pytest.mark.parametrize("field", ["idle_share_w", "dyn_coeff_w", "noise_sigma_w"])
    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    def test_watts_must_be_finite_and_non_negative(self, field, value):
        # idle_share_w is also the resource a requested idle split divides by
        with pytest.raises(ValueError, match=field):
            spec(**{field: value})

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            spec(kind="daemon")

    def test_bad_knob(self):
        with pytest.raises(ValueError):
            spec(load_knob="dial")

    def test_reserved_names(self):
        with pytest.raises(ValueError):
            spec(namespace=SYSTEM_NAMESPACE)
        with pytest.raises(ValueError):
            spec(process_id="system")

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            spec(leakage_lambda=1.0)
        with pytest.raises(ValueError):
            spec(leakage_lambda=-0.1)
        spec(leakage_lambda=0.999)


class Truth(NamedTuple):
    """One instant's true power per process, keyed by process id."""

    dynamic: dict
    idle: dict
    baseline: float = 0.0

    @property
    def node_total_w(self) -> float:
        return node_true_total(self.dynamic.values(), self.idle.values(), self.baseline)


class Approximation(NamedTuple):
    process_dynamic_w: dict
    process_idle_w: dict
    system_dynamic_w: float
    node_dynamic_w: float
    node_idle_w: float

    @property
    def node_total_w(self) -> float:
        return self.node_dynamic_w + self.node_idle_w


def approximate_truth(truth, workloads, params, rng, idle_split="even"):
    """The list kernel over a Truth, keyed by process id."""
    specs = {w.process_id: w for w in workloads}
    pids = list(truth.dynamic)
    plan = approximation_plan([specs[p] for p in pids], idle_split)
    dyn, idle = list(truth.dynamic.values()), list(truth.idle.values())
    watts, node_dyn, node_idle = approximate(dyn, idle, truth.baseline, params, rng, *plan)
    k = len(pids)
    return Approximation(
        dict(zip(pids, watts[:k])),
        dict(zip([*pids, "system"], watts[k + 1:])),
        watts[k],
        node_dyn,
        node_idle,
    )


class TestApproximate:
    def test_identity_error_model(self):
        workloads = [spec(process_id="a"), spec(process_id="b", idle_share_w=20.0)]
        truth = Truth({"a": 50.0, "b": 30.0}, {"a": 10.0, "b": 20.0}, baseline=5.0)
        approx = approximate_truth(
            truth, workloads, ApproximationParams(), random.Random(0)
        )
        assert approx.process_dynamic_w == pytest.approx({"a": 50.0, "b": 30.0})
        assert approx.system_dynamic_w == pytest.approx(5.0)
        assert approx.node_dynamic_w == pytest.approx(85.0)
        assert approx.node_idle_w == pytest.approx(30.0)
        assert approx.node_total_w == pytest.approx(truth.node_total_w)

    def test_one_third_leakage_split(self):
        workloads = [spec(process_id="gpu", leakage_lambda=1.0 / 3.0)]
        truth = Truth({"gpu": 90.0}, {"gpu": 0.0}, baseline=0.0)
        approx = approximate_truth(
            truth, workloads, ApproximationParams(), random.Random(0)
        )
        assert approx.process_dynamic_w["gpu"] == pytest.approx(60.0, rel=1e-12)
        assert approx.system_dynamic_w == pytest.approx(30.0, rel=1e-12)
        assert approx.node_dynamic_w == pytest.approx(90.0, rel=1e-12)

    def test_gain_and_bias_are_recoverable(self):
        # measured = gain * approx + bias must hold exactly when sigma = 0
        workloads = [spec(process_id="a", idle_share_w=30.0)]
        truth = Truth({"a": 270.0 - 30.0 - 5.0}, {"a": 30.0}, baseline=5.0)
        assert truth.node_total_w == 270.0
        params = ApproximationParams(gain=1.01, bias_w=5.23)
        approx = approximate_truth(truth, workloads, params, random.Random(0))
        recovered = params.gain * approx.node_total_w + params.bias_w
        assert recovered == pytest.approx(truth.node_total_w, abs=1e-9)

    def test_dynamic_decomposition_is_exact(self):
        rng = random.Random(9)
        for _ in range(100):
            workloads = [
                spec(
                    process_id=f"w{i}",
                    idle_share_w=rng.uniform(0, 20),
                    leakage_lambda=rng.uniform(0, 0.9),
                )
                for i in range(rng.randint(1, 5))
            ]
            truth = Truth(
                {w.process_id: rng.uniform(0, 200) for w in workloads},
                {w.process_id: w.idle_share_w for w in workloads},
                baseline=rng.uniform(0, 10),
            )
            params = ApproximationParams(
                gain=rng.uniform(0.9, 1.1), bias_w=rng.uniform(-5, 5)
            )
            approx = approximate_truth(truth, workloads, params, rng)
            reassembled = sum(approx.process_dynamic_w.values()) + approx.system_dynamic_w
            assert reassembled == pytest.approx(approx.node_dynamic_w, rel=1e-9)

    def test_even_idle_split_includes_system(self):
        workloads = [spec(process_id="a"), spec(process_id="b")]
        truth = Truth({"a": 0.0, "b": 0.0}, {"a": 20.0, "b": 10.0})
        approx = approximate_truth(truth, workloads, ApproximationParams(), random.Random(0))
        assert approx.process_idle_w == pytest.approx(
            {"a": 10.0, "b": 10.0, "system": 10.0}
        )

    def test_requested_idle_split_uses_idle_shares(self):
        workloads = [
            spec(process_id="a", idle_share_w=30.0),
            spec(process_id="b", idle_share_w=10.0),
        ]
        truth = Truth({"a": 0.0, "b": 0.0}, {"a": 30.0, "b": 10.0})
        approx = approximate_truth(
            truth, workloads, ApproximationParams(), random.Random(0), idle_split="requested"
        )
        assert approx.process_idle_w == pytest.approx(
            {"a": 30.0, "b": 10.0, "system": 0.0}
        )

    def test_requested_split_falls_back_to_even_without_shares(self):
        workloads = [spec(process_id="a", idle_share_w=0.0)]
        truth = Truth({"a": 50.0}, {"a": 0.0}, baseline=10.0)
        approx = approximate_truth(
            truth, workloads, ApproximationParams(), random.Random(0), idle_split="requested"
        )
        assert approx.process_idle_w == pytest.approx({"a": 0.0, "system": 0.0})

    def test_bias_larger_than_idle_clamps_node_idle(self):
        workloads = [spec(process_id="a", idle_share_w=1.0)]
        truth = Truth({"a": 10.0}, {"a": 1.0})
        params = ApproximationParams(gain=1.0, bias_w=50.0)
        approx = approximate_truth(truth, workloads, params, random.Random(0))
        assert approx.node_idle_w == 0.0

    def test_spec_truth_mismatch_rejected(self):
        # leakage fractions of two workloads against the truth of one
        lambdas, _, _ = approximation_plan([spec(process_id="a"), spec(process_id="b")])
        with pytest.raises(ValueError):
            approximate([1.0], [1.0], 0.0, ApproximationParams(), random.Random(0), lambdas)

    def test_unknown_idle_split_rejected(self):
        workloads = [spec(process_id="a")]
        with pytest.raises(ValueError):
            approximation_plan(workloads, idle_split="fair")


class TestMeter:
    def test_active_power_formula(self):
        assert active_power(230.0, 2.0) == 460.0
        assert active_power(230.0, 2.0, 0.5) == 230.0

    def test_error_free_meter_is_identity(self):
        meter = MeterSpec()
        rng = random.Random(0)
        assert meter_sample(400.0, meter, rng) == 400.0
        assert meter_sample(0.0, meter, rng) == 0.0
        # identity path must not consume randomness
        assert rng.random() == random.Random(0).random()

    def test_worst_case_bound(self):
        meter = MeterSpec(
            relative_error_v=0.01, relative_error_i=0.015, relative_error_phi=0.01
        )
        rng = random.Random(123)
        for _ in range(100_000):
            measured = meter_sample(400.0, meter, rng)
            assert 386.0 <= measured <= 414.0

    def test_samples_actually_vary(self):
        meter = MeterSpec(relative_error_v=0.01, relative_error_i=0.015)
        rng = random.Random(5)
        values = {meter_sample(400.0, meter, rng) for _ in range(20)}
        assert len(values) > 1

    def test_negative_true_power_rejected(self):
        with pytest.raises(ValueError):
            meter_sample(-1.0, MeterSpec(), random.Random(0))

    def test_spec_bounds_enforced(self):
        with pytest.raises(ValueError):
            MeterSpec(relative_error_v=0.02)
        with pytest.raises(ValueError):
            MeterSpec(relative_error_i=0.02)
        with pytest.raises(ValueError):
            MeterSpec(relative_error_phi=0.02)
        with pytest.raises(ValueError):
            MeterSpec(voltage_v=0.0)
        with pytest.raises(ValueError):
            MeterSpec(sample_interval_ms=0)


class TestSchedules:
    def test_rps(self):
        schedule = LoadSchedule("rps")
        assert list(schedule.levels) == [250, 500, 750, 1000, 1250, 1500, 1750, 2000]
        assert schedule.runtime_ms == 600_000
        assert schedule.knob == "rps"
        assert schedule.values is None

    def test_batch(self):
        schedule = LoadSchedule("batch")
        assert list(schedule.levels) == [1, 4, 8, 16, 32]
        assert schedule.knob == "batch_size"

    def test_threads(self):
        schedule = LoadSchedule("threads")
        assert list(schedule.levels) == list(range(1, 17))
        assert schedule.knob == "threads"

    def test_unknown_kind(self):
        with pytest.raises(InvalidField, match="^kind: must be one of"):
            LoadSchedule("spin")

    def test_schedule_validation(self):
        with pytest.raises(InvalidField, match="^values: only allowed with kind custom"):
            LoadSchedule("rps", (1,))
        with pytest.raises(InvalidField, match="^values: required"):
            LoadSchedule("custom", knob="rps")
        with pytest.raises(InvalidField, match="^values: must not be empty"):
            LoadSchedule("custom", (), knob="rps")
        with pytest.raises(InvalidField, match="^runtime_ms: must be positive"):
            LoadSchedule("rps", runtime_ms=0)
        with pytest.raises(InvalidField, match="^knob: required for custom schedules"):
            LoadSchedule("custom", (1.0,))
        with pytest.raises(InvalidField, match="^knob: must be one of"):
            LoadSchedule("rps", knob="dial")
        for bad in (-5.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"values\[1\]: must be finite"):
                LoadSchedule("custom", (1.0, bad))

    def test_runtime_replaces_on_a_builtin_kind(self):
        schedule = dataclasses.replace(LoadSchedule("batch", knob="threads"), runtime_ms=5000)
        assert (schedule.levels, schedule.runtime_ms, schedule.knob) == (
            (1, 4, 8, 16, 32), 5000, "threads"
        )


def series_labels(namespace, mode, process):
    return {
        NAMESPACE_LABEL: namespace,
        MODE_LABEL: mode,
        PROCESS_LABEL: process,
    }


def counter(store, labels):
    """The one power counter with these labels."""
    [series] = store.match(POWER_COUNTER_METRIC, labels)
    return series


class TestPowerModelEmitter:
    def make(self, workloads=None, seed=7, baseline=0.0, params=ApproximationParams()):
        store = MetricStore()
        clock = VirtualClock()
        bank = dict.fromkeys(LOAD_KNOBS, 0.0)
        emitter = PowerModelEmitter(
            store,
            workloads if workloads is not None else [spec()],
            bank,
            clock,
            params=params,
            system_baseline_w=baseline,
            emission_interval_ms=1000,
            idle_split="even",
            seed=seed,
        )
        return store, clock, bank, emitter

    def test_counters_start_at_zero(self):
        store, clock, bank, emitter = self.make()
        for namespace, process in (("bench", "svc"), (SYSTEM_NAMESPACE, "system")):
            for mode in (MODE_DYNAMIC, MODE_IDLE):
                series = counter(store, series_labels(namespace, mode, process))
                assert samples(series) == [(0, 0.0)]

    def test_counters_are_the_labelled_series_dynamic_first(self):
        store, clock, bank, emitter = self.make(
            workloads=[spec(), spec(process_id="db", namespace="data")]
        )
        labelled = [
            counter(store, series_labels(ns, mode, pid))
            for mode in (MODE_DYNAMIC, MODE_IDLE)
            for pid, ns in emitter.processes
        ]
        assert len(emitter.counters) == 6
        assert all(a is b for a, b in zip(emitter.counters, labelled, strict=True))

    def test_constant_load_rate_reproduces_watts(self):
        store, clock, bank, emitter = self.make()
        bank["rps"] = 1000
        clock.advance(4000)
        dyn = counter(store, series_labels("bench", MODE_DYNAMIC, "svc"))
        idle = counter(store, series_labels("bench", MODE_IDLE, "svc"))
        sys_idle = counter(store, series_labels(SYSTEM_NAMESPACE, MODE_IDLE, "system"))
        assert rate(dyn, 0, 4000) == pytest.approx(50.0, rel=1e-12)
        # node idle (10 W) splits evenly over the workload and the system
        # pseudo-process
        assert rate(idle, 0, 4000) == pytest.approx(5.0, rel=1e-12)
        assert rate(sys_idle, 0, 4000) == pytest.approx(5.0, rel=1e-12)

    def test_integration_matches_mean_watts(self):
        store, clock, bank, emitter = self.make()
        for level in (0, 400, 800, 1200):
            bank["rps"] = level
            clock.advance(1000)
        dyn = counter(store, series_labels("bench", MODE_DYNAMIC, "svc"))
        # the rate over one emission interval is the watts emitted in it:
        # 0.05 W per rps, with no leakage and gain 1
        emitted = [rate(dyn, t - 1000, t) for t in (1000, 2000, 3000, 4000)]
        assert emitted == pytest.approx([0.0, 20.0, 40.0, 60.0], rel=1e-12)
        assert rate(dyn, 0, 4000) == pytest.approx(sum(emitted) / 4.0, rel=1e-12)

    def test_counters_are_monotone(self):
        store, clock, bank, emitter = self.make(
            workloads=[spec(noise_sigma_w=3.0)], baseline=5.0
        )
        bank["rps"] = 500
        clock.advance(30_000)
        for series in store.series():
            values = series.columns()[1].tolist()
            assert values == sorted(values)

    def test_leakage_routes_dynamic_power_to_system(self):
        workloads = [
            spec(
                process_id="gpu",
                kind="batch",
                load_knob="batch_size",
                idle_share_w=40.0,
                dyn_coeff_w=6.0,
                leakage_lambda=1.0 / 3.0,
            )
        ]
        store, clock, bank, emitter = self.make(workloads=workloads)
        bank["batch_size"] = 15  # true dynamic = 90 W
        clock.advance(2000)
        p = counter(store, series_labels("bench", MODE_DYNAMIC, "gpu"))
        s = counter(store, series_labels(SYSTEM_NAMESPACE, MODE_DYNAMIC, "system"))
        assert rate(p, 0, 2000) == pytest.approx(60.0, rel=1e-12)
        assert rate(s, 0, 2000) == pytest.approx(30.0, rel=1e-12)

    def test_node_decomposition_invariant_on_emitted_series(self):
        workloads = [
            spec(process_id="a", noise_sigma_w=1.0, leakage_lambda=0.2),
            spec(process_id="b", idle_share_w=5.0, dyn_coeff_w=0.01),
        ]
        store, clock, bank, emitter = self.make(workloads=workloads, baseline=5.0)
        bank["rps"] = 900
        clock.advance(10_000)
        dyn = [
            counter(store, series_labels(ns, MODE_DYNAMIC, pid))
            for ns, pid in (("bench", "a"), ("bench", "b"), (SYSTEM_NAMESPACE, "system"))
        ]
        # with gain 1 the approximated node dynamic power is the true one
        logged = emitter.truth.columns().values()
        for t, dyn_a, dyn_b, _, _, system in zip(*(c.tolist() for c in logged)):
            total = sum(rate(series, t - 1000, t) for series in dyn)
            assert total == pytest.approx(dyn_a + dyn_b + system, rel=1e-9)

    def test_seeded_determinism(self):
        def run():
            workloads = [spec(noise_sigma_w=2.0, leakage_lambda=0.1)]
            store, clock, bank, emitter = self.make(
                workloads=workloads,
                seed=11,
                baseline=5.0,
                params=ApproximationParams(gain=1.01, bias_w=5.23, sigma_w=1.0),
            )
            bank["rps"] = 1500
            clock.advance(15_000)
            return [
                (tuple(series.labels.items()), tuple(samples(series)))
                for series in store.series()
            ]

        assert run() == run()

    def test_different_seeds_differ(self):
        def run(seed):
            store, clock, bank, emitter = self.make(
                workloads=[spec(noise_sigma_w=2.0)], seed=seed
            )
            bank["rps"] = 1500
            clock.advance(5000)
            dyn = counter(store, series_labels("bench", MODE_DYNAMIC, "svc"))
            return tuple(samples(dyn))

        assert run(1) != run(2)

    def test_latest_truth_tracks_firings(self):
        store, clock, bank, emitter = self.make()
        assert emitter.node_total_w == 10.0  # idle only at t=0
        bank["rps"] = 1000
        clock.advance(1000)
        assert emitter.node_total_w == 60.0

    @pytest.mark.parametrize(
        "params, sigmas",
        [(ApproximationParams(sigma_w=1.0), (0.0, 0.0)), (ApproximationParams(), (0.0, 2.0))],
        ids=["approximation_noise", "workload_noise"],
    )
    def test_a_noisy_run_draws_at_every_firing(self, params, sigmas):
        # the loads hold one level, so only the noise tells the firings apart
        workloads = [spec(process_id=f"w{i}", noise_sigma_w=s) for i, s in enumerate(sigmas)]
        store, clock, bank, emitter = self.make(workloads=workloads, seed=5, params=params)
        bank["rps"] = 800
        firings = 12
        clock.advance(firings * 1000)

        def twin(name: str, sigma: float) -> random.Random:
            stream = random.Random(f"5:{name}")
            for _ in range(firings + (name != "approx")):  # construction samples truth once
                if sigma > 0:
                    stream.gauss(0.0, sigma)
            return stream

        assert emitter._approx_rng.getstate() == twin("approx", params.sigma_w).getstate()
        for (w, rng), sigma in zip(emitter._plan, sigmas, strict=True):
            assert rng.getstate() == twin(f"truth:{w.process_id}", sigma).getstate()

    def test_a_noiseless_plateau_computes_its_first_firing_only(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return approximate(*args)

        monkeypatch.setattr(emulation, "approximate", counting)
        store, clock, bank, emitter = self.make(baseline=5.0)
        bank["rps"] = 1000
        clock.advance(4000)
        assert len(calls) == 1
        assert emitter.node_total_w == 65.0
        bank["rps"] = 2000
        clock.advance(1000)  # the first firing after the step computes the new level
        assert len(calls) == 2
        assert emitter.node_total_w == 115.0
        rows = list(zip(*(c.tolist() for c in emitter.truth.columns().values())))
        assert rows == [(t, 50.0, 10.0, 5.0) for t in (1000, 2000, 3000, 4000)] + [
            (5000, 100.0, 10.0, 5.0)
        ]
        dyn = counter(store, series_labels("bench", MODE_DYNAMIC, "svc"))
        assert [rate(dyn, t - 1000, t) for t in (4000, 5000)] == [50.0, 100.0]

    @pytest.mark.parametrize("idle_share_w", [0.0, -0.0, 10.0])
    def test_levels_minus_zero_and_zero_give_the_same_truth_bits(self, idle_share_w):
        # why a noiseless firing may compare its load levels with ==
        workload = spec(idle_share_w=idle_share_w)
        rng = random.Random(0)
        bits = {struct.pack("d", true_power(workload, level, rng)) for level in (0.0, -0.0)}
        assert len(bits) == 1


def meter_gauge() -> Series:
    return Series("meter_watts", kind=GAUGE)


class TestMeterEmitter:
    def test_perfect_meter_gauges_truth(self):
        clock = VirtualClock()
        gauge = meter_gauge()
        MeterEmitter(MeterSpec(), lambda: 460.0, clock, gauge.append)
        clock.advance(3000)
        assert samples(gauge) == [(1000, 460.0), (2000, 460.0), (3000, 460.0)]

    def test_noisy_meter_stays_in_bound(self):
        clock = VirtualClock()
        gauge = meter_gauge()
        meter = MeterSpec(
            relative_error_v=0.01,
            relative_error_i=0.015,
            relative_error_phi=0.01,
            seed=3,
        )
        MeterEmitter(meter, lambda: 400.0, clock, gauge.append)
        clock.advance(60_000)
        assert len(gauge) == 60
        for _, value in samples(gauge):
            assert 386.0 <= value <= 414.0

    def test_publish_callback_without_store(self):
        clock = VirtualClock()
        sent: list[tuple[int, float]] = []
        MeterEmitter(MeterSpec(), lambda: 100.0, clock, sent.append)
        clock.advance(2000)
        assert sent == [(1000, 100.0), (2000, 100.0)]


@contextlib.contextmanager
def serving(gauge: Series):
    """A meter listener on an ephemeral port, served in the background."""
    listener = MeterListener(("127.0.0.1", 0), gauge)
    listener.serve_in_background()
    try:
        yield listener
    finally:
        listener.shutdown()
        listener.server_close()


def wait_until(predicate) -> bool:
    """Poll predicate for up to 5 s; whether it came true."""
    deadline = time.monotonic() + 5.0
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def serve_for(listener: MeterListener, seconds: float) -> None:
    """Serve the listener on this thread for `seconds`."""
    deadline = time.monotonic() + seconds
    while (remaining := deadline - time.monotonic()) > 0:
        listener.poll(remaining)


def open_connections(listener: MeterListener) -> int:
    """Publisher connections the listener's loop still serves: every
    socket it selects on but its own listener and waker."""
    return len(listener._selector.get_map()) - 2


def meter_line(ts_ms: int, power_w: float) -> bytes:
    """One reading as the publisher encodes it, newline included."""
    return f'{{"power_w": {power_w}, "ts_ms": {ts_ms}}}\n'.encode()


class TestMeterWireProtocol:
    def test_publish_and_ingest_roundtrip(self):
        gauge = meter_gauge()
        with serving(gauge) as listener:
            publisher = MeterPublisher(*listener.server_address)
            publisher.send((1000, 260.0))
            publisher.send((2000, 400.5))
            publisher.send((1500, 399.0))  # out of order: dropped
            publisher.send((3000, 401.0))
            publisher.close()
            wait_until(lambda: gauge.last_timestamp() == 3000)
            assert samples(gauge) == [(1000, 260.0), (2000, 400.5), (3000, 401.0)]

    def test_unstorable_line_skipped_and_stream_kept(self):
        gauge = meter_gauge()
        with serving(gauge) as listener:
            publisher = MeterPublisher(*listener.server_address)
            publisher.send((1000, 260.0))
            publisher.send((2000, float("nan")))  # json.dumps writes NaN, json.loads reads it
            publisher.send((2**63, 300.0))  # past int64
            publisher.send((-1, 300.0))
            publisher.send((3000, 401.0))
            publisher.close()
            wait_until(lambda: gauge.last_timestamp() == 3000)
            assert samples(gauge) == [(1000, 260.0), (3000, 401.0)]

    def test_dropped_counts_each_skipped_line(self):
        gauge = meter_gauge()
        good = [(1000, 260.0), (2000, 261.0), (3000, 262.0), (4000, 263.0), (5000, 264.0)]
        bad = [
            ["not json", '{"ts_ms": 1500}', '{"power_w": true, "ts_ms": 1500}'],  # malformed
            ['{"power_w": 1.0, "ts_ms": 2000}', '{"power_w": 1.0, "ts_ms": 1500}',
             '{"power_w": 1.0, "ts_ms": 0}'],  # late or duplicate
            ['{"power_w": NaN, "ts_ms": 3500}', '{"power_w": Infinity, "ts_ms": 3500}',
             '{"power_w": -Infinity, "ts_ms": 3500}'],  # non-finite
            ['{"power_w": 1.0, "ts_ms": -1}', '{"power_w": 1.0, "ts_ms": 9223372036854775808}',
             '{"power_w": 1.0, "ts_ms": 18446744073709551616}'],  # out of range
        ]
        lines = [f'{{"power_w": {good[0][1]}, "ts_ms": {good[0][0]}}}']
        for (ts_ms, power_w), bad_lines in zip(good[1:], bad):
            lines += bad_lines + [f'{{"power_w": {power_w}, "ts_ms": {ts_ms}}}']
        with serving(gauge) as listener:
            with socket.create_connection(listener.server_address, timeout=5.0) as sock:
                sock.sendall("".join(line + "\n" for line in lines).encode())
            wait_until(lambda: gauge.last_timestamp() == 5000)
            assert samples(gauge) == good
            assert listener.dropped == sum(map(len, bad)) == 12

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"power_w": 300.0, "ts_ms": 1e999}',  # json reads inf; int(inf) overflows
            '{"power_w": 1' + "0" * 400 + ', "ts_ms": 2000}',  # float() of it overflows
            "[" * (MAX_LINE - 1),  # json.loads raises RecursionError
            '{"power_w": true, "ts_ms": "2000"}',  # a bool and a string are not numbers
            '{"power_w": "3.5", "ts_ms": 3000.9}',  # a string, and a ts_ms that is no integer
        ],
        ids=[
            "ts_ms_inf",
            "power_w_past_float",
            "nested_past_recursion",
            "bool_power_string_ts",
            "string_power_float_ts",
        ],
    )
    def test_overflowing_number_skipped_and_stream_kept(self, bad_line):
        gauge = meter_gauge()
        lines = ['{"power_w": 260.0, "ts_ms": 1000}', bad_line, '{"power_w": 401.0, "ts_ms": 3000}']
        with serving(gauge) as listener:
            with socket.create_connection(listener.server_address, timeout=5.0) as sock:
                sock.sendall("".join(line + "\n" for line in lines).encode())
            wait_until(lambda: gauge.last_timestamp() == 3000)
            assert samples(gauge) == [(1000, 260.0), (3000, 401.0)]

    def test_bind_error(self):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            with pytest.raises(BindError):
                MeterListener(blocker.getsockname(), meter_gauge())

    def test_shutdown_leaves_no_thread_and_no_connection(self):
        gauge = meter_gauge()
        before = threading.active_count()
        listener = MeterListener(("127.0.0.1", 0), gauge)
        loop = listener.serve_in_background()
        late = meter_line(2000, 261.0)
        with socket.create_connection(listener.server_address, timeout=5.0) as sock:
            sock.sendall(meter_line(1000, 260.0) + late[:10])
            assert wait_until(lambda: len(gauge) == 1)
            listener.shutdown()
            listener.server_close()
            loop.join(timeout=5.0)
            assert not loop.is_alive()
            assert threading.active_count() == before
            with contextlib.suppress(ConnectionResetError):
                assert sock.recv(1) == b""
            with contextlib.suppress(OSError):  # the listener may answer with a reset
                sock.sendall(late[10:])
            time.sleep(0.2)
        assert samples(gauge) == [(1000, 260.0)]

    def test_connections_share_the_loop_thread(self):
        gauge = meter_gauge()
        before = threading.active_count()
        with serving(gauge) as listener, contextlib.ExitStack() as stack:
            for i in range(1, 9):
                sock = socket.create_connection(listener.server_address, timeout=5.0)
                stack.enter_context(sock)
                sock.sendall(meter_line(1000 * i, 260.0))
                assert wait_until(lambda: len(gauge) == i)
            assert threading.active_count() == before + 1
        assert listener.dropped == 0

    def test_line_split_across_sends(self):
        gauge = meter_gauge()
        data = meter_line(1000, 260.0) + meter_line(2000, 261.0)
        cut = len(data) - 10  # inside the second line
        with serving(gauge) as listener:
            with socket.create_connection(listener.server_address, timeout=5.0) as sock:
                sock.sendall(data[:cut])
                assert wait_until(lambda: len(gauge) == 1)
                time.sleep(0.05)
                sock.sendall(data[cut:])
                assert wait_until(lambda: len(gauge) == 2)
        assert samples(gauge) == [(1000, 260.0), (2000, 261.0)]
        assert listener.dropped == 0

    def test_last_line_needs_no_newline(self):
        gauge = meter_gauge()
        with serving(gauge) as listener:
            with socket.create_connection(listener.server_address, timeout=5.0) as sock:
                sock.sendall(meter_line(1000, 260.0) + meter_line(2000, 261.0).rstrip(b"\n"))
                sock.shutdown(socket.SHUT_WR)  # a clean EOF
                assert wait_until(lambda: len(gauge) == 2)
                assert sock.recv(1) == b""  # the listener closed it at EOF
        assert samples(gauge) == [(1000, 260.0), (2000, 261.0)]
        assert listener.dropped == 0

    def test_two_publishers_alternating_halves(self):
        gauge = meter_gauge()
        a1, b1, a2, b2 = (meter_line(1000 * i, 260.0 + i) for i in range(1, 5))
        with serving(gauge) as listener:
            address = listener.server_address
            with socket.create_connection(address, timeout=5.0) as a, \
                    socket.create_connection(address, timeout=5.0) as b:
                sends = [(a, a1[:9]), (b, b1[:9]), (a, a1[9:] + a2[:9]),
                         (b, b1[9:] + b2[:9]), (a, a2[9:]), (b, b2[9:])]
                for n, (sock, data) in enumerate(sends):
                    sock.sendall(data)
                    time.sleep(0.02)  # each half is read on its own
                    assert wait_until(lambda: len(gauge) == max(n - 1, 0))
        assert samples(gauge) == [(1000, 261.0), (2000, 262.0), (3000, 263.0), (4000, 264.0)]
        assert listener.dropped == 0

    def test_line_past_max_line_dropped_with_its_connection(self):
        gauge = meter_gauge()
        with serving(gauge) as listener:
            address = listener.server_address
            with socket.create_connection(address, timeout=5.0) as sock:
                sock.sendall(meter_line(1000, 260.0))
                with contextlib.suppress(OSError):  # the listener may close it mid-send
                    sock.sendall(b"7" * 65536)
                assert wait_until(lambda: listener.dropped == 1)
                try:
                    closed = sock.recv(1) == b""
                except ConnectionResetError:  # closed with unread bytes: a reset
                    closed = True
                assert closed
            with socket.create_connection(address, timeout=5.0) as sock:
                sock.sendall(meter_line(2000, 261.0) + meter_line(3000, 262.0))
                assert wait_until(lambda: len(gauge) == 3)
            assert listener.dropped == 1
        assert samples(gauge) == [(1000, 260.0), (2000, 261.0), (3000, 262.0)]

    def test_line_past_max_line_dropped_however_tcp_splits_it(self):
        # a valid reading padded past MAX_LINE, sent whole and in two halves
        # with the listener served between them, on this thread
        line = b'{"power_w": 261.0,' + b" " * 10_000 + b'"ts_ms": 2000}\n'
        half = len(line) // 2
        outcomes = []
        for parts in ([line], [line[:half], line[half:]]):
            gauge = meter_gauge()
            listener = MeterListener(("127.0.0.1", 0), gauge)
            try:
                with socket.create_connection(listener.server_address, timeout=5.0) as sock:
                    sock.sendall(meter_line(1000, 260.0))
                    for part in parts:
                        with contextlib.suppress(OSError):  # the listener may have closed it
                            sock.sendall(part)
                        serve_for(listener, 0.2)
                    outcomes.append((listener.dropped, samples(gauge), open_connections(listener)))
            finally:
                listener.server_close()
        assert outcomes == [(1, [(1000, 260.0)], 0)] * 2

    def test_reset_mid_line_drops_the_line_uncounted(self):
        gauge = meter_gauge()
        with serving(gauge) as listener:
            address = listener.server_address
            with socket.create_connection(address, timeout=5.0) as sock:
                sock.sendall(meter_line(1000, 260.0) + meter_line(2000, 261.0)[:12])
                assert wait_until(lambda: len(gauge) == 1)
                time.sleep(0.05)
                # linger 0: close() sends a reset, not a FIN
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            with socket.create_connection(address, timeout=5.0) as sock:
                sock.sendall(meter_line(3000, 262.0))
            assert wait_until(lambda: len(gauge) == 2)
        assert samples(gauge) == [(1000, 260.0), (3000, 262.0)]
        assert listener.dropped == 0
