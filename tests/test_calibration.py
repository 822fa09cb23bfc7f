"""Calibration math, the calibration stage and the namespace power actor."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib.calibration import (
    CalibrationFactor,
    CalibrationStage,
    NamespacePowerActor,
    calibrate_dynamic,
    calibrate_idle,
    capture_idle_baseline,
    dynamic_factor,
)
from gridcalib.errors import DegenerateDenominator, StaleSignal, ZeroNodeIdle
from gridcalib.signals import VirtualClock
from gridcalib.timeseries import COUNTER, GAUGE, MetricStore
from gridcalib.wire import (
    METER_GAUGE_METRIC,
    MODE_DYNAMIC,
    MODE_LABEL,
    NAMESPACE_LABEL,
    POWER_COUNTER_METRIC,
    PROCESS_LABEL,
)


class TestCalibrateIdle:
    def test_scaled_share(self):
        assert calibrate_idle(5.0, 50.0, 260.0) == 26.0

    def test_whole_node_share_returns_meter_idle(self):
        assert calibrate_idle(50.0, 50.0, 260.0) == 260.0

    def test_zero_share(self):
        assert calibrate_idle(0.0, 50.0, 260.0) == 0.0

    def test_zero_node_idle_rejected(self):
        with pytest.raises(ZeroNodeIdle):
            calibrate_idle(5.0, 0.0, 260.0)

    def test_partition_recovers_meter_idle(self):
        rng = random.Random(7)
        for _ in range(200):
            shares = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(1, 8))]
            n_idle = sum(shares)
            if n_idle <= 0:
                continue
            m_idle = rng.uniform(0.0, 500.0)
            total = sum(calibrate_idle(p, n_idle, m_idle) for p in shares)
            assert total == pytest.approx(m_idle, rel=1e-9, abs=1e-12)


class TestDynamicFactor:
    def test_reference_value(self):
        assert dynamic_factor(30.0, 100.0, 20.0).a == pytest.approx(0.375)

    def test_no_system_leakage_reduces_to_plain_ratio(self):
        assert dynamic_factor(30.0, 100.0, 0.0).a == pytest.approx(0.3)

    def test_sole_workload_hits_factor_one(self):
        assert dynamic_factor(80.0, 100.0, 20.0).a == pytest.approx(1.0)

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(DegenerateDenominator):
            dynamic_factor(1.0, 100.0, 100.0)
        with pytest.raises(DegenerateDenominator):
            dynamic_factor(1.0, 100.0, 100.0 - 5e-7)

    def test_simplified_form_matches_expanded_form(self):
        # the reassign-then-normalize derivation must collapse to p/(n-s)
        rng = random.Random(20260816)
        for _ in range(10_000):
            n = rng.uniform(1e-3, 1e6)
            s = rng.uniform(0.0, max(0.0, n - 1e-3))
            p = rng.uniform(0.0, n - s)
            simplified = dynamic_factor(p, n, s).a
            expanded = (p + p / (p + n - (p + s)) * s) / n
            assert math.isclose(simplified, expanded, rel_tol=1e-12, abs_tol=1e-15)


class TestCalibrateDynamic:
    def test_reference_value(self):
        assert calibrate_dynamic(CalibrationFactor(0.375), 400.0, 260.0) == 52.5

    def test_factor_one_takes_whole_dynamic_budget(self):
        assert calibrate_dynamic(CalibrationFactor(1.0), 400.0, 260.0) == 140.0

    def test_meter_below_idle_clamps_to_zero(self):
        assert calibrate_dynamic(CalibrationFactor(0.8), 250.0, 260.0) == 0.0

    def test_accepts_bare_float_factor(self):
        assert calibrate_dynamic(0.5, 300.0, 260.0) == 20.0

    @settings(max_examples=100)
    @given(
        a=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        budget=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        k=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_linear_in_dynamic_budget(self, a, budget, k):
        base = calibrate_dynamic(CalibrationFactor(a), 260.0 + budget, 260.0)
        scaled = calibrate_dynamic(CalibrationFactor(a), 260.0 + k * budget, 260.0)
        assert scaled == pytest.approx(k * base, rel=1e-9, abs=1e-9)

    def test_namespace_partition_recovers_dynamic_budget(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.uniform(1.0, 1e4)
            s = rng.uniform(0.0, n - 0.5)
            weights = [rng.random() for _ in range(rng.randint(1, 6))]
            scale = (n - s) / sum(weights)
            parts = [w * scale for w in weights]
            m_idle = rng.uniform(0.0, 300.0)
            m = m_idle + rng.uniform(0.0, 500.0)
            total = sum(
                calibrate_dynamic(dynamic_factor(p, n, s), m, m_idle) for p in parts
            )
            assert total == pytest.approx(m - m_idle, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("leak", [0.0, 0.1, 1.0 / 3.0, 0.5, 0.9, 0.999])
    def test_system_leakage_cancels_exactly(self, leak):
        # the workload's share shrinks by the leaked fraction, the system
        # share grows by it, and calibration recovers the full budget
        true_power = 137.0
        p = (1.0 - leak) * true_power
        s = leak * true_power
        out = calibrate_dynamic(dynamic_factor(p, true_power, s), 400.0, 260.0)
        assert out == pytest.approx(140.0, rel=1e-9)


def seed_dynamic_counter(store, namespace, joules_per_s, ticks=3):
    # one process per namespace, named after it
    series = store.get_or_create(
        POWER_COUNTER_METRIC,
        {NAMESPACE_LABEL: namespace, MODE_LABEL: MODE_DYNAMIC, PROCESS_LABEL: namespace},
        COUNTER,
    )
    for k in range(ticks):
        series.append((k * 1000, joules_per_s * k))
    return series


class TestNamespacePowerActor:
    def build(self, rates, meter_before=260.0, meter_after=400.0, strict=False, **kwargs):
        store = MetricStore()
        clock = VirtualClock()
        meter_series = store.get_or_create(METER_GAUGE_METRIC, {}, GAUGE)
        meter_series.append((0, meter_before))
        m_idle = capture_idle_baseline(store, clock.now_ms())
        stage = CalibrationStage(
            store, [(ns, ns) for ns in rates], clock, m_idle, **kwargs
        )
        actor = NamespacePowerActor(stage, "bench", strict=strict)
        for namespace, rate in rates.items():
            seed_dynamic_counter(store, namespace, rate)
        meter_series.append((2000, meter_after))
        clock.advance(2000)
        return actor

    def test_composed_calibration(self):
        actor = self.build({"bench": 30.0, "other": 50.0, "system": 20.0})
        assert actor.calibrated_dynamic_w() == pytest.approx(52.5, rel=1e-9)
        assert actor.power() == pytest.approx(-52.5, rel=1e-9)
        info = actor.info()
        assert info["m_idle_w"] == 260.0
        assert info["p_dyn_w"] == pytest.approx(30.0)
        assert info["n_dyn_w"] == pytest.approx(100.0)
        assert info["s_dyn_w"] == pytest.approx(20.0)
        assert info["m_w"] == pytest.approx(400.0)
        assert info["factor_a"] == pytest.approx(0.375)
        assert info["calibrated_w"] == pytest.approx(52.5, rel=1e-9)

    def test_idle_namespace_draws_nothing(self):
        actor = self.build({"other": 50.0, "system": 20.0})
        assert actor.power() == 0.0

    @pytest.mark.parametrize("leak", [0.0, 0.25, 0.6])
    def test_sole_workload_recovers_meter_budget(self, leak):
        actor = self.build(
            {"bench": (1 - leak) * 100.0, "system": leak * 100.0}
            if leak
            else {"bench": 100.0}
        )
        assert actor.calibrated_dynamic_w() == pytest.approx(140.0, rel=1e-9)

    def test_degenerate_denominator_propagates(self):
        actor = self.build({"bench": 5e-7})
        with pytest.raises(DegenerateDenominator):
            actor.power()

    def test_strict_mode_flags_never_collected_signals(self):
        store = MetricStore()
        stage = CalibrationStage(store, [("bench", "bench")], VirtualClock(), 0.0)
        actor = NamespacePowerActor(stage, "bench", strict=True)
        with pytest.raises(StaleSignal):
            actor.calibrated_dynamic_w()

    def test_default_actor_id_names_namespace(self):
        actor = self.build({"bench": 30.0})
        assert actor.actor_id == "ns.bench"

    def test_window_must_be_whole_seconds(self):
        with pytest.raises(ValueError):
            CalibrationStage(
                MetricStore(), [("bench", "bench")], VirtualClock(), 0.0, window_ms=1500
            )


class TestIdleBaselineCapture:
    def seed_meter(self, samples):
        store = MetricStore()
        series = store.get_or_create(METER_GAUGE_METRIC, {}, GAUGE)
        for s in samples:
            series.append(s)
        return store

    def test_averaged_mean_over_window(self):
        store = self.seed_meter([(0, 100.0), (5000, 200.0)])
        assert capture_idle_baseline(store, now_ms=5000) == 150.0

    def test_averaged_ignores_samples_outside_window(self):
        store = self.seed_meter([(0, 100.0), (5000, 200.0)])
        value = capture_idle_baseline(store, now_ms=5000, window_ms=3000)
        assert value == 200.0

    def test_single_takes_latest(self):
        store = self.seed_meter([(0, 100.0), (5000, 200.0)])
        assert capture_idle_baseline(store, now_ms=5000, mode="single") == 200.0

    def test_empty_gauge_reads_zero(self):
        store = MetricStore()
        assert capture_idle_baseline(store, now_ms=0) == 0.0

    def test_stale_window_falls_back_to_latest(self):
        store = self.seed_meter([(0, 100.0)])
        assert capture_idle_baseline(store, now_ms=50_000) == 100.0

    def test_unknown_mode_rejected(self):
        store = MetricStore()
        with pytest.raises(ValueError):
            capture_idle_baseline(store, now_ms=0, mode="median")
