"""Calibration math, the calibration stage and the namespace power actor."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib.calibration import (
    CalibrationStage,
    NamespacePowerActor,
    calibrate,
    calibrated_dynamic,
    calibrated_idle,
    capture_idle_baseline,
    dynamic_factors,
    member_sum,
)
from gridcalib.config import NamespaceActorSpec
from gridcalib.errors import DegenerateDenominator, StaleSignal, ZeroNodeIdle
from gridcalib.signals import VirtualClock
from gridcalib.timeseries import COUNTER, GAUGE, CounterFrame, MetricStore, Series


class TestCalibrateIdle:
    def test_scaled_share(self):
        assert calibrated_idle((5.0,), 50.0, 260.0) == (26.0,)

    def test_whole_node_share_returns_meter_idle(self):
        assert calibrated_idle((50.0,), 50.0, 260.0) == (260.0,)

    def test_zero_share(self):
        assert calibrated_idle((0.0,), 50.0, 260.0) == (0.0,)

    def test_zero_node_idle_rejected(self):
        with pytest.raises(ZeroNodeIdle):
            calibrated_idle((5.0,), 0.0, 260.0)

    def test_partition_recovers_meter_idle(self):
        rng = random.Random(7)
        for _ in range(200):
            shares = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(1, 8))]
            n_idle = sum(shares)
            if n_idle <= 0:
                continue
            m_idle = rng.uniform(0.0, 500.0)
            total = sum(calibrated_idle(shares, n_idle, m_idle))
            assert total == pytest.approx(m_idle, rel=1e-9, abs=1e-12)


class TestDynamicFactor:
    def test_reference_value(self):
        assert dynamic_factors((30.0,), 100.0, 20.0) == pytest.approx((0.375,))

    def test_no_system_leakage_reduces_to_plain_ratio(self):
        assert dynamic_factors((30.0,), 100.0, 0.0) == pytest.approx((0.3,))

    def test_sole_workload_hits_factor_one(self):
        assert dynamic_factors((80.0,), 100.0, 20.0) == pytest.approx((1.0,))

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(DegenerateDenominator):
            dynamic_factors((1.0,), 100.0, 100.0)
        with pytest.raises(DegenerateDenominator):
            dynamic_factors((1.0,), 100.0, 100.0 - 5e-7)

    def test_simplified_form_matches_expanded_form(self):
        # the reassign-then-normalize derivation must collapse to p/(n-s)
        rng = random.Random(20260816)
        for _ in range(10_000):
            n = rng.uniform(1e-3, 1e6)
            s = rng.uniform(0.0, max(0.0, n - 1e-3))
            p = rng.uniform(0.0, n - s)
            (simplified,) = dynamic_factors((p,), n, s)
            expanded = (p + p / (p + n - (p + s)) * s) / n
            assert math.isclose(simplified, expanded, rel_tol=1e-12, abs_tol=1e-15)


class TestCalibrateDynamic:
    def test_reference_value(self):
        assert calibrated_dynamic((0.375,), 400.0, 260.0) == (52.5,)

    def test_factor_one_takes_whole_dynamic_budget(self):
        assert calibrated_dynamic((1.0,), 400.0, 260.0) == (140.0,)

    def test_meter_below_idle_clamps_to_zero(self):
        assert calibrated_dynamic((0.8,), 250.0, 260.0) == (0.0,)

    def test_accepts_bare_float_factor(self):
        assert calibrated_dynamic([0.5], 300.0, 260.0) == (20.0,)

    @settings(max_examples=100)
    @given(
        a=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        budget=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        k=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_linear_in_dynamic_budget(self, a, budget, k):
        (base,) = calibrated_dynamic((a,), 260.0 + budget, 260.0)
        (scaled,) = calibrated_dynamic((a,), 260.0 + k * budget, 260.0)
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
            total = sum(calibrated_dynamic(dynamic_factors(parts, n, s), m, m_idle))
            assert total == pytest.approx(m - m_idle, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("leak", [0.0, 0.1, 1.0 / 3.0, 0.5, 0.9, 0.999])
    def test_system_leakage_cancels_exactly(self, leak):
        # the workload's share shrinks by the leaked fraction, the system
        # share grows by it, and calibration recovers the full budget
        true_power = 137.0
        p = (1.0 - leak) * true_power
        s = leak * true_power
        snapshot = calibrate((p, s), (0.0, 0.0), 400.0, 260.0, system=(1,))
        assert snapshot.cal_dyn[0] == pytest.approx(140.0, rel=1e-9)
        assert snapshot.cal_dyn[1] == 0.0


class TestMemberSum:
    def test_adds_left_to_right(self):
        # compensated summation (sum() from Python 3.12) would give 1.0
        assert member_sum((1e16, 1.0, -1e16), (0, 1, 2)) == 0.0

    @settings(max_examples=100)
    @given(
        rows=st.lists(
            st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=4, max_size=4),
            min_size=1,
            max_size=20,
        ),
        members=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    )
    def test_columns_equal_per_row_sums(self, rows, members):
        columns = [np.array(column) for column in zip(*rows)]
        per_row = [member_sum(row, members) for row in rows]
        assert member_sum(columns, members).tolist() == per_row


def stage_counters(store, processes):
    """A dynamic and an idle counter per process, dynamic first. The
    stage reads the handles, whatever their labels."""
    return [
        store.get_or_create("joules_total", {"process": pid, "mode": mode}, COUNTER)
        for mode in ("dynamic", "idle")
        for pid, _ in processes
    ]


def stage_series(store, processes):
    """The counters as one frame, as the emitter builds them, and a
    meter gauge."""
    frame = CounterFrame(stage_counters(store, processes))
    return frame, store.get_or_create("meter_watts", {}, GAUGE)


# the config's default query window and signal interval
TIMING = {"window_ms": 2000, "interval_ms": 1000}


def make_stage(processes, clock=None, m_idle_w=0.0):
    store = MetricStore()
    frame, gauge = stage_series(store, processes)
    clock = clock if clock is not None else VirtualClock()
    return CalibrationStage(processes, frame, gauge, clock, m_idle_w, **TIMING)


class TestCalibrationStage:
    @pytest.mark.parametrize("rows_ms", [[], [1000], [500, 1000]], ids=["empty", "one", "short"])
    def test_uncovered_window_reads_zero(self, rows_ms):
        # the rows do not reach back over the 2000 ms window: every rate
        # reads 0 W, so with a positive measured idle no idle is handed out
        processes = [("bench", "bench"), ("system", "system")]
        clock = VirtualClock()
        store = MetricStore()
        frame, gauge = stage_series(store, processes)
        stage = CalibrationStage(processes, frame, gauge, clock, 50.0, **TIMING)
        for t in rows_ms:
            frame.append(t, [3.0 * t, 1.0 * t, 2.0 * t, 0.5 * t])
        gauge.append((1000, 300.0))
        clock.advance(1000)
        assert stage.last_collection_ms == 1000
        snap = stage.snapshot
        assert snap.m == 300.0
        assert snap.p_dyn == (0.0, 0.0)
        assert snap.cal_dyn == (0.0, 0.0)
        assert snap.cal_idle == (0.0, 0.0)


class TestStageReuse:
    """A collection whose rates and meter reading equal the last
    snapshot's, bit for bit, keeps that snapshot."""

    processes = [("a", "x"), ("b", "y"), ("system", "system")]
    # exact in binary, so every trailing rate over a plateau repeats its bits
    rates = [3.0, 1.0, 2.0, 4.0, 0.5, 1.5]

    def build(self):
        clock = VirtualClock()
        frame, gauge = stage_series(MetricStore(), self.processes)
        stage = CalibrationStage(self.processes, frame, gauge, clock, 40.0, **TIMING)
        frame.append(0, [0.0] * len(self.rates))
        self.joules = [0.0] * len(self.rates)
        return clock, frame, gauge, stage

    def second(self, clock, frame, gauge, rates, meter_w):
        """One second at these rates, ending in a collection."""
        t = clock.now_ms() + 1000
        self.joules = [j + r for j, r in zip(self.joules, rates)]
        frame.append(t, self.joules)
        gauge.append((t, meter_w))
        clock.advance(1000)

    @pytest.mark.parametrize("zero", [None, 1, 4], ids=["no_zero", "zero_rate", "zero_idle_rate"])
    def test_equal_inputs_keep_the_snapshot(self, zero):
        rates = list(self.rates)
        if zero is not None:  # equal zeros are kept too, when their bits are
            rates[zero] = 0.0
        clock, frame, gauge, stage = self.build()
        for _ in range(2):  # the 2 s window is covered from the second collection on
            self.second(clock, frame, gauge, rates, 300.0)
        snap = stage.snapshot
        for _ in range(3):
            self.second(clock, frame, gauge, rates, 300.0)
        assert stage.snapshot is snap
        assert stage.last_collection_ms == 5000
        assert snap == calibrate(tuple(rates[:3]), tuple(rates[3:]), 300.0, 40.0, (2,))

    @pytest.mark.parametrize("changed", range(7), ids=[*(f"rate{i}" for i in range(6)), "meter"])
    def test_any_changed_input_replaces_the_snapshot(self, changed):
        clock, frame, gauge, stage = self.build()
        for _ in range(2):
            self.second(clock, frame, gauge, self.rates, 300.0)
        snap = stage.snapshot
        rates, meter_w = list(self.rates), 300.0
        if changed < len(rates):
            rates[changed] += 2.0  # for one second: the 2 s trailing rate rises by 1 W
        else:
            meter_w = 301.0
        self.second(clock, frame, gauge, rates, meter_w)
        inputs = [*self.rates, 300.0]
        inputs[changed] += 1.0
        assert stage.snapshot is not snap
        assert stage.snapshot == calibrate(
            tuple(inputs[:3]), tuple(inputs[3:6]), inputs[6], 40.0, (2,)
        )

    @pytest.mark.parametrize("signed", ["idle_rate", "meter"])
    def test_minus_zero_is_a_changed_input(self, signed):
        # == takes -0.0 for 0.0, but calibrate keeps a zero's sign:
        # a -0.0 idle rate calibrates to -0.0 W and a -0.0 reading is m
        clock, frame, gauge, stage = self.build()
        rates = list(self.rates)
        rates[3] = 0.0  # process a's idle counter stays at 0 J
        for _ in range(2):
            self.second(clock, frame, gauge, rates, 0.0)
        snap = stage.snapshot
        assert math.copysign(1.0, snap.cal_idle[0]) == math.copysign(1.0, snap.m) == 1.0
        if signed == "idle_rate":
            # counters only check for a fall, and -0.0 is no fall from 0.0:
            # a row of -0.0 J gives the trailing rate (-0.0 - 0.0) / 2 s
            self.joules[3] = rates[3] = -0.0
            self.second(clock, frame, gauge, rates, 0.0)
            assert stage.snapshot.p_dyn == snap.p_dyn
            assert math.copysign(1.0, stage.snapshot.cal_idle[0]) == -1.0
        else:
            self.second(clock, frame, gauge, rates, -0.0)
            assert math.copysign(1.0, stage.snapshot.m) == -1.0
        assert stage.snapshot is not snap


class TestNamespacePowerActor:
    def build(self, rates, meter_before=260.0, meter_after=400.0, strict=False):
        # one process per namespace, named after it; idle counters stay
        # at 0 J, so the node idle estimate is 0 and idle calibrates to 0
        store = MetricStore()
        clock = VirtualClock()
        processes = [(ns, ns) for ns in rates]
        frame, gauge = stage_series(store, processes)
        gauge.append((0, meter_before))
        m_idle = capture_idle_baseline(gauge, clock.now_ms(), "averaged", 30_000)
        stage = CalibrationStage(processes, frame, gauge, clock, m_idle, **TIMING)
        actor = NamespacePowerActor(stage, "bench", actor_id="ns.bench", strict=strict)
        for k in range(3):
            dynamic = [joules_per_s * k for joules_per_s in rates.values()]
            frame.append(k * 1000, dynamic + [0.0] * len(processes))
        gauge.append((2000, meter_after))
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
        stage = make_stage([("bench", "bench")])
        actor = NamespacePowerActor(stage, "bench", actor_id="ns.bench", strict=True)
        with pytest.raises(StaleSignal):
            actor.calibrated_dynamic_w()

    def test_default_actor_id_names_namespace(self):
        # the spec names the actor, and the run builds it with that id
        assert NamespaceActorSpec("bench").resolved_id == "ns.bench"
        assert NamespaceActorSpec("bench", actor_id="mine").resolved_id == "mine"

    @pytest.mark.parametrize("n_counters", [0, 1, 3, 5])
    def test_counters_must_be_two_per_process(self, n_counters):
        processes = [("bench", "bench"), ("system", "system")]
        store = MetricStore()
        extra = store.get_or_create("joules_total", {"process": "extra"}, COUNTER)
        frame = CounterFrame((stage_counters(store, processes) + [extra])[:n_counters])
        gauge = store.get_or_create("meter_watts", {}, GAUGE)
        with pytest.raises(ValueError, match="counter"):
            CalibrationStage(processes, frame, gauge, VirtualClock(), 0.0, **TIMING)


def idle_baseline_reference(samples, now_ms, mode="averaged", window_ms=30_000):
    """capture_idle_baseline over (timestamp, value) pairs, written out."""
    if not samples:
        return 0.0
    window = [v for t, v in samples if now_ms - window_ms <= t <= now_ms]
    if mode == "single" or not window:
        return samples[-1][1]
    return fmean(window)


class TestIdleBaselineCapture:
    def seed_meter(self, samples):
        gauge = Series("meter_watts", kind=GAUGE)
        for s in samples:
            gauge.append(s)
        return gauge

    def test_averaged_mean_over_window(self):
        gauge = self.seed_meter([(0, 100.0), (5000, 200.0)])
        assert capture_idle_baseline(gauge, 5000, "averaged", 30_000) == 150.0

    def test_averaged_ignores_samples_outside_window(self):
        gauge = self.seed_meter([(0, 100.0), (5000, 200.0)])
        value = capture_idle_baseline(gauge, 5000, "averaged", 3000)
        assert value == 200.0

    def test_single_takes_latest(self):
        gauge = self.seed_meter([(0, 100.0), (5000, 200.0)])
        assert capture_idle_baseline(gauge, 5000, "single", 30_000) == 200.0

    def test_empty_gauge_reads_zero(self):
        assert capture_idle_baseline(self.seed_meter([]), 0, "averaged", 30_000) == 0.0

    def test_stale_window_falls_back_to_latest(self):
        gauge = self.seed_meter([(0, 100.0)])
        assert capture_idle_baseline(gauge, 50_000, "averaged", 30_000) == 100.0

    @settings(max_examples=150, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=60_000),
                st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            ),
            max_size=40,
            unique_by=lambda sample: sample[0],
        ).map(sorted),
        now_ms=st.integers(min_value=0, max_value=70_000),
        window_ms=st.integers(min_value=0, max_value=40_000),
        mode=st.sampled_from(["averaged", "single"]),
    )
    def test_equals_reference(self, samples, now_ms, window_ms, mode):
        got = capture_idle_baseline(self.seed_meter(samples), now_ms, mode, window_ms)
        want = idle_baseline_reference(samples, now_ms, mode, window_ms)
        assert type(got) is float
        assert got == want  # bit for bit: fmean over the same floats


def test_package_import_leaves_statistics_unloaded():
    # the idle mean is fsum / len, which is what statistics.fmean computes,
    # so the package does not pay for importing statistics, fractions and decimal
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gridcalib; print('statistics' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
