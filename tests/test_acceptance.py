"""Acceptance gate: twelve end-to-end checks, one test per criterion.

`pytest tests/test_acceptance.py -v` prints one PASS/FAIL line per
criterion; each test also prints its headline measurement and enforces
its own runtime budget.
"""

import csv
import dataclasses
import random
import time

import numpy as np
import pytest

from gridcalib.attribution import dynamic_shares, even_shares, requested_shares
from gridcalib.calibration import calibrate, dynamic_factors
from gridcalib.config import PRESETS
from gridcalib.emulation import ApproximationParams, MeterSpec, active_power, meter_sample
from gridcalib.microgrid import SimpleBattery, settle
from gridcalib.pipeline import ARTIFACT_NAMES, run
from gridcalib.timeseries import COUNTER, MetricStore, rate
from gridcalib.validation import fit_ols
from gridcalib.wire import (
    MODE_DYNAMIC,
    MODE_IDLE,
    MODE_LABEL,
    NAMESPACE_LABEL,
    POWER_COUNTER_METRIC,
    PROCESS_LABEL,
)


def _finish(num, budget_s, elapsed_s, detail):
    print(f"criterion {num:02d} PASS: {detail} [{elapsed_s:.2f}s / budget {budget_s:.0f}s]")
    assert elapsed_s < budget_s, f"criterion {num} exceeded its {budget_s}s runtime budget"


@pytest.fixture(scope="module")
def gpu_run(tmp_path_factory):
    t0 = time.perf_counter()
    art = run(PRESETS["gpu-leakage"], tmp_path_factory.mktemp("gpu"))
    return art, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cpu_run(tmp_path_factory):
    t0 = time.perf_counter()
    art = run(PRESETS["cpu-offset"], tmp_path_factory.mktemp("cpu"))
    return art, time.perf_counter() - t0


def _column(art, name):
    """One column of calibrated_power.csv. Floats are written as their
    repr, so each cell reads back to the value the run computed."""
    with open(art.calibrated_csv, newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


def _counter(art, namespace, mode, process):
    labels = {NAMESPACE_LABEL: namespace, MODE_LABEL: mode, PROCESS_LABEL: process}
    [series] = art.store.match(POWER_COUNTER_METRIC, labels)
    return series


def test_criterion_01_calibration_algebra():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for _ in range(10_000):
        n = rng.uniform(1.0, 1000.0)
        s = n * rng.uniform(0.0, 0.99)
        p = rng.uniform(0.0, n - s)
        (simplified,) = dynamic_factors((p,), n, s)
        # hand each workload its share of the system draw, then divide by the node
        expanded = (p + (p / (n - s)) * s) / n
        assert simplified == pytest.approx(expanded, rel=1e-12)
    assert dynamic_factors((30,), 100, 20) == (0.375,)
    _finish(1, 1.0, time.perf_counter() - t0, "simplified == expanded over 10^4 inputs")


def test_criterion_02_conservation():
    t0 = time.perf_counter()
    rng = random.Random(202)
    for _ in range(1000):
        m_idle = rng.uniform(0.0, 200.0)
        m = m_idle + rng.uniform(0.001, 500.0)
        parts = [rng.uniform(0.0, 100.0) for _ in range(rng.randint(1, 8))]
        s = rng.uniform(0.0, 50.0)
        # the workloads, then the system process that absorbed s
        snapshot = calibrate((*parts, s), (0.0,) * (len(parts) + 1), m, m_idle, (len(parts),))
        total = sum(snapshot.cal_dyn)
        assert total == pytest.approx(m - m_idle, rel=1e-9)
    _finish(2, 1.0, time.perf_counter() - t0, "sum of calibrated dynamic == m - m_idle, 10^3 partitions")


def test_criterion_03_leakage_recovery(gpu_run):
    art, setup_s = gpu_run
    t0 = time.perf_counter()
    # raw approximated energy: the dynamic counter integrates exactly the
    # approximated watts, and the load is zero outside the benchmark window
    raw_j = _counter(art, "bench", MODE_DYNAMIC, "gpu-job").last().value
    cal_w = _column(art, "ns.bench_dyn_w")
    cal_j = sum(cal_w)  # 1 s ticks
    ratio = cal_j / raw_j
    assert ratio == pytest.approx(1.5, rel=0.01)
    offset_share = (cal_j - raw_j) / cal_j
    assert offset_share == pytest.approx(1 / 3, abs=0.01)
    # per-tick calibrated power equals ground truth (perfect meter)
    truth = art.emitter.truth.columns()
    truth_by_time = dict(zip(truth["time_ms"].tolist(), truth["gpu-job_true_dyn_w"].tolist()))
    worst = max(
        abs(w - truth_by_time[int(t)]) for t, w in zip(_column(art, "time_ms"), cal_w)
    )
    assert worst <= 1e-6
    elapsed = setup_s + time.perf_counter() - t0
    _finish(3, 10.0, elapsed, f"calibrated/raw = {ratio:.4f}, offset share = {offset_share:.4f}, worst |cal-truth| = {worst:.2e} W")


def test_criterion_04_cpu_offset(cpu_run):
    art, setup_s = cpu_run
    t0 = time.perf_counter()
    cfg = PRESETS["cpu-offset"]
    t_start, t_end = cfg.warmup_ms, cfg.warmup_ms + cfg.duration_ms
    raw_j = 0.0
    for mode in (MODE_DYNAMIC, MODE_IDLE):
        series = _counter(art, "bench", mode, "svc")
        raw_j += series.value_at(t_end) - series.value_at(t_start)
    cal_j = sum(_column(art, "ns.bench_dyn_w")) + sum(_column(art, "ns.bench_idle_w"))
    ratio = cal_j / raw_j
    assert ratio == pytest.approx(1.035, abs=0.003)
    elapsed = setup_s + time.perf_counter() - t0
    _finish(4, 10.0, elapsed, f"calibrated/raw = {ratio:.5f} (target 1.035 +- 0.003)")


def test_criterion_05_regression_recovery(tmp_path):
    t0 = time.perf_counter()
    noisy = run(PRESETS["regression"], tmp_path / "noisy").regression
    assert noisy is not None
    assert noisy.n >= 500
    assert 0.99 <= noisy.slope <= 1.03
    assert 4.23 <= noisy.intercept_w <= 6.23
    assert noisy.r2 >= 0.9
    clean_cfg = dataclasses.replace(
        PRESETS["regression"], approximation=ApproximationParams(1.01, 5.23, 0.0)
    )
    clean = run(clean_cfg, tmp_path / "clean").regression
    assert clean.slope == pytest.approx(1.01, abs=1e-9)
    assert clean.intercept_w == pytest.approx(5.23, abs=1e-9)
    assert clean.r2 >= 1 - 1e-9
    _finish(
        5,
        5.0,
        time.perf_counter() - t0,
        f"noisy fit slope={noisy.slope:.4f} intercept={noisy.intercept_w:.2f} r2={noisy.r2:.3f} n={noisy.n}; "
        f"noise-free recovers (1.01, 5.23) to 1e-9",
    )


def test_criterion_06_ratio_model_partition():
    t0 = time.perf_counter()
    rng = random.Random(606)
    for case in range(300):
        k = rng.randint(1, 10)
        all_zero = case % 10 == 0
        utils, requested = [], []
        for _ in range(k):
            utils.append(0.0 if all_zero else rng.uniform(0.0, 10.0))
            requested.append(rng.uniform(0.1, 5.0))
        dynamic, idle = rng.uniform(0.0, 500.0), rng.uniform(0.0, 300.0)
        dyn = dynamic_shares(dynamic, utils)
        assert sum(dyn) == pytest.approx(dynamic, rel=1e-9, abs=1e-9)
        idle_shares = requested_shares(idle, requested, sum(requested))
        assert sum(idle_shares) == pytest.approx(idle, rel=1e-9, abs=1e-9)
        assert even_shares(idle, k)[0] * k == pytest.approx(idle, rel=1e-9, abs=1e-9)
    shares = dynamic_shares(100.0, [10.0, 30.0, 60.0])
    assert shares == [10.0, 30.0, 60.0]
    _finish(6, 1.0, time.perf_counter() - t0, "dynamic/idle splits conserve node totals, even fallback included")


def test_criterion_07_counter_rate_oracle():
    t0 = time.perf_counter()
    store = MetricStore()
    p_w = 37.5
    joules = store.get_or_create("node_joules_total", {}, COUNTER)
    for t in range(0, 10_001, 500):
        joules.append((t, p_w * t / 1000.0))
    recovered = rate(joules, 10_000 - 2000, 10_000)
    assert recovered == pytest.approx(p_w, rel=1e-6)
    steps = store.get_or_create("step_joules_total", {}, COUNTER)
    steps.append((10_000, 100.0))
    steps.append((12_000, 160.0))
    assert rate(steps, 10_000, 12_000) == 30.0
    _finish(7, 1.0, time.perf_counter() - t0, f"moving average recovers {p_w} W; rate(100J@10s -> 160J@12s) == 30 W")


def test_criterion_08_settlement_conservation():
    t0 = time.perf_counter()
    rng = random.Random(808)
    battery = None
    charge_j = 0.0
    for step in range(1000):
        if step % 100 == 0:
            capacity = rng.uniform(100.0, 5000.0)
            battery = SimpleBattery(
                capacity_j=capacity,
                charge_j=rng.uniform(0.0, capacity),
                max_charge_rate_w=rng.uniform(10.0, 500.0),
                max_discharge_rate_w=rng.uniform(10.0, 500.0),
                efficiency=rng.uniform(0.5, 1.0),
            )
            charge_j = battery.charge_j
        delta_p = rng.uniform(-300.0, 300.0)
        storage_j, grid_j, charge_j = settle(battery, charge_j, delta_p, 1000)
        assert storage_j + grid_j == pytest.approx(delta_p * 1.0, rel=1e-9, abs=1e-9)
        assert 0.0 <= charge_j <= battery.capacity_j
    headroom = SimpleBattery(capacity_j=1000.0)
    assert settle(headroom, 0.0, 100.0, 60_000) == (1000.0, 5000.0, 1000.0)
    _finish(8, 1.0, time.perf_counter() - t0, "storage + grid == delta_p * dt over 10^3 random steps")


def test_criterion_09_meter_bound():
    t0 = time.perf_counter()
    spec = MeterSpec(relative_error_v=0.01, relative_error_i=0.015, relative_error_phi=0.01)
    assert spec.combined_error() == pytest.approx(0.035)
    rng = random.Random(909)
    worst = 0.0
    for _ in range(100_000):
        true_w = rng.uniform(1.0, 1000.0)
        measured = meter_sample(true_w, spec, rng)
        worst = max(worst, abs(measured - true_w) / true_w)
    assert worst <= 0.035 + 1e-12
    assert meter_sample(123.456, MeterSpec(), rng) == 123.456
    assert active_power(230.0, 2.0, 1.0) == 460.0
    _finish(9, 5.0, time.perf_counter() - t0, f"worst relative error {worst:.5f} <= 0.035 over 10^5 samples")


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    run(PRESETS["regression"], tmp_path / "a")
    run(PRESETS["regression"], tmp_path / "b")
    for name in ARTIFACT_NAMES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    _finish(10, 20.0, time.perf_counter() - t0, f"two seeded runs byte-identical across {len(ARTIFACT_NAMES)} artifacts")


def _brute_force_fit(xs, ys):
    """Grid-refinement SSE minimizer, independent of the closed form.

    Searches (slope, intercept) in mean-centered coordinates, where the
    two axes are independent; grid comparisons bottom out at the float
    noise floor of SSE around 1e-6, so the search finishes with one
    parabolic vertex step per axis at a spacing above that floor, which
    is exact for a quadratic.
    """
    x_bar, y_bar = xs.mean(), ys.mean()
    xc, yc = xs - x_bar, ys - y_bar
    s0, c0, span = 0.0, 0.0, 20_000.0
    for _ in range(12):
        ss = np.linspace(s0 - span, s0 + span, 21)
        cs = np.linspace(c0 - span, c0 + span, 21)
        sse = ((yc[None, None, :] - ss[:, None, None] * xc[None, None, :] - cs[None, :, None]) ** 2).sum(axis=2)
        i, j = np.unravel_index(int(np.argmin(sse)), sse.shape)
        s0, c0 = float(ss[i]), float(cs[j])
        span /= 4.0

    def sse_at(s, c):
        return float(((yc - s * xc - c) ** 2).sum())

    h = max(span, 1e-3)
    s0 -= h * (sse_at(s0 + h, c0) - sse_at(s0 - h, c0)) / (
        2 * (sse_at(s0 + h, c0) - 2 * sse_at(s0, c0) + sse_at(s0 - h, c0))
    )
    c0 -= h * (sse_at(s0, c0 + h) - sse_at(s0, c0 - h)) / (
        2 * (sse_at(s0, c0 + h) - 2 * sse_at(s0, c0) + sse_at(s0, c0 - h))
    )
    return s0, y_bar + c0 - s0 * x_bar


def test_criterion_11_ols_oracle():
    t0 = time.perf_counter()
    rng = random.Random(111)
    for _ in range(100):
        n = rng.randint(3, 12)
        xs = np.array([rng.uniform(0.0, 100.0) for _ in range(n)])
        while xs.max() - xs.min() < 5.0:
            xs = np.array([rng.uniform(0.0, 100.0) for _ in range(n)])
        ys = np.array([rng.uniform(-50.0, 50.0) for _ in range(n)])
        fit = fit_ols(xs, ys)
        slope, intercept = _brute_force_fit(xs, ys)
        assert fit.slope == pytest.approx(slope, abs=1e-6)
        assert fit.intercept_w == pytest.approx(intercept, abs=1e-6)
    exact = fit_ols([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])
    assert exact.slope == 1.5
    assert exact.intercept_w == pytest.approx(1 / 6, abs=1e-12)
    assert exact.r2 == pytest.approx(27 / 28, rel=1e-12)
    _finish(11, 5.0, time.perf_counter() - t0, "fit_ols matches grid-refined SSE minimum on 100 datasets")


def test_criterion_12_benchmark_lifecycle(cpu_run):
    art, setup_s = cpu_run
    t0 = time.perf_counter()
    starts = [(value, t) for action, value, t in art.events if action == "start"]
    ends = [(action, value, t) for action, value, t in art.events if action in ("stop", "complete")]
    assert [v for v, _ in starts] == [250.0 * k for k in range(1, 9)]
    assert len(ends) == 8
    assert [v for _, v, _ in ends] == [v for v, _ in starts]
    spans = {end_t - start_t for (_, start_t), (_, _, end_t) in zip(starts, ends)}
    assert spans == {600_000}
    assert [a for a, _, _ in ends] == ["stop"] * 7 + ["complete"]
    elapsed = setup_s + time.perf_counter() - t0
    _finish(12, 5.0, elapsed, "8 starts at 250..2000 rps, 8 stops, 600 s per iteration")
