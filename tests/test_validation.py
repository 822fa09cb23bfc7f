"""Least-squares fitting and ideal-line comparison."""

import json
import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcalib.errors import DegenerateX, TooFewPoints
from gridcalib.ticklog import columns_csv
from gridcalib.validation import (
    PLOT_HEADER,
    RegressionReport,
    _dot,
    compare_to_ideal,
    fit_ols,
    report_to_json,
    sorted_median,
)


class Point(NamedTuple):
    time_ms: int
    x_w: float
    y_w: float


def obs(xy_pairs):
    return [Point(time_ms=i * 1000, x_w=float(x), y_w=float(y)) for i, (x, y) in enumerate(xy_pairs)]


def columns(points):
    """The x and y columns fit_ols takes."""
    return np.array([p.x_w for p in points]), np.array([p.y_w for p in points])


def fit(points):
    return fit_ols(*columns(points))


class TestFitOls:
    def test_exact_line_with_offset(self):
        report = fit(obs([(1, 6), (2, 7), (3, 8)]))
        assert report.slope == pytest.approx(1.0, abs=1e-12)
        assert report.intercept_w == pytest.approx(5.0, abs=1e-12)
        assert report.r2 == pytest.approx(1.0, abs=1e-12)
        assert report.residual_max_w == pytest.approx(0.0, abs=1e-12)
        assert report.n == 3

    def test_hand_computed_fit(self):
        report = fit(obs([(0, 0), (1, 2), (2, 3)]))
        assert report.slope == pytest.approx(1.5, abs=1e-12)
        assert report.intercept_w == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert report.r2 == pytest.approx(27.0 / 28.0, abs=1e-12)
        assert report.residual_median_w == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert report.residual_max_w == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_flat_y_is_a_perfect_trivial_fit(self):
        report = fit(obs([(0, 5), (1, 5), (2, 5)]))
        assert report.slope == 0.0
        assert report.intercept_w == 5.0
        assert report.r2 == 1.0

    def test_uncorrelated_y_scores_zero(self):
        # symmetric y around its mean with symmetric x: slope 0, r2 0
        report = fit(obs([(0, 1), (1, -1), (2, -1), (3, 1)]))
        assert report.slope == pytest.approx(0.0, abs=1e-12)
        assert report.r2 == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            fit(obs([(2, 1), (2, 5), (2, 9)]))

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            fit(obs([(1, 1)]))
        with pytest.raises(TooFewPoints):
            fit_ols([], [])

    def test_affine_recovery(self):
        rng = random.Random(4)
        for _ in range(50):
            a = rng.uniform(-3, 3)
            b = rng.uniform(-100, 100)
            xs = sorted(rng.uniform(0, 500) for _ in range(rng.randint(2, 40)))
            if max(xs) - min(xs) < 1e-6:
                continue
            report = fit(obs([(x, a * x + b) for x in xs]))
            assert report.slope == pytest.approx(a, abs=1e-9)
            assert report.intercept_w == pytest.approx(b, abs=1e-9)
            assert report.r2 == pytest.approx(1.0, abs=1e-9)

    def test_shift_and_scale_behavior(self):
        base = [(1, 2.0), (2, 2.5), (3, 5.0), (4, 4.0), (6, 9.0)]
        ref = fit(obs(base))
        shifted = fit(obs([(x, y + 17.0) for x, y in base]))
        assert shifted.slope == pytest.approx(ref.slope, rel=1e-12)
        assert shifted.intercept_w == pytest.approx(ref.intercept_w + 17.0, rel=1e-12)
        scaled = fit(obs([(x * 4.0, y) for x, y in base]))
        assert scaled.slope == pytest.approx(ref.slope / 4.0, rel=1e-12)
        assert scaled.r2 == pytest.approx(ref.r2, rel=1e-12)

    def test_signed_residuals_sum_to_zero(self):
        rng = random.Random(8)
        points = obs([(rng.uniform(0, 100), rng.uniform(0, 400)) for _ in range(200)])
        report = fit(points)
        total = sum(p.y_w - (report.slope * p.x_w + report.intercept_w) for p in points)
        assert abs(total) <= 1e-9 * len(points)

    def test_closed_form_is_the_grid_minimum(self):
        # brute-force oracle: on a grid of (slope, intercept) offsets around
        # the closed-form solution, the center must have the smallest SSE
        rng = random.Random(13)
        offsets = [(-0.5 + i * 0.05) for i in range(21)]
        for _ in range(100):
            points = obs(
                [(rng.uniform(0, 50), rng.uniform(-20, 80)) for _ in range(rng.randint(3, 30))]
            )
            try:
                report = fit(points)
            except DegenerateX:
                continue

            def sse(slope, intercept):
                return sum((p.y_w - slope * p.x_w - intercept) ** 2 for p in points)

            center = sse(report.slope, report.intercept_w)
            for ds in offsets:
                for di in offsets:
                    assert center <= sse(report.slope + ds, report.intercept_w + di) + 1e-6


def verdicts(slope, intercept_w, r2, **tolerances):
    report = RegressionReport(
        slope=slope, intercept_w=intercept_w, r2=r2,
        residual_median_w=0.0, residual_max_w=0.0, n=10,
    )
    cmp = compare_to_ideal(report, **tolerances)
    return (cmp.slope_ok, cmp.intercept_ok, cmp.r2_ok)


class TestCompareToIdeal:
    def test_published_style_deviations(self):
        assert verdicts(1.01, 5.23, 0.99) == (True, True, True)

    def test_ideal_line(self):
        assert verdicts(1.0, 0.0, 1.0) == (True, True, True)

    def test_out_of_tolerance_verdicts(self):
        assert verdicts(0.9, 20.0, 0.5) == (False, False, False)

    def test_verdicts_at_tolerance_boundaries(self):
        # each bound is inclusive; the tolerances are exact binary fractions
        tol = dict(slope_tolerance=0.25, intercept_tolerance_w=10.0, r2_min=0.75)
        assert verdicts(1.25, 10.0, 0.75, **tol) == (True, True, True)
        assert verdicts(0.75, -10.0, 0.75, **tol) == (True, True, True)
        step = 2.0 ** -40
        assert verdicts(1.25 + step, 10.0 + step, 0.75 - step, **tol) == (False, False, False)
        assert verdicts(0.75 - step, -10.0 - step, 0.75, **tol) == (False, False, True)


class TestSerialization:
    def test_report_json_fields(self):
        report = fit(obs([(0, 0), (1, 2), (2, 3)]))
        data = json.loads(report_to_json(report))
        assert set(data) == {
            "slope", "intercept_w", "r2", "residual_median_w", "residual_max_w", "n",
        }
        assert data["n"] == 3
        assert data["slope"] == pytest.approx(1.5)

    def test_plot_csv_layout(self):
        points = obs([(1, 6), (2, 7), (3, 8)])
        report = fit(points)
        x, y = columns(points)
        fitted = report.slope * x + report.intercept_w
        lines = columns_csv(PLOT_HEADER, [x, y, fitted, y - fitted]).decode().split("\r\n")
        assert lines[0] == "x_w,y_w,fitted_w,residual_w"
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[1]) == 6.0
        assert float(first[2]) == pytest.approx(6.0)
        assert float(first[3]) == pytest.approx(0.0)

    def test_non_finite_pair_rejected(self):
        with pytest.raises(ValueError):
            fit_ols([0.0, math.nan, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_ols([0.0, 1.0, 2.0], [1.0, math.inf, 3.0])


def bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestKernels:
    """The median and dot product fit_ols takes in place of np.median and np.dot."""

    @pytest.mark.parametrize("n", [*range(1, 12), 99, 100, 101, 1000, 1001, 4999, 5000])
    def test_sorted_median_is_np_median(self, n):
        rng = np.random.default_rng(n)
        pool = np.array([-0.0, 0.0, 5e-324, 0.1, 0.2, 0.30000000000000004, 1.5, -2.25, 1e16,
                         1.7976931348623157e308, -1.7976931348623157e308])
        for values in (
            rng.choice(pool, size=n),  # mostly duplicates
            rng.choice(rng.normal(size=max(1, n // 3)), size=n),
            np.abs(rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)),
        ):
            assert bits(sorted_median(values)) == bits(np.median(values))

    @pytest.mark.parametrize("values", [[-0.0], [-0.0, -0.0], [1.0, -0.0, -0.0], [-0.0, -0.0, 0.0, 2.0]])
    def test_sorted_median_of_negative_zeros(self, values):
        assert bits(sorted_median(np.array(values))) == bits(np.median(values)) == bits(0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60))
    def test_sorted_median_any_finite_floats(self, values):
        values = np.array(values + values[: len(values) // 2])  # duplicates
        with np.errstate(over="ignore"):  # two middle values near the float max
            assert bits(sorted_median(values)) == bits(np.median(values))

    # numpy's pairwise sum adds the products in blocks of 128; the
    # lengths around 10000 are where OpenBLAS would split a dot product
    # across threads
    @pytest.mark.parametrize("n", [1, 2, 9999, 10_000, 10_001, 20_000, 20_007])
    def test_dot_over_chunks_covers_every_entry_once(self, n):
        a, b = np.random.default_rng(n).normal(size=(2, n))
        assert _dot(a, b) == pytest.approx(math.fsum(a * b), rel=1e-12)
        assert _dot(a[:-1], a[1:]) == pytest.approx(math.fsum(a[:-1] * a[1:]), rel=1e-12)
