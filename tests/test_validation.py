"""Least-squares fitting and ideal-line comparison."""

import json
import math
import random
from typing import NamedTuple

import numpy as np
import pytest

from gridcalib.errors import DegenerateX, TooFewPoints
from gridcalib.ticklog import csv_bytes
from gridcalib.validation import (
    PLOT_HEADER,
    RegressionReport,
    compare_to_ideal,
    fit_ols,
    plot_rows,
    report_to_json,
)


class Point(NamedTuple):
    time_ms: int
    x_w: float
    y_w: float


def obs(xy_pairs):
    return [Point(time_ms=i * 1000, x_w=float(x), y_w=float(y)) for i, (x, y) in enumerate(xy_pairs)]


def columns(points):
    """The x and y columns fit_ols and plot_rows take."""
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
        lines = csv_bytes(PLOT_HEADER, plot_rows(*columns(points), report)).decode().split("\r\n")
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
