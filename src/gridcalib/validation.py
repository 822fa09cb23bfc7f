"""Regression-based validation of approximated against measured power.

Approximated node power goes on the x axis, measured power on the y
axis; an ordinary-least-squares line then summarizes how far the
approximation sits from the ideal y = x. Residual statistics are
reported as absolute deviations from the fitted line.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateX, TooFewPoints


@dataclass(frozen=True)
class RegressionReport:
    slope: float
    intercept_w: float
    r2: float
    residual_median_w: float
    residual_max_w: float
    n: int


@dataclass(frozen=True)
class IdealComparison:
    """Deviation of a fit from the ideal line y = x, with verdicts."""

    slope_delta: float
    intercept_w: float
    r2: float
    slope_ok: bool
    intercept_ok: bool
    r2_ok: bool

    @property
    def ok(self) -> bool:
        return self.slope_ok and self.intercept_ok and self.r2_ok


def fit_ols(x, y) -> RegressionReport:
    """Least-squares line through the points (x[i], y[i]) with intercept.

    x and y are equal-length float sequences or arrays, every value
    finite. r2 follows the standard 1 - SSR/SST convention; a zero SST
    (all y identical) reports r2 = 1, the perfect trivial fit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.isfinite(np.stack((x, y))).all():  # stack also rejects unequal lengths
        raise ValueError("paired values must be finite")
    if len(x) < 2:
        raise TooFewPoints(f"need at least 2 points, got {len(x)}")
    dx = x - x.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise DegenerateX("all x values identical; slope undefined")
    slope = float(np.dot(dx, y - y.mean()) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (slope * x + intercept)
    sst = float(np.dot(y - y.mean(), y - y.mean()))
    ssr = float(np.dot(residuals, residuals))
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    return RegressionReport(
        slope=slope,
        intercept_w=intercept,
        r2=r2,
        residual_median_w=float(np.median(np.abs(residuals))),
        residual_max_w=float(np.max(np.abs(residuals))),
        n=len(x),
    )


def compare_to_ideal(
    report: RegressionReport,
    slope_tolerance: float = 0.05,
    intercept_tolerance_w: float = 10.0,
    r2_min: float = 0.9,
) -> IdealComparison:
    """How far the fit sits from y = x, judged against tolerances."""
    slope_delta = report.slope - 1.0
    return IdealComparison(
        slope_delta=slope_delta,
        intercept_w=report.intercept_w,
        r2=report.r2,
        slope_ok=abs(slope_delta) <= slope_tolerance,
        intercept_ok=abs(report.intercept_w) <= intercept_tolerance_w,
        r2_ok=report.r2 >= r2_min,
    )


def report_to_json(report: RegressionReport) -> str:
    return json.dumps(asdict(report), sort_keys=True)


PLOT_HEADER = ["x_w", "y_w", "fitted_w", "residual_w"]


def plot_rows(
    x: np.ndarray, y: np.ndarray, report: RegressionReport
) -> Iterator[tuple[float, float, float, float]]:
    """Plot-ready rows under PLOT_HEADER: every point with its fitted value
    and residual, as Python floats."""
    fitted = report.slope * x + report.intercept_w
    return zip(x.tolist(), y.tolist(), fitted.tolist(), (y - fitted).tolist())
