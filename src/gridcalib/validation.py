"""Regression-based validation of approximated against measured power.

Approximated node power goes on the x axis, measured power on the y
axis; an ordinary-least-squares line then summarizes how far the
approximation sits from the ideal y = x. Residual statistics are
reported as absolute deviations from the fitted line.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateX, TooFewPoints


@dataclass(frozen=True)
class PairedObservation:
    time_ms: int
    x_w: float
    y_w: float

    def __post_init__(self):
        if not (math.isfinite(self.x_w) and math.isfinite(self.y_w)):
            raise ValueError(f"paired values must be finite, got ({self.x_w}, {self.y_w})")


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


def fit_ols(points: Sequence[PairedObservation]) -> RegressionReport:
    """Least-squares line through (x, y) with intercept.

    r2 follows the standard 1 - SSR/SST convention; a zero SST (all y
    identical) reports r2 = 1, the perfect trivial fit.
    """
    if len(points) < 2:
        raise TooFewPoints(f"need at least 2 points, got {len(points)}")
    x = np.array([p.x_w for p in points], dtype=float)
    y = np.array([p.y_w for p in points], dtype=float)
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
        n=len(points),
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
    points: Sequence[PairedObservation], report: RegressionReport
) -> Iterator[tuple[float, float, float, float]]:
    """Plot-ready rows under PLOT_HEADER: every point with its fitted value
    and residual."""
    for p in points:
        fitted = report.slope * p.x_w + report.intercept_w
        yield p.x_w, p.y_w, fitted, p.y_w - fitted
