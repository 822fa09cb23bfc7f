"""Regression-based validation of approximated against measured power.

Approximated node power goes on the x axis, measured power on the y
axis; an ordinary-least-squares line then summarizes how far the
approximation sits from the ideal y = x. Residual statistics are
reported as absolute deviations from the fitted line.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

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
    """Verdicts on how far a fit sits from the ideal line y = x."""

    slope_ok: bool
    intercept_ok: bool
    r2_ok: bool


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b as numpy's own pairwise sum of the products. np.dot would run
    OpenBLAS, whose last bits depend on the CPU kernel it picks at load
    time and on its thread count."""
    return float(np.add.reduce(np.multiply(a, b)))


def sorted_median(values: np.ndarray) -> float:
    """np.median of a non-empty float array, bit for bit: the mean of the
    middle value or two, added from 0.0 as np.mean adds (so -0.0 reads
    0.0). np.median itself imports numpy.ma on its first call."""
    s = np.sort(values)
    k = len(s) // 2
    return float(0.0 + s[k] if len(s) % 2 else (0.0 + s[k - 1] + s[k]) / 2)


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
    sxx = _dot(dx, dx)
    if sxx == 0.0:
        raise DegenerateX("all x values identical; slope undefined")
    slope = _dot(dx, y - y.mean()) / sxx
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (slope * x + intercept)
    sst = _dot(y - y.mean(), y - y.mean())
    ssr = _dot(residuals, residuals)
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    return RegressionReport(
        slope=slope,
        intercept_w=intercept,
        r2=r2,
        residual_median_w=sorted_median(np.abs(residuals)),
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
    return IdealComparison(
        slope_ok=abs(report.slope - 1.0) <= slope_tolerance,
        intercept_ok=abs(report.intercept_w) <= intercept_tolerance_w,
        r2_ok=report.r2 >= r2_min,
    )


def report_to_json(report: RegressionReport) -> str:
    return json.dumps(asdict(report), sort_keys=True)


PLOT_HEADER = ["x_w", "y_w", "fitted_w", "residual_w"]
