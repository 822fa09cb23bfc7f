"""Ratio-based splitting of node power across processes.

Dynamic power is shared in proportion to resource utilization; idle power
is shared either evenly (the default) or in proportion to requested
resources. All functions are pure and operate per resource class: when a
node exposes several classes (CPU, DRAM, accelerator), run the split once
per class and sum the per-process shares.

This is the even/requested ratio split of Kepler (Amaral et al., IEEE
CLOUD 2023), written once over plain float lists in process order: the
emitter runs it every tick, and nothing builds an object per process.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# below this fraction of node dynamic power, a utilization sum is treated
# as zero so denormal ratios cannot blow up a share
FALLBACK_UNDERFLOW = 1e-12


def left_sum(values: Iterable[float]) -> float:
    """Sum added left to right from 0.0. sum() is not used for watts:
    from Python 3.12 it compensates float rounding, so its bits would
    depend on the interpreter. Works on numpy columns as well as floats."""
    total = 0.0
    for value in values:
        total = total + value
    return total


def even_shares(power: float, count: int) -> list[float]:
    """power divided evenly over count processes."""
    return [power / count] * count


def dynamic_shares(dynamic: float, utils: Sequence[float]) -> list[float]:
    """Share dynamic power in proportion to utilization.

    When the utilization sum is zero (or negligibly small relative to the
    dynamic power) the budget is divided evenly instead, so idle-looking
    intervals still account for the full dynamic draw.
    """
    total = left_sum(utils)
    if total <= FALLBACK_UNDERFLOW * dynamic or total == 0.0:
        return even_shares(dynamic, len(utils))
    return [dynamic * u / total for u in utils]


def requested_shares(
    idle: float, requested: Sequence[float], total_requested: float
) -> list[float]:
    """Share idle power in proportion to requested resources."""
    return [idle * r / total_requested for r in requested]
