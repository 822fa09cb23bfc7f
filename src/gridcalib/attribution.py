"""Ratio-based splitting of node power across processes.

Dynamic power is shared in proportion to resource utilization; idle power
is shared either evenly (the default) or in proportion to requested
resources. All functions are pure and operate per resource class: when a
node exposes several classes (CPU, DRAM, accelerator), run the split once
per class and sum the per-process shares.

The split is written once over plain float lists, for callers that run
it every tick; the split_* functions over ProcessUtilization and
NodePower are the validating boundary to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyProcessSet, ZeroProcesses, ZeroTotalRequest

# below this fraction of node dynamic power, a utilization sum is treated
# as zero so denormal ratios cannot blow up a share
FALLBACK_UNDERFLOW = 1e-12


def _check_non_negative(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{what} must be finite and non-negative, got {value!r}")
    return value


@dataclass(frozen=True)
class ProcessUtilization:
    """One process's utilization and requested share of a resource class."""

    process_id: str
    util: float
    requested: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "util", _check_non_negative(self.util, "util"))
        object.__setattr__(
            self, "requested", _check_non_negative(self.requested, "requested")
        )


@dataclass(frozen=True)
class NodePower:
    """Node-level power split into a dynamic and an idle component."""

    dynamic: float
    idle: float
    total_requested: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "dynamic", _check_non_negative(self.dynamic, "dynamic"))
        object.__setattr__(self, "idle", _check_non_negative(self.idle, "idle"))
        object.__setattr__(
            self,
            "total_requested",
            _check_non_negative(self.total_requested, "total_requested"),
        )


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


def _unique_ids(procs: Iterable[ProcessUtilization]) -> list[ProcessUtilization]:
    procs = list(procs)
    seen: set[str] = set()
    for p in procs:
        if p.process_id in seen:
            raise ValueError(f"duplicate process_id {p.process_id!r}")
        seen.add(p.process_id)
    return procs


def split_dynamic(
    node: NodePower, procs: list[ProcessUtilization]
) -> dict[str, float]:
    """dynamic_shares keyed by process id."""
    procs = _unique_ids(procs)
    if not procs:
        raise EmptyProcessSet("cannot split dynamic power over zero processes")
    shares = dynamic_shares(node.dynamic, [p.util for p in procs])
    return dict(zip([p.process_id for p in procs], shares))


def split_idle_even(node: NodePower, count: int) -> float:
    """Even share of node idle power over `count` processes."""
    if count < 1:
        raise ZeroProcesses(f"process count must be at least 1, got {count}")
    return node.idle / count


def split_idle_requested(
    node: NodePower, procs: list[ProcessUtilization]
) -> dict[str, float]:
    """requested_shares keyed by process id."""
    procs = _unique_ids(procs)
    if not procs:
        raise EmptyProcessSet("cannot split idle power over zero processes")
    if node.total_requested <= 0:
        raise ZeroTotalRequest(
            f"total_requested must be positive, got {node.total_requested}"
        )
    shares = requested_shares(node.idle, [p.requested for p in procs], node.total_requested)
    return dict(zip([p.process_id for p in procs], shares))
