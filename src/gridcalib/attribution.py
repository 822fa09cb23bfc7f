"""Ratio-based splitting of node power across processes.

Dynamic power is shared in proportion to resource utilization; idle power
is shared either evenly (the default) or in proportion to requested
resources. All functions are pure and operate per resource class: when a
node exposes several classes (CPU, DRAM, accelerator), run the split once
per class and sum the per-process shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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
    """Share node dynamic power in proportion to utilization.

    When the utilization sum is zero (or negligibly small relative to the
    dynamic power) the budget is divided evenly instead, so idle-looking
    intervals still account for the full dynamic draw.
    """
    procs = _unique_ids(procs)
    if not procs:
        raise EmptyProcessSet("cannot split dynamic power over zero processes")
    total = sum(p.util for p in procs)
    if total <= FALLBACK_UNDERFLOW * node.dynamic or total == 0.0:
        even = node.dynamic / len(procs)
        return {p.process_id: even for p in procs}
    return {p.process_id: node.dynamic * p.util / total for p in procs}


def split_idle_even(node: NodePower, count: int) -> float:
    """Even share of node idle power over `count` processes."""
    if count < 1:
        raise ZeroProcesses(f"process count must be at least 1, got {count}")
    return node.idle / count


def split_idle_requested(
    node: NodePower, procs: list[ProcessUtilization]
) -> dict[str, float]:
    """Share node idle power in proportion to requested resources."""
    procs = _unique_ids(procs)
    if not procs:
        raise EmptyProcessSet("cannot split idle power over zero processes")
    if node.total_requested <= 0:
        raise ZeroTotalRequest(
            f"total_requested must be positive, got {node.total_requested}"
        )
    return {
        p.process_id: node.idle * p.requested / node.total_requested for p in procs
    }
