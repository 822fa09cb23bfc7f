"""Correctness checks on one run's artifact directory.

Each check returns a list of failure messages; an empty list passes.
run.py counts every failure against the repetitions attempted.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from gridcalib import pipeline
from gridcalib.emulation import SYSTEM_PROCESS_ID
from gridcalib.wire import SYSTEM_NAMESPACE

ARTIFACT_CHECKS = ("artifacts_exist", "validate", "settlement", "namespace_sums")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact that exists, by name."""
    return {
        name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
        for name in pipeline.ARTIFACT_NAMES
        if (Path(out_dir) / name).is_file()
    }


def settlement(monitor_csv: Path, config: dict) -> list[str]:
    """storage_delta_j + grid_exchange_j == delta_p_w * dt on every tick."""
    dt_ms = config.get("dt_ms", 1000)
    bad = []
    with open(monitor_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            energy = float(row["delta_p_w"]) * dt_ms / 1000.0
            settled = float(row["storage_delta_j"]) + float(row["grid_exchange_j"])
            if not _close(settled, energy):
                bad.append(f"tick {row['t']}: {settled!r} J settled, {energy!r} J due")
    return [f"settlement not conserved on {len(bad)} ticks, first {bad[0]}"] if bad else []


def namespace_sums(calibrated_csv: Path, config: dict) -> list[str]:
    """Each ns.<namespace> column equals the sum of its processes."""
    members: dict[str, list[str]] = {}
    for w in config.get("workloads", []):
        members.setdefault(w["namespace"], []).append(w["process_id"])
    if members:
        members.setdefault(SYSTEM_NAMESPACE, []).append(SYSTEM_PROCESS_ID)
    bad = []
    with open(calibrated_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            for ns, pids in members.items():
                for mode in ("dyn", "idle"):
                    column = f"ns.{ns}_{mode}_w"
                    total = sum(float(row[f"{pid}_{mode}_w"]) for pid in pids)
                    if not _close(float(row[column]), total):
                        bad.append(f"t={row['time_ms']} {column}: {row[column]} != {total!r}")
    return [f"namespace columns off on {len(bad)} cells, first {bad[0]}"] if bad else []


def check_artifacts(out_dir: Path, config: dict) -> list[str]:
    """Run every ARTIFACT_CHECKS entry on one run directory."""
    out = Path(out_dir)
    missing = [name for name in pipeline.ARTIFACT_NAMES if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    failures = []
    for name, check, arg in (
        ("validate", _validate, out),
        ("settlement", settlement, out / pipeline.MONITOR_CSV),
        ("namespace_sums", namespace_sums, out / pipeline.CALIBRATED_CSV),
    ):
        try:
            failures += check(arg, config)
        except Exception as exc:  # a corrupt artifact fails its check, not the benchmark
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return failures


def _validate(out: Path, config: dict) -> list[str]:
    pipeline.validate(out)  # raises when the stored fit disagrees with its points
    return []
