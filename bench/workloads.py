"""Benchmark inputs, generated from the --seed.

A workload is a scenario config (the JSON that `gridcalib run` accepts)
plus the traffic of its serve phase: how many /metrics and /query
requests the closed-loop client sends, and the query expressions it
cycles through. `scrape` also describes the exporter-shaped store it
serves. A run makes a fixed number of repetitions, set by --seconds.
The program under test only sees the generated config and samples,
never the seed.
"""

from __future__ import annotations

import random

from gridcalib.config import config_to_dict, preset_config
from gridcalib.timeseries import COUNTER, GAUGE, MetricStore
from gridcalib.wire import (
    METER_GAUGE_METRIC,
    MODE_DYNAMIC,
    MODE_IDLE,
    MODE_LABEL,
    NAMESPACE_LABEL,
    POWER_COUNTER_METRIC,
    PROCESS_LABEL,
)

# BENCHMARK.json gates leakage-long and scrape. fanout-128 and
# emit-dense run by hand only: on the reference machine their figures
# spread past the largest bound the benchmark may set (see README.md).
WORKLOADS = ("leakage-long", "fanout-128", "emit-dense", "scrape")

# Nominal wall seconds of one full-size repetition on the reference
# machine. With --seconds they fix how many repetitions a run makes, so
# the count is the same on every commit measured with the same benchmark.
REP_S = {"leakage-long": 2.7, "fanout-128": 15.0, "emit-dense": 7.5, "scrape": 16.0}
MIN_REPS = 2  # two runs of the seed to compare byte for byte
# a repetition's p99 needs at least ten samples beyond it, so every
# repetition sends 1000 requests of each kind and runs at least 1000 steps
REQUESTS = {"full": 1000, "tiny": 10}
SCRAPE_FILL = {
    "full": {"processes": 512, "namespaces": 8, "samples": 600, "interval_ms": 1000},
    "tiny": {"processes": 16, "namespaces": 8, "samples": 30, "interval_ms": 1000},
}
TINY_TICKS = 40


def dynamic_query(namespace: str) -> str:
    """The namespace-dynamic query a calibration actor issues."""
    return (
        f'sum(rate({POWER_COUNTER_METRIC}{{{NAMESPACE_LABEL}="{namespace}",'
        f'{MODE_LABEL}="{MODE_DYNAMIC}"}}[2s]))'
    )


def _schedule(ticks: int) -> dict:
    # the eight-step rps escalation spans the run and ends one step early,
    # so the tail records the completed benchmark
    return {"kind": "rps", "runtime_ms": max(1000, (ticks // 8 - 1) * 1000)}


def _gpu_leakage(seed: int, size: str) -> dict:
    config = config_to_dict(preset_config("gpu-leakage"))
    config["seed"] = seed
    config["meter"]["seed"] = seed
    if size == "tiny":
        config["duration_ms"] = TINY_TICKS * 1000
        config["schedule"]["runtime_ms"] = _schedule(TINY_TICKS)["runtime_ms"]
    return config


def sweep_config(n_workloads: int, ticks: int, seed: int, leakage_lambda: float) -> dict:
    """n service workloads spread over up to four namespaces, one
    namespace actor each, under the `regression` preset's error model."""
    rng = random.Random(f"{seed}:sweep:{n_workloads}")
    namespaces = [f"ns{i}" for i in range(min(n_workloads, 4))]
    workloads = [
        {
            "process_id": f"w{i:03d}",
            "kind": "service",
            "namespace": namespaces[i % len(namespaces)],
            "idle_share_w": rng.uniform(5.0, 30.0),
            "dyn_coeff_w": rng.uniform(0.01, 0.04),
            "load_knob": "rps",
            "leakage_lambda": leakage_lambda,
        }
        for i in range(n_workloads)
    ]
    return {
        "duration_ms": ticks * 1000,
        "seed": seed,
        "system_baseline_w": 2.0,
        "workloads": workloads,
        "schedule": _schedule(ticks),
        "approximation": {"gain": 1.01, "bias_w": 5.23, "sigma_w": 1.0},
        "actors": [{"type": "namespace", "namespace": ns} for ns in namespaces],
    }


def emit_dense_config(n_workloads: int, ticks: int, seed: int) -> dict:
    """Write-heavy: ten emissions per tick into one namespace, with a
    static producer and a battery so settlement charges, discharges and
    hits both its rate limits and its capacity."""
    rng = random.Random(f"{seed}:emit-dense")
    workloads = [
        {
            "process_id": f"d{i:02d}",
            "kind": "service",
            "namespace": "dense",
            "idle_share_w": rng.uniform(2.0, 8.0),
            "dyn_coeff_w": rng.uniform(0.01, 0.03) * 32 / n_workloads,
            "load_knob": "rps",
            "noise_sigma_w": 0.5,
        }
        for i in range(n_workloads)
    ]
    return {
        "duration_ms": ticks * 1000,
        "seed": seed,
        "emission_interval_ms": 100,
        "system_baseline_w": 2.0,
        "workloads": workloads,
        "schedule": _schedule(ticks),
        "approximation": {"gain": 1.02, "bias_w": 3.0, "sigma_w": 0.5},
        "actors": [
            {"type": "namespace", "namespace": "dense"},
            {"type": "static", "actor_id": "pv", "power_w": 700.0},
        ],
        "storage": {
            "capacity_j": 50_000.0,
            "charge_j": 25_000.0,
            "max_charge_rate_w": 300.0,
            "max_discharge_rate_w": 300.0,
            "efficiency": 0.9,
        },
    }


def repetitions(workload: str, seconds: float, size: str = "full") -> int:
    """How many repetitions a run of `workload` makes in --seconds."""
    if size == "tiny":
        return MIN_REPS
    return max(MIN_REPS, round(seconds / REP_S[workload]))


def build(workload: str, seed: int, size: str, seconds: float) -> dict:
    """Everything the repetitions of a run of `workload` need, as plain JSON."""
    tiny = size == "tiny"
    fill = None
    if workload == "leakage-long":
        config = _gpu_leakage(seed, size)
        namespaces = ["bench"]
    elif workload == "fanout-128":
        config = sweep_config(8 if tiny else 128, TINY_TICKS if tiny else 1000, seed, 0.1)
        namespaces = [f"ns{i}" for i in range(4)]
    elif workload == "emit-dense":
        config = emit_dense_config(4 if tiny else 32, TINY_TICKS if tiny else 1000, seed)
        namespaces = ["dense"]
    elif workload == "scrape":
        # the run phase is a one-workload scenario, long enough to time;
        # the served store is the exporter fill
        config = sweep_config(1, TINY_TICKS if tiny else 12000, seed, 0.0)
        fill = SCRAPE_FILL[size]
        namespaces = [f"ns{i}" for i in range(fill["namespaces"])]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return {
        "workload": workload,
        "seed": seed,
        "config": config,
        "fill": fill,
        "repetitions": repetitions(workload, seconds, size),
        "requests": REQUESTS[size],
        "queries": [dynamic_query(ns) for ns in namespaces],
    }


def fill_store(store: MetricStore, fill: dict, seed: int) -> None:
    """Append exporter-shaped samples through MetricStore.append, one
    scrape interval at a time: a dynamic and an idle joules counter per
    process, then the meter gauge."""
    rng = random.Random(f"{seed}:scrape")
    series = []
    for p in range(fill["processes"]):
        labels = {NAMESPACE_LABEL: f"ns{p % fill['namespaces']}", PROCESS_LABEL: f"p{p:04d}"}
        series.append(({**labels, MODE_LABEL: MODE_DYNAMIC}, rng.uniform(0.5, 20.0)))
        series.append(({**labels, MODE_LABEL: MODE_IDLE}, rng.uniform(0.5, 5.0)))
    joules = [0.0] * len(series)
    dt_s = fill["interval_ms"] / 1000.0
    for k in range(fill["samples"]):
        t = k * fill["interval_ms"]
        node_w = 0.0
        for i, (labels, watts) in enumerate(series):
            w = watts * (0.5 + rng.random())
            node_w += w
            joules[i] += w * dt_s
            store.append(POWER_COUNTER_METRIC, labels, COUNTER, (t, joules[i]))
        store.append(METER_GAUGE_METRIC, {}, GAUGE, (t, node_w * 1.02 + 5.0))
