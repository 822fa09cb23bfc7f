"""The benchmark's own tests: python3 -m pytest bench/tests -q

They run every workload at the tiny size, so they take a few seconds
each, and they never run as part of the package's test suite.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, block_median, end_to_end  # noqa: E402

from gridcalib import pipeline  # noqa: E402
from gridcalib.config import parse_config  # noqa: E402


def run_bench(workload: str, seed: int = 3, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def bench_result(workload: str, seed: int = 3, trace: int = 0) -> tuple[dict, dict]:
    proc = run_bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    work = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}"
    return result, json.loads((work / "record.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_at_tiny_size(workload):
    result, record = bench_result(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert sorted(record["artifact_sha256"]) == sorted(pipeline.ARTIFACT_NAMES)


def test_traced_run_reports_every_per_layer_metric():
    result, record = bench_result("emit-dense", trace=1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["timeseries.append.calls"] > 0 and values["microgrid.settle.calls"] == 40
    assert values["server.exposition.bytes"] > 0 and values["error_rate"] == 0
    assert "run_s" in record["tracing_overhead"]
    assert [r["mode"] for r in record["repetitions"]][:2] == ["plain", "traced"]


def test_one_seed_gives_identical_digests_twice():
    first = bench_result("fanout-128", seed=5)[1]["artifact_sha256"]
    second = bench_result("fanout-128", seed=5)[1]["artifact_sha256"]
    other = bench_result("fanout-128", seed=6)[1]["artifact_sha256"]
    assert first == second
    assert first["ground_truth.csv"] != other["ground_truth.csv"]


def test_benchmark_json_names_what_the_harness_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["bench"]
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END
    layer_names = [m["name"] for m in declared["per_layer"]]
    assert set(layer_names) == set(tracing.per_layer_metrics(tracing.Tracer())) | {"error_rate"}
    assert all(m["unit"] == tracing.unit_of(m["name"]) for m in declared["per_layer"])


def test_block_median_follows_the_average_speed():
    # 600 steps at one speed, then 400 at half that speed: a pooled
    # median reads the fast speed alone, the block median the average
    steps = [1.0] * 600 + [2.0] * 400
    assert sorted(steps)[len(steps) // 2] == 1.0
    assert block_median([steps]) == pytest.approx(1.4)
    assert block_median([[3.0, 1.0, 2.0]]) == 2.0  # fewer than a block: the median


def test_a_slow_repetition_does_not_move_the_medians():
    def rep(scale):
        return {"setup_s": 0.2 * scale, "run_s": 1.0 * scale, "postpass_s": 0.3 * scale,
                "step_ns": [1000.0 * scale * (1 + i % 100) for i in range(1000)],
                "peak_rss_mb": 50.0, "scrape_ms": [scale] * 1000, "query_ms": [scale] * 1000}

    steady = end_to_end([rep(1.0)] * 3)
    figures = end_to_end([rep(1.0)] * 3 + [rep(5.0)])
    for name in ("setup_s", "run_s", "postpass_s", "tick_us_p99", "scrape_ms_p99"):
        assert figures[name] == pytest.approx(steady[name]), name
    assert figures["tick_us_p50"] > steady["tick_us_p50"]  # the p50 follows the average speed


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("leakage-long", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- the checks flag corrupted artifacts ------------------------------------


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    config = workloads.build("emit-dense", 3, "tiny", 1.0)["config"]
    out = tmp_path_factory.mktemp("clean")
    pipeline.run(parse_config(json.loads(json.dumps(config))), out)
    return out, config


def _edit_csv(path: Path, row: int, column: str, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(change(float(rows[row + 1][col])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_checks_pass_on_a_clean_run(clean_run):
    out, config = clean_run
    assert checks.check_artifacts(out, config) == []


@pytest.mark.parametrize(
    "corrupt, expect",
    [
        (lambda d: _edit_csv(d / pipeline.MONITOR_CSV, 5, "grid_exchange_j", lambda v: v + 1.0),
         "settlement not conserved"),
        (lambda d: _edit_csv(d / pipeline.CALIBRATED_CSV, 5, "ns.dense_dyn_w", lambda v: v * 1.01),
         "namespace columns off"),
        (lambda d: _edit_csv(d / pipeline.REGRESSION_CSV, 3, "y_w", lambda v: v + 50.0),
         "validate: "),
        (lambda d: (d / pipeline.EVENTS_CSV).unlink(), "missing artifacts: events.csv"),
    ],
    ids=["settlement", "namespace-sum", "regression", "missing"],
)
def test_checks_flag_a_corrupted_copy(clean_run, tmp_path, corrupt, expect):
    out, config = clean_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    corrupt(copy)
    failures = checks.check_artifacts(copy, config)
    assert len(failures) == 1 and failures[0].startswith(expect), failures
    assert checks.digests(copy) != checks.digests(out)
