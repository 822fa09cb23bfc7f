"""gridcalib benchmark: one workload, one seed, --seconds of repetitions.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it finds the sources in the
`src/` directory next to its own. Each repetition is a fresh interpreter
(child.py), one at a time. A run makes a fixed number of repetitions,
set by the workload and --seconds (workloads.repetitions), so that two
commits measured alike get the same count. The first repetition's
artifacts are checked, and every later one must reproduce them byte for
byte.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced repetitions, prints a per-layer self-time table and the
tracing overhead, and reports the per-layer metrics of the traced ones.
The last stdout line is the JSON result; a record with the artifact
digests and the environment goes to .bench_out/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
TIME_LIMIT_S = 170.0  # the whole invocation must end within 180 s
BLOCK = 100  # steps or requests per block of a p50, about a second or less

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "postpass_s": "s",
    "tick_us_p50": "us",
    "tick_us_p99": "us",
    "peak_rss_mb": "MB",
    "scrape_ms_p50": "ms",
    "scrape_ms_p99": "ms",
    "query_ms_p50": "ms",
    "query_ms_p99": "ms",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def block_median(series: list[list[float]]) -> float:
    """Mean, over blocks of about BLOCK consecutive values cut from each
    series, of the block's median."""
    medians = []
    for values in series:
        k = max(1, len(values) // BLOCK)
        medians += [
            statistics.median(values[j * len(values) // k:(j + 1) * len(values) // k])
            for j in range(k)
        ]
    return statistics.fmean(medians)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one run at a time on a two-core machine
    return env


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every child it starts, to one CPU.

    A child's client and server threads then hand off on one core. Left
    free on a shared two-vCPU VM, some child processes sent one request
    in ten through a cross-CPU wake-up that doubled its latency and
    others none, so a p99 measured the placement, not the program.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def git_sha() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(spec_path: Path, result_path: Path, mode: str, timeout_s: float) -> dict:
    """One child (mode plain or traced); returns its result with setup_s
    and wall_s added."""
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path), str(result_path), mode],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} child exceeded {timeout_s:.0f} s and was killed") from None
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    result["wall_s"] = time.monotonic() - spawned
    return result


def rep_figures(rep: dict) -> dict[str, float]:
    """One repetition's own figures, for the record and for end_to_end."""
    steps_us = [ns / 1e3 for ns in rep["step_ns"]]
    figures = {
        "run_s": rep["run_s"],
        "postpass_s": rep["postpass_s"],
        "tick_us_p50": percentile(steps_us, 50),
        "tick_us_p99": percentile(steps_us, 99),
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    for key in ("scrape_ms", "query_ms"):
        if rep[key]:
            figures[f"{key}_p50"] = percentile(rep[key], 50)
            figures[f"{key}_p99"] = percentile(rep[key], 99)
    return figures


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """The run's end-to-end figures from its untraced repetitions.

    The reference machine, a shared VM, switches between a fast and a
    slow speed every few seconds, and now and then a whole repetition
    runs far slower. Each p50 is the mean, over blocks of BLOCK
    consecutive steps (or requests), of the block's median. It follows
    the run's average speed, where a median of the pooled steps jumps to
    whichever speed held for more than half the run. Every other figure
    is the median of the repetitions' own figures, which a slow
    repetition does not move. A repetition's p99 rests on at least ten
    samples beyond it.
    """
    figures = [rep_figures(rep) for rep in reps]

    def median(key: str) -> float:
        return statistics.median(f[key] for f in figures)

    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "run_s": median("run_s"),
        "postpass_s": median("postpass_s"),
        "tick_us_p50": block_median([[ns / 1e3 for ns in rep["step_ns"]] for rep in reps]),
        "tick_us_p99": median("tick_us_p99"),
        "peak_rss_mb": median("peak_rss_mb"),
        "scrape_ms_p50": block_median([rep["scrape_ms"] for rep in reps]),
        "scrape_ms_p99": median("scrape_ms_p99"),
        "query_ms_p50": block_median([rep["query_ms"] for rep in reps]),
        "query_ms_p99": median("query_ms_p99"),
    }


def repeat(spec: dict, spec_path: Path, work: Path, trace: bool) -> tuple[list[dict], list[str], int, dict]:
    """Run the spec's repetitions, every second one traced when `trace`;
    check each. Returns the repetitions, the failures, the number of
    checks, runs and requests attempted, and the artifact digests."""
    import checks

    started = time.monotonic()
    out = Path(spec["out"])
    reps: list[dict] = []
    failures: list[str] = []
    attempted = 0
    first_digests: dict = {}
    for k in range(spec["repetitions"]):
        mode = "traced" if trace and k % 2 == 1 else "plain"
        shutil.rmtree(out, ignore_errors=True)
        attempted += 1
        try:
            rep = run_child(spec_path, work / "result.json", mode,
                            max(1.0, TIME_LIMIT_S - (time.monotonic() - started)))
        except RuntimeError as exc:
            failures.append(f"repetition {k}: {exc}")
            break
        rep["mode"] = mode
        reps.append(rep)
        attempted += len(rep["scrape_ms"]) + len(rep["query_ms"])
        failures += [f"repetition {k}: {f}" for f in rep["failures"]]
        digests = checks.digests(out)
        if k == 0:
            # later repetitions must reproduce these bytes, so they pass the same checks
            first_digests = digests
            attempted += len(checks.ARTIFACT_CHECKS)
            failures += [f"repetition 0: {f}" for f in checks.check_artifacts(out, spec["config"])]
        else:
            attempted += 1
            if digests != first_digests:
                failures.append(f"repetition {k}: artifacts differ from repetition 0")
    return reps, failures, attempted, first_digests


def per_layer(untraced: list[dict], traced: list[dict], error_rate: float, record: dict) -> dict:
    """Per-layer metrics of the traced repetitions; prints the self-time
    table and records the tracing overhead."""
    import tracing

    values = {
        name: statistics.median(rep["per_layer"][name] for rep in traced)
        for name in traced[0]["per_layer"]
    }
    values["error_rate"] = error_rate
    plain_run_s = statistics.median(r["run_s"] for r in untraced)
    overhead_s = statistics.median(r["run_s"] for r in traced) - plain_run_s
    request_ms = [
        statistics.median(statistics.fmean(r["scrape_ms"] + r["query_ms"]) for r in reps)
        for reps in (untraced, traced)
    ]
    record["tracing_overhead"] = {
        "run_s": overhead_s,
        "run_share": overhead_s / plain_run_s,
        "request_ms_mean": request_ms[1] - request_ms[0],
    }
    print(traced[-1]["table"])
    print(f"tracing overhead: run_s {overhead_s:+.4f} s ({100 * overhead_s / plain_run_s:+.1f}%), "
          f"mean request {request_ms[1] - request_ms[0]:+.4f} ms")
    if traced[-1]["unhooked"]:
        print(f"unhooked probes (their metrics read 0): {traced[-1]['unhooked']}")
    return {name: {"value": v, "unit": tracing.unit_of(name)} for name, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the benchmark's own tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "gridcalib" / "__init__.py").is_file():
        print(f"run.py: no gridcalib sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = workloads.build(args.workload, args.seed, args.size, args.seconds)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(spec["config"], indent=1))
    spec.update(
        config_path=str(work / "config.json"),
        out=str(work / "artifacts"),
        trace_path=str(work / "trace.json"),
    )
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    cpu = pin_to_one_cpu()
    # compile the sources once so no repetition pays for it
    subprocess.run([sys.executable, "-c", "import gridcalib"], env=child_env(), check=True, timeout=60)

    reps, failures, attempted, first_digests = repeat(spec, spec_path, work, bool(args.trace))
    untraced = [rep for rep in reps if rep["mode"] == "plain"]
    traced = [rep for rep in reps if rep["mode"] == "traced"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "machine": platform.machine(),
        },
        "artifact_sha256": first_digests,
        "repetitions": [
            {"mode": rep["mode"], "wall_s": rep["wall_s"], "setup_s": rep["setup_s"], **rep_figures(rep)}
            for rep in reps
        ],
        "failures": failures,
    }
    metrics: dict[str, dict] = {}
    if untraced and not args.trace:
        values = end_to_end(untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"{args.workload} seed {args.seed}: {len(untraced)} repetitions of "
              f"{len(untraced[0]['step_ns'])} steps and "
              f"{len(untraced[0]['scrape_ms'])} requests of each kind")
    if traced and untraced:
        metrics = per_layer(untraced, traced, len(failures) / attempted, record)
    record["metrics"] = metrics
    (work / "record.json").write_text(json.dumps(record, indent=1))
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"artifact sha256: {json.dumps(first_digests)}")
    for failure in failures[:20]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
