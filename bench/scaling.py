"""One-shot scaling report: host µs per engine tick against workload count.

usage: python3 bench/scaling.py [--seed 1]

Not a gated workload and not part of any check. For 1, 8, 32 and 128
workloads over up to 4 namespaces, under the `regression` preset's error
model, it runs one fresh-interpreter repetition each and prints the
wall time of pipeline.run divided by the tick count, and the median
step time, beside the baseline recorded in ROADMAP.md. Takes about
15 s on a 2-core x86-64 machine.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys

from run import SRC, WORK, pin_to_one_cpu, run_child

BASELINE_US_PER_TICK = {1: 195, 8: 875, 32: 3009, 128: 10047}
TICKS = 600


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    import workloads

    pin_to_one_cpu()

    work = WORK / "scaling"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(f"{'workloads':>9} {'run_s/tick us':>14} {'step p50 us':>12} {'baseline us':>12} {'ratio':>6}")
    for n in BASELINE_US_PER_TICK:
        config_path = work / f"config-{n}.json"
        config_path.write_text(json.dumps(workloads.sweep_config(n, TICKS, args.seed, 0.0)))
        spec_path = work / f"spec-{n}.json"
        spec_path.write_text(json.dumps({
            "seed": args.seed, "fill": None, "requests": 0,
            "config_path": str(config_path), "out": str(work / f"out-{n}"),
        }))
        rep = run_child(spec_path, work / f"result-{n}.json", "plain", 600)
        per_tick = rep["run_s"] / TICKS * 1e6
        step_p50 = statistics.median(rep["step_ns"]) / 1e3
        base = BASELINE_US_PER_TICK[n]
        print(f"{n:>9} {per_tick:>14.0f} {step_p50:>12.0f} {base:>12} {per_tick / base:>6.2f}")


if __name__ == "__main__":
    main()
