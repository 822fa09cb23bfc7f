"""Run-to-run spread of the end-to-end metrics over several seeds.

usage: python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs run.py once per seed, one run at a time, with BENCHMARK.json's
run_seconds. For every end-to-end metric it prints the median, the
interquartile range as a share of the median (from
statistics.quantiles(values, n=4)) and the metric's bound. A spread
under a third of the bound is steady; over the bound, the metric cannot
tell a regression from noise. The values go to .bench_out/spread-NAME.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect: {proc.stdout}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    (ROOT / ".bench_out" / f"spread-{args.workload}.json").write_text(json.dumps(values, indent=1))
    print(f"{'metric':<16}{'median':>12}{'spread':>9}{'bound':>7}")
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median
        flag = "" if spread < metric["bound"] / 3 else "  <- over a third of the bound"
        print(f"{metric['name']:<16}{median:>12.5g}{spread:>9.3f}{metric['bound']:>7}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
