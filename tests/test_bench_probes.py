"""The benchmark's probes still see every layer of the post-pass.

bench/tracing.py times a layer by rebinding the module or class
attribute the program calls it through. A builder that held a reference
taken at import would leave its probe hooked but never called: the
probe's metrics would read 0 and the benchmark would print no warning.
Tracer.install rebinds attributes for the life of the process, so the
run is made in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import dataclasses, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from gridcalib import pipeline
from gridcalib.config import preset_config
tracer = tracing.Tracer()
tracer.install()
tracer.phase = "run"
pipeline.run(dataclasses.replace(preset_config("regression"), duration_ms=60_000), sys.argv[1])
calls = {name: stat[tracing.CALLS] for (phase, name), stat in tracer.stats.items() if phase == "run"}
print(json.dumps({"calls": calls, "unhooked": tracer.unhooked}))
"""

# bindings the program does not have; their probes read 0 by design
KNOWN_UNHOOKED = {"signals.query", "pipeline.rate", "validation.pair", "server.query"}


def test_traced_run_calls_every_post_pass_probe(tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path), str(ROOT / "bench" / "tracing.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout)
    calls = traced["calls"]
    for name in (
        "pipeline.calibrated_table",
        "pipeline.energy_summary",
        "pipeline.node_regression",
        "pipeline.truth_csv",
        "pipeline.monitor_csv",
        "validation.fit_ols",
    ):
        assert calls.get(name) == 1, name
    assert calls.get("pipeline.csv_bytes") == 2  # the energy summary and the events
    assert calls.get("pipeline.atomic_write") == 8  # one per artifact
    assert calls.get("signals.fire") == 60  # the stage's collections, one a second
    # each entry reads "<probe>: <module>.<attribute>"
    bindings = {entry.split(": ")[1].removeprefix("gridcalib.") for entry in traced["unhooked"]}
    assert bindings <= KNOWN_UNHOOKED
