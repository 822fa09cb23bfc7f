"""The post-pass's numeric paths, each run in a fresh interpreter.

The regression's bytes must not depend on how many threads OpenBLAS
uses, and a run must not reach numpy's lazily imported numpy.ma, whose
first import costs more than the whole fit. Both only show in a process
that has not run anything else, so each check starts its own.
"""

import os
import subprocess
import sys
from pathlib import Path

from gridcalib import pipeline

SRC = Path(__file__).resolve().parent.parent / "src"

# gpu-leakage with a meter sample every 250 ms: about 19000 aligned
# samples, so every dot product of the fit is longer than the 10000
# entries above which OpenBLAS splits it across threads
LONG_RUN = """
import dataclasses, sys
from gridcalib import pipeline
from gridcalib.config import preset_config
from gridcalib.emulation import MeterSpec
config = dataclasses.replace(preset_config("gpu-leakage"), meter=MeterSpec(sample_interval_ms=250))
assert pipeline.run(config, sys.argv[1]).regression.n > 10_000
"""

COLD_RUN = """
import sys
from gridcalib import pipeline
from gridcalib.config import preset_config
pipeline.run(preset_config("gpu-leakage"), sys.argv[1])
print("numpy.ma" in sys.modules)
"""


def _python(code: str, out_dir: Path, **env: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(out_dir)],
        env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_long_regression_is_the_same_for_any_blas_thread_count(tmp_path):
    for threads in ("1", "2"):
        _python(LONG_RUN, tmp_path / threads, OPENBLAS_NUM_THREADS=threads)
    for name in pipeline.ARTIFACT_NAMES:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_a_run_does_not_import_numpy_ma(tmp_path):
    assert _python(COLD_RUN, tmp_path).strip() == "False"
