"""The post-pass's numeric paths, each run in a fresh interpreter.

The regression's bytes must not depend on how many threads OpenBLAS
uses or on which CPU kernel it picks, and a run must not reach numpy's
lazily imported numpy.ma, whose first import costs more than the whole
fit. Each only shows in a process that has not run anything else, so
each check starts its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

GOLDEN_RUNS = """
import sys
from pathlib import Path
from gridcalib import pipeline
from gridcalib.config import preset_config
for name in ("regression", "cpu-offset"):
    pipeline.run(preset_config(name), Path(sys.argv[1]) / name)
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


def _openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"]


@pytest.mark.skipif(not _openblas(), reason="numpy is not built against OpenBLAS")
def test_golden_presets_are_the_same_under_any_openblas_kernel(tmp_path):
    # a DYNAMIC_ARCH OpenBLAS picks its kernel by CPU at load time, and
    # each kernel adds a dot product in its own order; Nehalem (SSE only)
    # stands in for a machine other than this one
    _python(GOLDEN_RUNS, tmp_path / "default")
    _python(GOLDEN_RUNS, tmp_path / "nehalem", OPENBLAS_CORETYPE="Nehalem")
    for preset in ("regression", "cpu-offset"):
        for name in pipeline.ARTIFACT_NAMES:
            default = (tmp_path / "default" / preset / name).read_bytes()
            assert default == (tmp_path / "nehalem" / preset / name).read_bytes(), (preset, name)


def test_a_run_does_not_import_numpy_ma(tmp_path):
    assert _python(COLD_RUN, tmp_path).strip() == "False"
