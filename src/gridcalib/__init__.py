"""gridcalib: deterministic microgrid co-simulation with online power calibration.

The package couples a stepping microgrid engine with an emulated
monitoring stack: synthetic workloads emit approximated per-process
power counters, a socket-meter model measures the true node power, and
a calibration stage reconciles the two live, inside the simulation loop,
for namespace actors to report.

The package root exports what the README's Python API documents; every
other name lives in its submodule.
"""

from .config import PRESETS
from .pipeline import RunArtifacts, run

__version__ = "0.1.0"

__all__ = ["PRESETS", "RunArtifacts", "run", "__version__"]
