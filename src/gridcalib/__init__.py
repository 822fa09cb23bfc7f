"""gridcalib: deterministic microgrid co-simulation with online power calibration.

The package couples a stepping microgrid engine with an emulated
monitoring stack: synthetic workloads emit approximated per-process
power counters, a socket-meter model measures the true node power, and
a calibration stage reconciles the two live, inside the simulation loop,
for namespace actors to report.
"""

from . import errors
from .attribution import NodePower, ProcessUtilization, split_dynamic
from .calibration import (
    CalibrationInputs,
    CalibrationStage,
    NamespacePowerActor,
    calibrate_dynamic,
    calibrate_idle,
    dynamic_factor,
)
from .config import (
    PRESETS,
    ScenarioConfig,
    load_config,
    parse_config,
    preset_config,
    resolve_config,
)
from .emulation import (
    ApproximationParams,
    LoadSchedule,
    MeterSpec,
    WorkloadSpec,
    builtin_schedule,
)
from .microgrid import BenchmarkController, Microgrid, SimpleBattery, StaticActor, TraceActor
from .pipeline import RunArtifacts, report, run, validate
from .server import serve_metrics
from .signals import Signal, VirtualClock, WallClock, make_query_signal
from .timeseries import (
    COUNTER,
    GAUGE,
    MetricStore,
    Sample,
    Series,
    moving_average_rate,
    parse_query,
    query,
    rate,
)
from .validation import fit_ols, pair

__version__ = "0.1.0"

__all__ = [
    "ApproximationParams",
    "BenchmarkController",
    "COUNTER",
    "CalibrationInputs",
    "CalibrationStage",
    "GAUGE",
    "LoadSchedule",
    "MeterSpec",
    "MetricStore",
    "Microgrid",
    "NamespacePowerActor",
    "NodePower",
    "PRESETS",
    "ProcessUtilization",
    "RunArtifacts",
    "Sample",
    "ScenarioConfig",
    "Series",
    "Signal",
    "SimpleBattery",
    "StaticActor",
    "TraceActor",
    "VirtualClock",
    "WallClock",
    "WorkloadSpec",
    "builtin_schedule",
    "calibrate_dynamic",
    "calibrate_idle",
    "dynamic_factor",
    "errors",
    "fit_ols",
    "load_config",
    "make_query_signal",
    "moving_average_rate",
    "pair",
    "parse_config",
    "parse_query",
    "preset_config",
    "query",
    "rate",
    "report",
    "resolve_config",
    "run",
    "serve_metrics",
    "split_dynamic",
    "validate",
    "__version__",
]
