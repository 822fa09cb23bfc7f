"""The benchmark's helper modules import against the current package.

bench/tracing.py and bench/checks.py resolve gridcalib attributes when
they are imported (the probe table names classes and functions by
attribute), so a rename or removal in the package breaks every
benchmark run. Loading them here makes that a test failure instead.
Nothing is installed: no probe wraps anything.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["tracing", "checks"])
def test_bench_module_imports(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

