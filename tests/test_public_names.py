"""Every exported name resolves, and so does every name the benchmark tracer wraps."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import commcensus

SUBMODULES = ("arith", "census", "cli", "errors", "gf2", "quadratic", "quaternion", "spectra")
RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_all_names_resolve():
    for name in commcensus.__all__:
        assert hasattr(commcensus, name), f"commcensus.{name}"
    for sub in SUBMODULES:
        module = importlib.import_module(f"commcensus.{sub}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"commcensus.{sub}.{name}"


def test_tracer_targets_exist():
    """A deleted name that perfbench/run.py wraps would otherwise show only in its smoke run."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run._trace_targets()
    assert targets
    for module, attr, *_ in targets:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
