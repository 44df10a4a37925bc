"""The public export list and the import graph of the package."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import qrecur


def test_every_export_resolves_once():
    names = qrecur.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(qrecur, name)] == []


def test_import_loads_neither_scipy_nor_mpmath():
    """scipy is a test dependency only, and mpmath is loaded by the 40-digit
    re-check alone, which must still work once it is."""
    src = str(Path(qrecur.__file__).resolve().parents[1])
    code = (
        "import sys, numpy as np, qrecur, qrecur.cli\n"
        "assert 'scipy' not in sys.modules and 'mpmath' not in sys.modules, sys.modules.keys()\n"
        "w = np.array([[0.6], [0.8j]])\n"
        "f = abs(0.36 + 0.64 * np.exp(-0.3j))\n"
        "assert abs(qrecur.metrics.bures_hp(w, np.array([0.0, 1.0]), 1.0, 0.3) - (2 - 2 * f) ** 0.5) < 1e-14\n"
        "assert 'mpmath' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_traced_attribute_resolves(monkeypatch):
    """The benchmark's tracer wraps these module attributes by name, so a
    rename under src/ breaks its traced runs."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_qrecur_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as it is
    spec.loader.exec_module(tracing)
    missing = [
        (modname, attr)
        for modname, attr, _, _ in tracing.TARGETS
        if not hasattr(importlib.import_module(modname), attr)
    ]
    assert len(tracing.TARGETS) >= 18 and missing == []
