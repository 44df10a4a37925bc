"""The public export list and the import graph of the package."""

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
