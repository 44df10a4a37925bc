"""Fixed reference work, timed alongside an untraced run, that puts the
run's timings on a nominal host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
a quarter or more over minutes, so raw wall-clock times taken at
different moments disagree by more than any useful regression bound.
Each untraced run therefore also times a reference unit of work that
never changes and shares the workload's kind of cost:

* `scan`: the Uhlmann fidelity of every scan system over the first
  1/SCAN_SHARE of its horizon, written here with plain numpy
  (elementwise phases, batched products, batched Hermitian eigenvalues),
  the operations qrecur's scan kernel spends its time in; a pass runs
  system i's share right after operation i;
* `cli`: a fresh interpreter importing numpy, scipy.special and mpmath,
  the start-up a `qrecur` call pays before it does any work, timed after
  every call.

Neither calls qrecur, so a change to the package moves the workload's
times and not the reference's. A normalized time is a pass's raw time
times NOMINAL_S / (the unit time measured inside that pass); it reads in
"ref" units, that is, in seconds or milliseconds of a host that runs the
unit in NOMINAL_S.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Median time of one reference unit on the host the baseline numbers were
# taken on (2 vCPUs of an Intel Xeon, model 207, under KVM; Python 3.11.7,
# numpy 2.4.6, scipy-openblas 0.3.31 on one thread). They only fix the
# scale of the "ref" units; any constant would do.
NOMINAL_S = {"scan": 1.05, "cli": 0.450}
# the scan unit evaluates 1/SCAN_SHARE of each scan system's horizon
SCAN_SHARE = 8
_CLI_CODE = "import numpy, scipy.special, mpmath"


def _scan_systems(cases) -> list:
    """(rho0, sqrt(rho0), omega, times) of every scan case, from its Gram
    factor and energies alone."""
    systems = []
    for case in cases:
        rho = case.w @ case.w.conj().T
        rho /= np.trace(rho).real
        vals, vecs = np.linalg.eigh(rho)
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        energies = np.asarray(case.H.energies, dtype=float)
        omega = (energies[:, None] - energies[None, :]) / case.H.hbar
        times = case.grid.dt * np.arange(case.grid.steps // SCAN_SHARE)
        systems.append((rho, root, omega, times))
    return systems


class Reference:
    """Times reference units for one workload and keeps every timing."""

    def __init__(self, workload: str, env: dict | None = None, cases=None):
        self.workload = workload
        self.env = env
        self.times: list[float] = []
        self._systems = _scan_systems(cases) if workload == "scan" else None

    def _scan_unit(self, systems) -> float:
        total = 0.0
        for rho, root, omega, ts in systems:
            rho_t = rho[None, :, :] * np.exp(-1j * omega[None, :, :] * ts[:, None, None])
            vals = np.linalg.eigvalsh(root @ rho_t @ root)
            total += float(np.sqrt(np.clip(vals, 0.0, None)).sum())
        return total

    def _cli_unit(self) -> None:
        subprocess.run([sys.executable, "-c", _CLI_CODE], env=self.env, check=True,
                       capture_output=True, timeout=120)

    def measure(self) -> None:
        """Time one whole unit."""
        start = time.perf_counter()
        if self.workload == "scan":
            self._scan_unit(self._systems)
        else:
            self._cli_unit()
        self.times.append(time.perf_counter() - start)

    # Inside a pass, share i of the unit runs right after operation i, so
    # unit and pass see the same moments of the host: for scan, system i's
    # part of the unit; for cli, one whole unit per call.

    def begin_pass(self) -> None:
        self._pass = []

    def measure_case(self, index: int) -> None:
        start = time.perf_counter()
        if self.workload == "scan":
            self._scan_unit(self._systems[index : index + 1])
        else:
            self._cli_unit()
        self._pass.append(time.perf_counter() - start)

    def end_pass(self) -> float:
        """Record the pass's unit time (for cli, the median of its units)
        and return the time spent on units during the pass."""
        spent = self._pass
        self.times.append(sum(spent) if self.workload == "scan" else statistics.median(spent))
        return sum(spent)

    def pass_factors(self, passes: int) -> list[float]:
        """NOMINAL_S over the unit time, one factor per pass: multiply a
        pass's raw times by it. Units timed inside the passes (scan, cli)
        give each pass its own; units timed between passes (verify) share
        their median."""
        nominal = NOMINAL_S[self.workload]
        if len(self.times) == passes:
            return [nominal / t for t in self.times]
        return [nominal / statistics.median(self.times)] * passes
