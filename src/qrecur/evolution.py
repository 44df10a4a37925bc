"""Exact unitary evolution in the energy eigenbasis.

Each coherence rotates with its Bohr frequency, so rho(t) is the
elementwise product of rho(0) with a phase table. Phases are always
computed from absolute time; grids never accumulate phase increments,
which keeps long scans drift-free.

The kernel also carries rho0 in Gram form, rho0 = W W^dag over its
support, which is what the fidelity scan in `search` works from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, DimensionMismatch
from .metrics import gram_factor
from .states import DensityMatrix, Hamiltonian

# Memory budget, in bytes, for the temporaries of one vectorized block:
# a chunk of fidelity-scan samples, or a slab of the triangle check.
CHUNK_BYTES = 16 * 2**20


@dataclass(frozen=True)
class EvolutionKernel:
    """rho0 with what its evolution needs.

    levels[k] = (E_k - c)/hbar with c the middle of the spectrum, so phase
    arguments stay small; gram[k] = conj(W[k]) (x) W[k], of shape
    (n, rank^2), for the support factor W of rho0.
    """

    rho0: DensityMatrix
    levels: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)
    rank: int

    @property
    def dim(self) -> int:
        return self.rho0.dim

    @property
    def omega(self) -> np.ndarray:
        """Bohr-frequency table omega[k, k'] = (E_k' - E_k)/hbar."""
        return self.levels[None, :] - self.levels[:, None]

    @property
    def max_frequency(self) -> float:
        return float(self.levels.max() - self.levels.min())

    def phases(self, times: np.ndarray) -> np.ndarray:
        """exp(-i E_k t / hbar) up to a common phase, one row per time."""
        return np.exp(-1j * np.multiply.outer(times, self.levels))


def make_kernel(H: Hamiltonian, rho0: DensityMatrix) -> EvolutionKernel:
    if rho0.dim != H.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} != spectrum length {H.dim}")
    e = H.energies
    levels = (e - (e.max() + e.min()) / 2.0) / H.hbar
    w = gram_factor(rho0.matrix)
    n, r = w.shape
    gram = (w.conj()[:, :, None] * w[:, None, :]).reshape(n, r * r)
    levels.setflags(write=False)
    gram.setflags(write=False)
    return EvolutionKernel(rho0, levels, gram, r)


def is_stationary(H: Hamiltonian, rho0: DensityMatrix) -> bool:
    """True when rho0 commutes with H: every coherence above round-off
    (n * eps_mach * max |rho0|) lies between equal energies, so
    rho(t) = rho0 at all times."""
    if rho0.dim != H.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} != spectrum length {H.dim}")
    m = np.abs(rho0.matrix)
    e = H.energies
    moving = (m > rho0.dim * np.finfo(float).eps * m.max()) & (e[:, None] != e[None, :])
    return not moving.any()


def evolve(kernel: EvolutionKernel, t: float) -> DensityMatrix:
    """rho(t) with entries rho0[k, k'] * exp(i omega[k, k'] t)."""
    if not np.isfinite(t):
        raise BadParameter("t must be finite")
    u = kernel.phases(float(t))
    return DensityMatrix(kernel.rho0.matrix * np.outer(u, u.conj()))


def evolve_grid(
    kernel: EvolutionKernel, t0: float, dt: float, steps: int
) -> list[DensityMatrix]:
    """Snapshots at t0 + j*dt for j = 0..steps-1."""
    if not (np.isfinite(t0) and np.isfinite(dt) and dt > 0):
        raise BadParameter("need finite t0 and dt > 0")
    if steps < 1:
        raise BadParameter("need steps >= 1")
    return [evolve(kernel, t) for t in grid_times(t0, dt, steps)]


def grid_times(t0: float, dt: float, steps: int) -> np.ndarray:
    """Absolute sample times for a (t0, dt, steps) grid."""
    return t0 + dt * np.arange(steps, dtype=float)
