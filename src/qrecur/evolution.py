"""Exact unitary evolution in the energy eigenbasis.

Each coherence rotates with its Bohr frequency, so rho(t) is the
elementwise product of rho(0) with a phase table. Phases are always
computed from absolute time; grids never accumulate phase increments,
which keeps long scans drift-free.

The kernel also carries rho0 in Gram form, rho0 = W W^dag over its
support, which is what the fidelity scan in `search` works from. W is
the state's own factor (DensityMatrix.factor), so a state built by
validate_density or pure_state is factored once, when it is built.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, DimensionMismatch
from .states import DensityMatrix, Hamiltonian

# Memory budget, in bytes, for the temporaries of one vectorized block: a
# chunk of fidelity-scan samples, a block of sieve windows, CSV columns or
# Monte Carlo draws, or a slab of the triangle check. Every block loop
# reads it through chunk_cap when it runs.
CHUNK_BYTES = 16 * 2**20
CHUNK_START = 256  # samples in a scan's first chunk; later chunks double


def chunk_cap(per_sample: int) -> int:
    """Most samples one chunk may hold within CHUNK_BYTES, at per_sample
    temporary bytes each."""
    return max(1, CHUNK_BYTES // per_sample)


def chunk_bounds(stop: int, cap: int) -> Iterator[tuple[int, int]]:
    """(lo, hi) blocks covering 0..stop-1: CHUNK_START samples first,
    then doubling, never more than cap."""
    start, size = 0, min(CHUNK_START, cap)
    while start < stop:
        hi = min(start + size, stop)
        yield start, hi
        start, size = hi, min(2 * size, cap)


class EvolutionKernel(NamedTuple):
    """rho0 with what its evolution needs.

    levels[k] = (E_k - c)/hbar with c the middle of the spectrum, so phase
    arguments stay small; factor = rho0.factor, the n x rank support
    factor W with rho0 = W W^dag. speed is an upper bound on dE/hbar, the
    fastest rate at which the Bures angle arccos F(rho0, rho(t)) can
    change (Mandelstam-Tamm).

    coherence[k, k'] = |rho_kk'|^2 and mixedness = (tr rho)^2 - tr rho^2
    (1 - tr rho^2 at unit trace) are taken from rho = W W^dag, the state
    the scan evaluates. They give the super-fidelity tr rho rho(t) +
    mixedness, with tr rho rho(t) = u . coherence . conj(u) for the phase
    row u.
    """

    rho0: DensityMatrix
    levels: np.ndarray
    factor: np.ndarray
    rank: int
    speed: float
    coherence: np.ndarray
    mixedness: float

    @property
    def dim(self) -> int:
        return self.rho0.dim

    def phases(self, times: np.ndarray) -> np.ndarray:
        """exp(-i E_k t / hbar) up to a common phase, one row per time."""
        return np.exp(-1j * np.multiply.outer(times, self.levels))

    def check_span(self, t_max: float) -> None:
        """BadParameter unless every phase t l_k with |t| <= t_max is finite."""
        if not math.isfinite(float(t_max) * float(np.abs(self.levels).max())):
            raise BadParameter(f"phases (E_k - c) t/hbar are not finite for |t| up to {t_max!r}")


def make_kernel(H: Hamiltonian, rho0: DensityMatrix) -> EvolutionKernel:
    if rho0.dim != H.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} != spectrum length {H.dim}")
    e = H.energies
    levels = (e - (e.max() + e.min()) / 2.0) / H.hbar
    w = rho0.factor
    n, r = w.shape
    coherence = np.abs(w @ w.conj().T) ** 2
    mixedness = float(np.vdot(w, w).real) ** 2 - float(coherence.sum())
    p = rho0.populations
    var = float((levels - levels @ p) ** 2 @ p)
    # pad the variance by 2 n^2 eps spread^2: the populations of W W^dag,
    # the state the scan evaluates, differ from rho0's by up to n dropped
    # eigenvalues of under n eps each
    pad = 8.0 * n * n * np.finfo(float).eps * float(np.max(levels**2))
    levels.setflags(write=False)
    coherence.setflags(write=False)
    return EvolutionKernel(rho0, levels, w, r, math.sqrt(var + pad), coherence, mixedness)


def evolve(kernel: EvolutionKernel, t: float) -> DensityMatrix:
    """rho(t) with entries rho0[k, k'] * exp(i (E_k' - E_k) t / hbar), and
    its Gram factor diag(u) W for the phase row u: U(t) W W^dag U(t)^dag
    = rho(t), so no fidelity with it takes an eigendecomposition."""
    kernel.check_span(abs(float(t)))
    u = kernel.phases(float(t))
    return DensityMatrix(kernel.rho0.matrix * np.outer(u, u.conj()), u[:, None] * kernel.factor)
