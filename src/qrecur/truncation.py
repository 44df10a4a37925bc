"""Finite approximations of a state by its first N basis levels.

sigma_N keeps only the top-left N x N block of rho0 (after an optional
population-descending reordering). The approximation error delta_N sums
|rho0[k, k']|^2 over the block with BOTH indices outside the kept set,
which is a time-independent quantity; the full-complement squared HS
norm, which additionally contains the cross blocks, is reported
separately so the two conventions can be compared.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BadN, ZeroProbability
from .states import DensityMatrix, Hamiltonian, validate_density


class TruncationResult(NamedTuple):
    N: int
    sigma_tilde: DensityMatrix
    delta_N: float
    P_N: float
    complement_hs_sq: float  # includes the cross blocks, unlike delta_N
    kept_indices: tuple[int, ...]
    permutation: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "delta_N": self.delta_N,
            "P_N": self.P_N,
            "complement_hs_sq": self.complement_hs_sq,
            "kept_indices": list(self.kept_indices),
            "permutation": list(self.permutation) if self.permutation else None,
            "sigma_tilde": [
                [[z.real, z.imag] for z in row] for row in self.sigma_tilde.matrix
            ],
        }


def truncate(rho0: DensityMatrix, N: int, order: str = "energy") -> TruncationResult:
    """Keep the first N levels (energy order) or the N most populated ones.

    The population ordering records the permutation it applied; energy
    order is the default and keeps indices 0..N-1 as-is.
    """
    n = rho0.dim
    if not 1 <= N <= n:
        raise BadN(f"N must be in [1, {n}], got {N}")
    m = rho0.matrix
    permutation = None
    if order == "population":
        # stable sort keeps the energy order among equal populations
        perm = np.argsort(-rho0.populations, kind="stable")
        m = m[np.ix_(perm, perm)]
        permutation = tuple(int(i) for i in perm)
    elif order != "energy":
        raise BadN(f"unknown order {order!r}")
    P = float(m.diagonal().real[:N].sum())
    if P <= 1e-14:
        raise ZeroProbability(f"P_N = {P:.3e}")
    block = m[:N, :N]
    tail = m[N:, N:]
    delta = float((np.abs(tail) ** 2).sum())
    rest = m.copy()  # rho0 - sigma_N: rho0 with the kept block zeroed
    rest[:N, :N] = 0.0
    complement = float((np.abs(rest) ** 2).sum())
    kept = permutation[:N] if permutation else tuple(range(N))
    return TruncationResult(
        N=N,
        sigma_tilde=validate_density(block / P),
        delta_N=delta,
        P_N=P,
        complement_hs_sq=complement,
        kept_indices=tuple(kept),
        permutation=permutation,
    )


def choose_N(rho0: DensityMatrix, delta_target: float, order: str = "energy") -> int:
    """Smallest N with delta_N <= delta_target (delta_n = 0, so always <= n)."""
    if not delta_target >= 0:
        raise BadN("delta_target must be non-negative")
    for N in range(1, rho0.dim + 1):
        try:
            if truncate(rho0, N, order=order).delta_N <= delta_target:
                return N
        except ZeroProbability:
            continue
    return rho0.dim


def delta_time_invariance_check(
    H: Hamiltonian, rho0: DensityMatrix, N: int, times
) -> float:
    """Max deviation over times of the tail-block squared HS norm from delta_N.

    Under phase evolution every |rho[k, k']| is constant, so the deviation
    is pure floating-point noise; the acceptance gate requires <= 1e-9.
    """
    trunc = truncate(rho0, N)
    e = H.energies
    omega_tail = (e[None, N:] - e[N:, None]) / H.hbar
    tail0 = rho0.matrix[N:, N:]
    worst = 0.0
    for t in np.asarray(times, dtype=float):
        tail_t = tail0 * np.exp(1j * omega_tail * t)
        worst = max(worst, abs(float((np.abs(tail_t) ** 2).sum()) - trunc.delta_N))
    return worst
