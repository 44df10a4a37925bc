"""Finite approximations of a state by its first N basis levels.

sigma_N keeps the top-left N x N block of rho0, after an optional
population-descending reordering. The time-invariant error delta_N sums
|rho0[k, k']|^2 over the block with both indices outside the kept set;
complement_hs_sq adds the cross blocks, so the two can be compared, and
complement_trace_norm is the trace norm of the same remainder rho0 - sigma_N.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BadN, ZeroProbability
from .metrics import trace_norm
from .states import DensityMatrix, Hamiltonian, validate_density

ZERO_PROBABILITY = 1e-14  # a kept population at or below this cannot normalize sigma_tilde


class TruncationResult(NamedTuple):
    N: int
    sigma_tilde: DensityMatrix
    delta_N: float
    P_N: float
    complement_hs_sq: float  # includes the cross blocks, unlike delta_N
    complement_trace_norm: float  # ||rho0 - sigma_N||_1, cross blocks included
    kept_indices: tuple[int, ...]
    permutation: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        # the CLI writes the index tuples as JSON lists
        pairs = [[[z.real, z.imag] for z in row] for row in self.sigma_tilde.matrix]
        return {**self._asdict(), "sigma_tilde": pairs}


def _ordered_tables(rho0: DensityMatrix, order: str):
    """rho0's matrix in the kept order, its permutation (None in energy order)
    and, for every N = 0..n, the kept population P[N] and the tail norm
    delta[N] = sum over k, k' >= N of |m[k, k']|^2, read off the diagonal of
    the 2-D suffix sums of |m|^2."""
    if order not in ("energy", "population"):
        raise BadN(f"unknown order {order!r}")
    m, permutation = rho0.matrix, None
    if order == "population":
        # stable sort keeps the energy order among equal populations
        perm = np.argsort(-rho0.populations, kind="stable")
        m = m[np.ix_(perm, perm)]
        permutation = tuple(int(i) for i in perm)
    tails = (np.abs(m[::-1, ::-1]) ** 2).cumsum(0).cumsum(1).diagonal()[::-1]
    return m, permutation, np.append(0.0, m.diagonal().real.cumsum()), np.append(tails, 0.0)


def truncate(rho0: DensityMatrix, N: int, order: str = "energy") -> TruncationResult:
    """Keep the first N levels (energy order) or the N most populated ones.

    The population ordering records the permutation it applied; energy
    order is the default and keeps indices 0..N-1 as-is.
    """
    if not 1 <= N <= rho0.dim:
        raise BadN(f"N must be in [1, {rho0.dim}], got {N}")
    m, permutation, P_all, deltas = _ordered_tables(rho0, order)
    P = float(P_all[N])
    if P <= ZERO_PROBABILITY:
        raise ZeroProbability(f"P_N = {P:.3e}")
    rest = m.copy()  # rho0 - sigma_N: rho0 with the kept block zeroed
    rest[:N, :N] = 0.0
    return TruncationResult(
        N=N,
        sigma_tilde=validate_density(m[:N, :N] / P),
        delta_N=float(deltas[N]),
        P_N=P,
        complement_hs_sq=float((np.abs(rest) ** 2).sum()),
        complement_trace_norm=float(trace_norm(rest)),
        kept_indices=permutation[:N] if permutation else tuple(range(N)),
        permutation=permutation,
    )


def choose_N(rho0: DensityMatrix, delta_target: float, order: str = "energy") -> int:
    """Smallest N with delta_N <= delta_target and P_N above ZERO_PROBABILITY:
    never 0, as P_0 = 0, and n if no N < n qualifies, as delta_n = 0."""
    if not delta_target >= 0:
        raise BadN("delta_target must be non-negative")
    _, _, P, deltas = _ordered_tables(rho0, order)
    return int(np.flatnonzero((deltas <= delta_target) & (P > ZERO_PROBABILITY))[0])


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
