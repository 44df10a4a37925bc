"""Distance and uncertainty functionals on density matrices.

Two norms show up and are never interchangeable: the trace norm (the one
in the Fuchs-van de Graaf inequalities) and the Hilbert-Schmidt norm
(the one under which single-coherence blocks are orthogonal). Reports
elsewhere label which norm was used.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, EigenFailure
from .states import DensityMatrix, Hamiltonian


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ||W_rho^dag W_sigma||_1 for the Gram factors
    rho = W_rho W_rho^dag and sigma = W_sigma W_sigma^dag (the states'
    factor), which equals tr sqrt(sqrt(rho) sigma sqrt(rho)); clamped to
    [0, 1]."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"{rho.dim} != {sigma.dim}")
    overlap = rho.factor.conj().T @ sigma.factor
    try:
        sv = np.linalg.svd(overlap, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    return min(max(float(sv.sum()), 0.0), 1.0)


def bures_from_fidelity(f):
    """Bures distance sqrt(2 - 2F) from the fidelity F, elementwise on a
    scalar or an array; F above 1 by round-off gives 0."""
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * np.asarray(f)))


def trace_norm(a: np.ndarray) -> np.ndarray:
    """Trace norm, sum |eigenvalues|, of each Hermitian matrix a[..., :, :]."""
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    return np.abs(vals).sum(axis=-1)


def trace_distance_norm(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Trace norm of rho - sigma; range [0, 2]."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"{rho.dim} != {sigma.dim}")
    return float(trace_norm(rho.matrix - sigma.matrix))


def energy_stats(H: Hamiltonian, rho: DensityMatrix) -> tuple[float, float]:
    """Mean energy and energy uncertainty of rho (H diagonal by convention)."""
    if rho.dim != H.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != spectrum length {H.dim}")
    p = rho.populations
    mean = float(H.energies @ p)
    # centered form: immune to the catastrophic cancellation of E^2@p - mean^2
    var = float((H.energies - mean) ** 2 @ p)
    return mean, float(np.sqrt(max(0.0, var)))


def fvg_check(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[bool, bool]:
    """Fuchs-van de Graaf: 1 - F <= T/2 <= sqrt(1 - F^2), trace norm T,
    each side with a 1e-9 round-off allowance."""
    slack = 1e-9
    f = fidelity(rho, sigma)
    half_t = trace_distance_norm(rho, sigma) / 2.0
    lower_ok = 1.0 - f <= half_t + slack
    upper_ok = half_t <= np.sqrt(max(0.0, 1.0 - f * f)) + slack
    return lower_ok, upper_ok
