"""Distance and uncertainty functionals on density matrices.

Two norms show up and are never interchangeable: the trace norm (the one
in the Fuchs-van de Graaf inequalities) and the Hilbert-Schmidt norm
(the one under which single-coherence blocks are orthogonal). Reports
elsewhere label which norm was used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EigenFailure
# gram_factor lives with the states that carry it; it stays importable here
from .states import DensityMatrix, Hamiltonian, gram_factor  # noqa: F401


@dataclass(frozen=True)
class DistanceSample:
    """All distances between rho(t) and rho0 at one sample time."""

    t: float
    fidelity: float
    bures: float
    trace_dist: float
    hs_dist: float
    torus_dist: float | None = None

    def __post_init__(self):
        if abs(self.bures - bures_from_fidelity(self.fidelity)) > 1e-12:
            raise ValueError("bures inconsistent with fidelity")


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


def bures_hp(w: np.ndarray, energies: np.ndarray, hbar: float, t: float) -> float:
    """Bures distance between rho = W W^dag / tr(W^dag W) and rho(t) from
    F = ||W^dag U(t) W||_1 / tr(W^dag W), the scan's formula for the Gram
    factor W = rho0.factor, at 40 working digits: near F = 1,
    sqrt(2 - 2F) turns float64 noise into ~1e-8. The exact trace removes
    the O(eps) trace defect of the float64 entries."""
    import mpmath as mp  # loaded here only: nothing else in the package needs it

    with mp.workdps(40):
        wm = mp.matrix([[mp.mpc(complex(z)) for z in row] for row in w])
        u = mp.diag([mp.expj(-mp.mpf(e) * mp.mpf(t) / mp.mpf(hbar)) for e in energies])
        sv = mp.svd_c(wm.H * u * wm, compute_uv=False)
        trace = mp.fsum(abs(z) ** 2 for z in wm)
        return float(mp.sqrt(max(2 - 2 * mp.fsum(sv) / trace, 0)))


def bures_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    return float(bures_from_fidelity(fidelity(rho, sigma)))


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


def hs_norm(a) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(np.asarray(a)))


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


def distance_sample(
    t: float,
    rho_t: DensityMatrix,
    rho0: DensityMatrix,
    torus_dist: float | None = None,
) -> DistanceSample:
    f = fidelity(rho0, rho_t)
    return DistanceSample(
        t=float(t),
        fidelity=f,
        bures=float(bures_from_fidelity(f)),
        trace_dist=trace_distance_norm(rho_t, rho0),
        hs_dist=hs_norm(rho_t.matrix - rho0.matrix),
        torus_dist=torus_dist,
    )
