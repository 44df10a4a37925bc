"""Theoretical recurrence-time bounds and literature estimates.

Two families of results are evaluated:

* a dimension-only ceiling on the number of stroboscopic steps needed
  for the fidelity to return above a floor epsilon (convention F >= eps),
* an energy-uncertainty bracket: Mandelstam-Tamm lower edge eps*hbar/dE
  and a tube-volume upper edge, with the convention F >= 1 - eps^2/4.

Every product that can overflow (the c_n prefactor, gamma ratios,
population products, eps powers) is evaluated in log space; reports
carry both the linear value (saturating to inf) and its log.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import mpmath as mp
import numpy as np

from .errors import (
    BadDomain,
    DegenerateSpectrum,
    DimensionMismatch,
    PreconditionViolated,
    StationaryState,
)
from .metrics import energy_stats
from .states import DensityMatrix, Hamiltonian
from .truncation import TruncationResult

SUPPORT_TOL = 1e-14

# Fidelity-threshold conventions used when converting a single user-facing
# threshold into the per-bound epsilon (see threshold_to_epsilon).
EPS_FIDELITY_FLOOR = "fidelity_floor"  # F >= eps
EPS_BURES_SCALE = "bures_scale"  # F >= 1 - eps^2/4


@dataclass(frozen=True)
class BoundReport:
    """Bracket for the recurrence time of one state, plus metadata."""

    n: int
    epsilon: float
    epsilon_convention: str
    hbar: float
    lambda_shift: float
    energy_uncertainty: float
    lower_mt: float
    upper_product: float
    upper_simplified: float
    log_upper_product: float
    log_upper_simplified: float
    jmax_dimension: float
    log_jmax_dimension: float
    torus_radii: tuple[float, ...]
    max_epsilon: float
    preconditions: dict = field(default_factory=dict)
    support_dropped: tuple[int, ...] = ()
    distance_ceiling: float | None = None
    ceiling_norm: str | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.distance_ceiling is None:
            del d["distance_ceiling"], d["ceiling_norm"]
        return d


@dataclass(frozen=True)
class EstimatorInputs:
    """Inputs for the literature order-of-magnitude estimates."""

    n: int
    nu: tuple[float, ...]
    epsilon: float

    def __post_init__(self):
        if self.n < 1 or len(self.nu) != self.n:
            raise BadDomain("need n >= 1 frequencies")
        if not all(math.isfinite(v) for v in self.nu):
            raise BadDomain("frequencies must be finite")


def sin_power_integral(m: int, x: float) -> float:
    """Integral of sin^m(s) over [0, x], x in [0, pi].

    Evaluated through the incomplete beta function at high working
    precision, so the result is correct to double-precision rounding
    even for large m.
    """
    return float(_sin_integral_mp(m, x))


def log_sin_power_integral(m: int, x: float) -> float:
    """log of sin_power_integral; -inf at x = 0, finite otherwise."""
    return float(mp.log(_sin_integral_mp(m, x)))


def _sin_integral_mp(m: int, x: float):
    if m < 0 or not isinstance(m, (int, np.integer)):
        raise BadDomain("m must be a non-negative integer")
    if not (0.0 <= x <= math.pi + 1e-15):
        raise BadDomain(f"x = {x} outside [0, pi]")
    m, x = int(m), min(float(x), math.pi)
    # substitution u = sin^2 s gives 0.5 * B(sin^2 x; (m+1)/2, 1/2) on [0, pi/2];
    # the integrand is symmetric about pi/2.
    with mp.workdps(30):
        half = mp.pi / 2

        def base(y):
            return mp.betainc((m + 1) / mp.mpf(2), mp.mpf(1) / 2,
                              0, mp.sin(y) ** 2) / 2

        xm = mp.mpf(x)
        if xm <= half:
            return base(xm)
        return 2 * base(half) - base(mp.pi - xm)


def log_gamma_ratio(a: float, b: float) -> float:
    """ln Gamma(a) - ln Gamma(b) for positive a, b."""
    if not (a > 0 and b > 0):
        raise BadDomain("need a, b > 0")
    return math.lgamma(a) - math.lgamma(b)


def dimension_bound(n: int, epsilon: float) -> tuple[float, float]:
    """Stroboscopic step ceiling from the dimension alone.

    Returns (jmax, log_jmax) with jmax saturating to inf; epsilon is a
    fidelity floor in (0, 1], and epsilon = 1 gives an infinite ceiling
    (the target ball degenerates to a point).
    """
    if n < 1:
        raise BadDomain("need n >= 1")
    if not (0.0 < epsilon <= 1.0):
        raise BadDomain("epsilon must be in (0, 1]")
    x = math.sqrt(max(0.0, 2.0 - 2.0 * epsilon)) / 2.0
    m = 2 * n * n - 2
    log_jmax = (
        0.5 * math.log(math.pi)
        + log_gamma_ratio(n * n, n * n + 0.5)
        - log_sin_power_integral(m, x)
    )
    return _safe_exp(log_jmax), log_jmax


def log_cn(n: int) -> float:
    """log of the tube-volume prefactor (n-1)*Gamma((n-1)/2)*4^(n-1)*pi^((n+1)/2)."""
    if n < 2:
        raise BadDomain("prefactor defined for n >= 2")
    return (
        math.log(n - 1)
        + math.lgamma((n - 1) / 2.0)
        + (n - 1) * math.log(4.0)
        + (n + 1) / 2.0 * math.log(math.pi)
    )


def threshold_to_epsilon(threshold: float, convention: str) -> float:
    """Convert a fidelity threshold into the epsilon of either convention."""
    if not (0.0 < threshold < 1.0):
        raise BadDomain("threshold must be in (0, 1)")
    if convention == EPS_FIDELITY_FLOOR:
        return threshold
    if convention == EPS_BURES_SCALE:
        return 2.0 * math.sqrt(1.0 - threshold)
    raise BadDomain(f"unknown convention {convention!r}")


def reduce_to_support(
    H: Hamiltonian, rho0: DensityMatrix
) -> tuple[Hamiltonian, DensityMatrix, tuple[int, ...]]:
    """Drop basis states whose population is at most SUPPORT_TOL.

    Returns the reduced system and the indices that were dropped. The
    reduced state is re-normalized (the dropped weight is at most
    n*SUPPORT_TOL).
    """
    p = rho0.populations
    keep = np.flatnonzero(p > SUPPORT_TOL)
    if keep.size == rho0.dim:
        return H, rho0, ()
    if keep.size == 0:
        raise StationaryState("state has no support above tolerance")
    dropped = tuple(int(i) for i in np.flatnonzero(p <= SUPPORT_TOL))
    sub = rho0.matrix[np.ix_(keep, keep)]
    sub = sub / sub.trace().real
    return (
        Hamiltonian(H.energies[keep], H.hbar),
        DensityMatrix(sub),
        dropped,
    )


def energy_bounds(
    H: Hamiltonian, rho0: DensityMatrix, epsilon: float
) -> BoundReport:
    """Mandelstam-Tamm lower edge and tube-volume upper edge.

    Requires a non-stationary state (dE > 0) and epsilon strictly below
    pi * min_k sqrt(p_k); zero-population levels are dropped first and
    recorded in the report.
    """
    if rho0.dim != H.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} != spectrum length {H.dim}")
    if not epsilon > 0:
        raise BadDomain("epsilon must be positive")
    H, rho0, dropped = reduce_to_support(H, rho0)
    n = H.dim
    if n < 2:
        raise StationaryState("support is one-dimensional; the state never moves")
    mean, de = energy_stats(H, rho0)
    if de <= 1e-14:
        raise StationaryState(f"energy uncertainty {de:.3e} is zero")
    p = rho0.populations
    radii = np.sqrt(p)
    max_eps = math.pi * float(radii.min())
    if epsilon >= max_eps:
        raise PreconditionViolated(
            f"epsilon {epsilon} must be < pi*min sqrt(p) = {max_eps}",
            max_epsilon=max_eps,
        )
    log_common = math.log(H.hbar) + log_cn(n) - (n - 1) * math.log(epsilon) - math.log(de)
    log_upper = log_common + 0.5 * float(np.log(p).sum())
    log_upper_simple = log_common - n / 2.0 * math.log(n)
    jmax, log_jmax = dimension_bound(n, max(1e-12, 1.0 - epsilon**2 / 4.0))
    return BoundReport(
        n=n,
        epsilon=epsilon,
        epsilon_convention=EPS_BURES_SCALE,
        hbar=H.hbar,
        lambda_shift=mean,
        energy_uncertainty=de,
        lower_mt=epsilon * H.hbar / de,
        upper_product=_safe_exp(log_upper),
        upper_simplified=_safe_exp(log_upper_simple),
        log_upper_product=log_upper,
        log_upper_simplified=log_upper_simple,
        jmax_dimension=jmax,
        log_jmax_dimension=log_jmax,
        torus_radii=tuple(float(r) for r in radii),
        max_epsilon=max_eps,
        preconditions={
            "nonzero_energy_uncertainty": True,
            "epsilon_below_injectivity": True,
            "support_reduced": bool(dropped),
        },
        support_dropped=dropped,
    )


def truncated_bounds(
    H: Hamiltonian,
    trunc: TruncationResult,
    epsilon: float,
    mode: str,
) -> BoundReport:
    """Bounds for the normalized N-state approximation, plus the distance
    ceiling on the full state it implies.

    mode "energy": energy-uncertainty bracket for sigma_tilde with trace-norm
    ceiling 2*sqrt(delta_N) + sqrt(2)*P_N*eps*sqrt(1 - eps^2/8).
    mode "dimension": dimension-only step ceiling with N states and trace-norm
    ceiling 2*sqrt(delta_N) + 2*P_N*(1 - eps^2).
    """
    N = trunc.N
    H_N = Hamiltonian(H.energies[np.asarray(trunc.kept_indices)], H.hbar)
    ceiling_base = 2.0 * math.sqrt(trunc.delta_N)
    if mode == "energy":
        report = energy_bounds(H_N, trunc.sigma_tilde, epsilon)
        ceiling = ceiling_base + math.sqrt(2.0) * trunc.P_N * epsilon * math.sqrt(
            1.0 - epsilon**2 / 8.0
        )
    elif mode == "dimension":
        if not (0.0 < epsilon <= 1.0):
            raise BadDomain("epsilon must be in (0, 1] for the dimension mode")
        jmax, log_jmax = dimension_bound(N, epsilon)
        mean, de = energy_stats(H_N, trunc.sigma_tilde)
        report = BoundReport(
            n=N,
            epsilon=epsilon,
            epsilon_convention=EPS_FIDELITY_FLOOR,
            hbar=H.hbar,
            lambda_shift=mean,
            energy_uncertainty=de,
            lower_mt=math.nan,
            upper_product=math.nan,
            upper_simplified=math.nan,
            log_upper_product=math.nan,
            log_upper_simplified=math.nan,
            jmax_dimension=jmax,
            log_jmax_dimension=log_jmax,
            torus_radii=tuple(
                float(r) for r in np.sqrt(trunc.sigma_tilde.populations)
            ),
            max_epsilon=1.0,
            preconditions={"dimension_only": True},
        )
        ceiling = ceiling_base + 2.0 * trunc.P_N * (1.0 - epsilon**2)
    else:
        raise BadDomain(f"unknown mode {mode!r}")
    return replace(report, distance_ceiling=ceiling, ceiling_norm="trace")


def peres_estimate(inp: EstimatorInputs) -> float:
    """Order-of-magnitude recurrence estimate 1/(n^(1/2)*nu*sigma).

    This is an estimate, not a bound; reports must label it as such and
    never assert it against measured times.
    """
    if not all(v > 0 for v in inp.nu) or not inp.epsilon > 0:
        raise BadDomain("need positive frequencies and epsilon")
    n = inp.n
    nu_mean = sum(inp.nu) / n
    log_r = 0.5 * math.log(n * inp.epsilon) - math.log(2.0 * math.pi)
    log_sigma = (
        (n - 1) / 2.0 * math.log(math.pi)
        + (n - 1) * log_r
        - math.lgamma((n + 1) / 2.0)
    )
    return _safe_exp(-(0.5 * math.log(n) + math.log(nu_mean) + log_sigma))


def bhattacharyya_estimate(inp: EstimatorInputs) -> float:
    """Order-of-magnitude recurrence estimate from the frequency spread.

    Uses the root-mean-square gap to the lowest frequency; degenerate
    spectra (all frequencies equal) are rejected.
    """
    n = inp.n
    if n < 2:
        raise BadDomain("need n >= 2")
    if not inp.epsilon > 0:
        raise BadDomain("need positive epsilon")
    nu = np.asarray(inp.nu, dtype=float)
    nu_m1 = float(np.sqrt(((nu[1:] - nu[0]) ** 2).sum() / (n - 1)))
    if nu_m1 == 0.0:
        raise DegenerateSpectrum("all frequencies equal")
    log_val = (
        -0.5 * math.log(n - 1)
        - math.log(nu_m1)
        + math.lgamma(n / 2.0)
        + (n - 2) / 2.0 * math.log(8.0 * math.pi / (inp.epsilon * (n - 1)))
    )
    return _safe_exp(log_val)


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf
