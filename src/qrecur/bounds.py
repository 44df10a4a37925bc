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
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    BadDomain,
    DegenerateSpectrum,
    DimensionMismatch,
    PreconditionViolated,
    StationaryState,
)
from .metrics import energy_stats, is_stationary
from .states import DensityMatrix, Hamiltonian

if TYPE_CHECKING:
    from .truncation import TruncationResult

SUPPORT_TOL = 1e-14

# pi/2 and pi as the nearest double plus the double nearest the remainder
_HALF_PI = (1.5707963267948966, 6.123233995736766e-17)
_PI = (3.141592653589793, 1.2246467991473532e-16)

# The two epsilon conventions; every report names its own in
# epsilon_convention.
EPS_FIDELITY_FLOOR = "fidelity_floor"  # F >= eps
EPS_BURES_SCALE = "bures_scale"  # F >= 1 - eps^2/4


class BoundReport(NamedTuple):
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
    preconditions: dict = {}
    support_dropped: tuple[int, ...] = ()
    distance_ceiling: float | None = None
    ceiling_norm: str | None = None

    def bracket_check(self, t_rec: float, dt: float) -> dict:
        """Whether a measured recurrence time t_rec respects the bracket
        lower_mt <= t_rec <= upper_product to within dt."""
        lo, hi = self.lower_mt, self.upper_product
        ok = {"lower_ok": lo - dt <= t_rec, "upper_ok": t_rec <= hi + dt}
        return {"lower_mt": lo, "upper_product": hi, **ok}

    def to_dict(self) -> dict:
        d = self._asdict()
        if self.distance_ceiling is None:
            del d["distance_ceiling"], d["ceiling_norm"]
        return d


def sin_power_integral(m: int, x: float) -> float:
    """Integral of sin^m(s) over [0, x], x in [0, pi], in float64.

    With a = (m+1)/2 and u = x folded onto [0, pi/2], the integral over
    [0, u] is B_z(a, 1/2)/2 at z = sin^2 u, from the incomplete-beta
    continued fraction summed by Steed's method. Past z = (a+1)/(a+5/2)
    it is B(a, 1/2)/2 less the integral over [u, pi/2], B_{1-z}(1/2, a)/2
    from the same fraction, and x > pi/2 gives B(a, 1/2) less the
    integral over [0, pi - x]. u and pi/2 - u are both held to full
    relative accuracy, and sin u, cos u and ln sin u come from them;
    B(a, 1/2) is Wallis's exact ratio for m < 64 and an asymptotic series
    beyond. The log of the result has error |d ln I| <= 4 eps *
    max(1, |ln I|) for x <= 1/sqrt(2), which holds every argument of
    dimension_bound. Elsewhere the bound is 16 eps * max(1, |ln I|) for
    m <= 64 and 128 eps * max(1, |ln I|) for m up to 2046: near
    z = (a+1)/(a+5/2) the fraction is ill-conditioned, one rounding of z
    or of a term moving I by up to about m/3 eps, so beyond m ~ 2000 this
    bound grows with m.
    """
    return math.exp(log_sin_power_integral(m, x))


def log_sin_power_integral(m: int, x: float) -> float:
    """log of sin_power_integral; -inf at x = 0, finite otherwise."""
    if m < 0 or not isinstance(m, (int, np.integer)):
        raise BadDomain("m must be a non-negative integer")
    if not (0.0 <= x <= math.pi + 1e-15):
        raise BadDomain(f"x = {x} outside [0, pi]")
    m, x = int(m), min(float(x), math.pi)
    if x == 0.0:
        return -math.inf
    a = (m + 1) / 2.0
    y = (_HALF_PI[0] - x) + _HALF_PI[1]
    fold = y < 0.0
    # u = x folded onto (0, pi/2] and v = pi/2 - u, both exact to rounding
    u, v = ((_PI[0] - x) + _PI[1] if fold else x), abs(y)
    sin_u, cos_u = math.sin(u), math.sin(v)
    # near u = pi/2, ln sin u = ln(1 - 2 sin^2(v/2)) keeps the relative
    # accuracy that rounding sin u to a double would lose
    log_sin = math.log(sin_u) if u <= v else math.log1p(-2.0 * math.sin(v / 2.0) ** 2)
    log_lead = (m + 1) * log_sin + math.log(cos_u)  # ln(sin^(m+1) u cos u)
    z = sin_u * sin_u
    if z <= (a + 1.0) / (a + 2.5):
        log_i = log_lead - math.log(m + 1) + math.log1p(_beta_cf_rest(a, 0.5, z))
        return math.log(_beta_half(m) - math.exp(log_i)) if fold else log_i
    tail = math.exp(log_lead) * (1.0 + _beta_cf_rest(0.5, a, cos_u**2))
    half = _beta_half(m) / 2.0
    return math.log(half + tail if fold else half - tail)


def _beta_cf_rest(a: float, b: float, z: float) -> float:
    """h - 1 for B_z(a, b) = z^a (1 - z)^b h / a, where
    h = 1/(1 + d_1/(1 + d_2/(1 + ...))) is the incomplete-beta continued
    fraction. Steed's method sums h as 1 plus corrections, each a product
    with no cancellation, and returns their sum so that ln h = log1p of it
    keeps full accuracy. Converges within 120 terms for
    z <= (a + 1)/(a + b + 2) and b = 1/2 (or a = 1/2)."""
    rest, term, den = 0.0, 1.0, 1.0
    for k in range(1, 1000):
        j = k // 2
        if k % 2:
            d = -(a + j) * (a + b + j) * z / ((a + k - 1.0) * (a + k))
        else:
            d = j * (b - j) * z / ((a + k - 1.0) * (a + k))
        new_den = 1.0 / (1.0 + d * den)
        term *= -d * den * new_den
        den = new_den
        rest += term
        if abs(term) <= 1e-17 * (1.0 + rest):
            return rest
    raise ArithmeticError(f"incomplete-beta fraction did not converge at a={a}, b={b}, z={z}")


def _beta_half(m: int) -> float:
    """B((m+1)/2, 1/2), the integral of sin^m over [0, pi]: Wallis's exact
    ratio for m < 64, else sqrt(pi/a) times the asymptotic series of
    sqrt(a) Gamma(a)/Gamma(a + 1/2), whose first omitted term is below
    5e-17 there."""
    if m < 64:
        k = (m + 1) // 2
        if m % 2:
            return 4**k / (k * math.comb(2 * k, k))
        return math.pi * (math.comb(2 * k, k) / 4**k)
    a = (m + 1) / 2.0
    r = 1.0 / (a * a)
    # ln(Gamma(a + 1/2)/Gamma(a)) - ln(a)/2 = sum over even k of
    # (2^(1-k) - 2) B_k / (k (k-1) a^(k-1)), B_k the Bernoulli numbers
    series = (-1.0 / 8 + r * (1.0 / 192 + r * (-1.0 / 640 + r * 17.0 / 14336))) / a
    return math.sqrt(math.pi / a) * math.exp(-series)


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
    # sqrt(pi) Gamma(n^2)/Gamma(n^2 + 1/2) is B(n^2, 1/2), which _beta_half
    # holds to a few ulps; a difference of lgammas loses about n^2 ulps
    log_jmax = math.log(_beta_half(m + 1)) - log_sin_power_integral(m, x)
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


def threshold_to_epsilon(threshold: float) -> float:
    """The Bures-scale epsilon of a fidelity threshold: F >= threshold
    is F >= 1 - eps^2/4."""
    if not (0.0 < threshold < 1.0):
        raise BadDomain("threshold must be in (0, 1)")
    return 2.0 * math.sqrt(1.0 - threshold)


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

    Requires a state that moves (not evolution-invariant: see
    metrics.is_stationary) with dE above the rounding of its own sums,
    and epsilon strictly below both pi * min_k sqrt(p_k) and 2, where the
    threshold 1 - eps^2/4 reaches 0; zero-population levels are dropped
    first and recorded in the report.
    """
    if rho0.dim != H.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} != spectrum length {H.dim}")
    if not epsilon > 0:
        raise BadDomain("epsilon must be positive")
    H, rho0, dropped = reduce_to_support(H, rho0)
    if is_stationary(H, rho0):
        raise StationaryState("the state commutes with H on its support; it never moves")
    n = H.dim
    mean, de = energy_stats(H, rho0)
    # A moving state can still have a dE that is all round-off: levels
    # within a few ulps of each other, such as E = (1, 1 + 2^-52), where
    # the equal superposition gets dE 2.5e-16 for the true 1.1e-16.
    if de <= n * np.finfo(float).eps * float(np.abs(H.energies).max()):
        raise StationaryState(f"energy uncertainty {de:.3e} is below the rounding of its own sums")
    p = rho0.populations
    radii = np.sqrt(p)
    max_eps = math.pi * float(radii.min())
    if epsilon >= max_eps:
        raise PreconditionViolated(
            f"epsilon {epsilon} must be < pi*min sqrt(p) = {max_eps}",
            max_epsilon=max_eps,
        )
    if epsilon >= 2.0:
        raise PreconditionViolated(
            f"epsilon {epsilon} must be < 2: the threshold 1 - eps^2/4 is then <= 0,"
            " which every state meets at every t",
            max_epsilon=2.0,
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

    mode "energy": energy-uncertainty bracket for sigma_tilde, whose return
    means F >= f = 1 - eps^2/4. mode "dimension": dimension-only step
    ceiling with N states, whose return means F >= f = eps.

    Both modes share one trace-norm ceiling on ||rho(t) - rho0||_1 at such a
    return: 2*||R||_1 + 2*P_N*sqrt(1 - f^2). The remainder
    R = rho0 - sigma_N evolves unitarily, so ||R(t) - R||_1 <= 2*||R||_1;
    the kept block contributes P_N*||sigma_tilde(t) - sigma_tilde||_1, which
    Fuchs-van de Graaf bounds by 2*P_N*sqrt(1 - F^2). Both modes refuse a
    floor f <= 0. 1 - f^2 is formed as g*(2 - g) with g = 1 - f, so a small
    eps keeps its block term.
    """
    N = trunc.N
    H_N = Hamiltonian(H.energies[np.asarray(trunc.kept_indices)], H.hbar)
    if mode == "energy":
        report = energy_bounds(H_N, trunc.sigma_tilde, epsilon)
        g = epsilon**2 / 4.0  # 1 - f
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
        g = 1.0 - epsilon
    else:
        raise BadDomain(f"unknown mode {mode!r}")
    ceiling = 2.0 * trunc.complement_trace_norm + 2.0 * trunc.P_N * math.sqrt(g * (2.0 - g))
    return report._replace(distance_ceiling=ceiling, ceiling_norm="trace")


def _gaps_to_lowest(nu) -> np.ndarray:
    """The n - 1 gaps nu_k - min(nu) from the lowest of the n = len(nu)
    frequencies to the others, ascending; an empty or non-finite nu is
    refused. They depend neither on the zero of energy nor on the order
    of nu; a level equal to the lowest gives a zero gap."""
    if len(nu) < 1:
        raise BadDomain("need n >= 1 frequencies")
    if not all(math.isfinite(v) for v in nu):
        raise BadDomain("frequencies must be finite")
    nu = np.sort(np.asarray(nu, dtype=float))
    return nu[1:] - nu[0]


def peres_estimate(nu, epsilon: float) -> float:
    """Order-of-magnitude recurrence estimate 1/(n^(1/2)*g*sigma) from
    the n gaps of the frequencies nu to the lowest one: g is their mean
    and sigma the volume of the (n-1)-ball of radius sqrt(n eps)/(2 pi).

    This is an estimate, not a bound; reports must label it as such and
    never assert it against measured times.
    """
    gaps = _gaps_to_lowest(nu)
    n = gaps.size
    if n < 1 or not np.all(gaps > 0) or not epsilon > 0:
        raise BadDomain("need positive gaps to the lowest frequency and a positive epsilon")
    log_r = 0.5 * math.log(n * epsilon) - math.log(2.0 * math.pi)
    log_sigma = (
        (n - 1) / 2.0 * math.log(math.pi)
        + (n - 1) * log_r
        - math.lgamma((n + 1) / 2.0)
    )
    return _safe_exp(-(0.5 * math.log(n) + math.log(float(gaps.mean())) + log_sigma))


def bhattacharyya_estimate(nu, epsilon: float) -> float:
    """Order-of-magnitude recurrence estimate from the spread of the
    n = len(nu) frequencies nu.

    Uses the root-mean-square gap to the lowest frequency; degenerate
    spectra (all frequencies equal) are rejected.
    """
    gaps = _gaps_to_lowest(nu)
    n = gaps.size + 1
    if n < 2:
        raise BadDomain("need n >= 2")
    if not epsilon > 0:
        raise BadDomain("need positive epsilon")
    nu_m1 = float(np.sqrt((gaps**2).sum() / (n - 1)))
    if nu_m1 == 0.0:
        raise DegenerateSpectrum("all frequencies equal")
    log_val = (
        -0.5 * math.log(n - 1)
        - math.log(nu_m1)
        + math.lgamma(n / 2.0)
        + (n - 2) / 2.0 * math.log(8.0 * math.pi / (epsilon * (n - 1)))
    )
    return _safe_exp(log_val)


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf
