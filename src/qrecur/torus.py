"""Flat-torus geometry, sphere ball volumes, tube volumes and a discrete
recurrence oracle for volume-preserving isometries.

The phases of a state's coherences live on a product of circles whose
radii are the square roots of the populations; distances on that torus
dominate the Bures distance between the evolved state and the initial
one (Riemannian-submersion inequality), so a return of the state within
a Bures radius r follows from a return of its phases within r on the
torus. The verification suites check the inequality on every sample of
their scans, against search.bures_series.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bounds import SUPPORT_TOL, _safe_exp, sin_power_integral
from .evolution import chunk_bounds, chunk_cap
from .errors import (
    BadDomain,
    BallEmpty,
    NotIsometry,
    NotMeasurePreserving,
    ZeroPopulation,
)
from .states import DensityMatrix, Hamiltonian, _array, _validated_make

METRIC_TOL = 1e-12


class _FlatTorusFields(NamedTuple):
    radii: np.ndarray


class FlatTorus(_FlatTorusFields):
    """Product of circles with the given radii; flat product metric."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, radii: np.ndarray):
        r = np.asarray(radii, dtype=float)
        if r.ndim != 1 or r.size < 1 or not np.all(r > 0):
            raise BadDomain("radii must be a non-empty vector of positive reals")
        r.setflags(write=False)
        return super().__new__(cls, r)

    @property
    def dim(self) -> int:
        return self.radii.size


def torus_from_state(rho0: DensityMatrix) -> FlatTorus:
    """Torus with radii sqrt(p_k) from the populations of rho0, all above SUPPORT_TOL."""
    p = rho0.populations
    if np.any(p <= SUPPORT_TOL):
        raise ZeroPopulation(
            f"populations below tolerance at indices {np.flatnonzero(p <= SUPPORT_TOL).tolist()}"
        )
    return FlatTorus(np.sqrt(p))


def wrap_angles(theta) -> np.ndarray:
    """Reduce angles to (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    w = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    return np.where(w == -np.pi, np.pi, w)


def torus_distance(torus: FlatTorus, theta) -> float:
    """Geodesic distance from the origin: sqrt(sum r_j^2 * wrap(theta_j)^2)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (torus.dim,):
        raise BadDomain(f"expected {torus.dim} angles, got {theta.shape}")
    return float(torus_distance_series(torus, theta[None, :])[0])


def torus_distance_series(torus: FlatTorus, thetas: np.ndarray) -> np.ndarray:
    """Vectorized torus_distance over rows of a (samples, n) angle array."""
    w = wrap_angles(thetas)
    return np.sqrt((torus.radii[None, :] ** 2 * w**2).sum(axis=1))


def torus_phase_at(H: Hamiltonian, lam: float, t) -> np.ndarray:
    """Phase angles -(E_k - lam) * t / hbar, wrapped to (-pi, pi].

    Accepts a scalar t (returns shape (n,)) or an array of times
    (returns shape (len(t), n)).
    """
    t = np.asarray(t, dtype=float)
    raw = -np.multiply.outer(t, (H.energies - lam) / H.hbar)
    return wrap_angles(raw)


def injectivity_radius(torus: FlatTorus) -> float:
    return math.pi * float(torus.radii.min())


def torus_volume(torus: FlatTorus) -> float:
    """(2 pi)^n times the product of the radii, via log space."""
    n = torus.dim
    log_v = n * math.log(2.0 * math.pi) + float(np.log(torus.radii).sum())
    return _safe_exp(log_v)


def sphere_ball_volume(n: int, r: float) -> float:
    """Volume of the geodesic ball of radius r in the unit n-sphere."""
    if n < 1:
        raise BadDomain("need n >= 1")
    if not (0.0 <= r <= math.pi + 1e-15):
        raise BadDomain(f"r = {r} outside [0, pi]")
    prefactor = math.exp(
        math.log(2.0) + n / 2.0 * math.log(math.pi) - math.lgamma(n / 2.0)
    )
    return prefactor * sin_power_integral(n - 1, min(r, math.pi))


def tube_volume(n: int, theta: float, length: float) -> float:
    """Flat-space volume of the theta-neighborhood of a curve of the given
    length in dimension n.

    Validity (no self-intersections) requires theta below half the ambient
    injectivity radius; that check belongs to the caller.
    """
    if n < 2:
        raise BadDomain("need n >= 2")
    if not (theta > 0 and length > 0):
        raise BadDomain("need positive theta and length")
    log_v = (
        math.log(2.0)
        + (n - 1) / 2.0 * math.log(math.pi)
        - math.log(n - 1)
        - math.lgamma((n - 1) / 2.0)
        + (n - 1) * math.log(theta)
        + math.log(length)
    )
    return _safe_exp(log_v)


class _FiniteMetricSpaceFields(NamedTuple):
    points: tuple
    dist: np.ndarray
    measure: np.ndarray


class FiniteMetricSpace(_FiniteMetricSpaceFields):
    """Finitely many points with an explicit metric and positive weights."""

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, points: tuple, dist: np.ndarray, measure: np.ndarray):
        d = np.asarray(dist, dtype=float)
        mu = np.asarray(measure, dtype=float)
        m = len(points)
        if d.shape != (m, m):
            raise BadDomain(f"distance matrix shape {d.shape} != ({m}, {m})")
        if not np.all(np.isfinite(d)):  # NaN would pass every check below
            raise BadDomain("distances must be finite")
        if mu.shape != (m,) or not np.all(mu > 0):
            raise BadDomain("measure must be m positive weights")
        with np.errstate(over="ignore"):  # an overflowing total is refused, not warned about
            total = float(mu.sum())
        if not math.isfinite(total):  # an infinite weight, or finite weights that overflow
            raise BadDomain(f"measure must be finite weights with a finite total, got {total}")
        if np.abs(d - d.T).max() > METRIC_TOL:
            raise BadDomain("distance matrix is not symmetric")
        if np.abs(np.diag(d)).max() > METRIC_TOL:
            raise BadDomain("distance matrix has nonzero diagonal")
        if np.any(d < -METRIC_TOL):
            raise BadDomain("negative distances")
        # triangle inequality: d[i, j] <= d[i, k] + d[k, j] for all k, in
        # slabs of middle indices k whose m x slab x m sums fit the budget
        for lo, hi in chunk_bounds(m, chunk_cap(8 * m * m)):
            via = (d[:, lo:hi, None] + d[None, lo:hi, :]).min(axis=1)
            if np.any(d > via + METRIC_TOL):
                raise BadDomain("triangle inequality violated")
        d.setflags(write=False)
        mu.setflags(write=False)
        return super().__new__(cls, points, d, mu)

    @property
    def size(self) -> int:
        return len(self.points)

    @classmethod
    def from_dict(cls, spec: dict) -> "FiniteMetricSpace":
        for key in ("points", "dist", "measure"):  # spec may be any JSON value
            if not isinstance(spec, dict) or key not in spec:
                raise BadDomain(f"{key} is missing from the metric space")
        if not isinstance(spec["points"], list):
            raise BadDomain(f"points must be a list, got {spec['points']!r}")
        return cls(
            points=tuple(spec["points"]),
            dist=_array("dist", spec["dist"]),
            measure=_array("measure", spec["measure"]),
        )


def _exact_sum(weights: np.ndarray) -> int:
    """The exact sum of float weights, in units of 2**-1074, the least
    positive float: every finite float is a whole number of them."""
    # n / d with d a power of two up to 2**1074: n << (1074 - log2 d) units
    ratios = map(float.as_integer_ratio, weights.tolist())
    return sum(n << (1075 - d.bit_length()) for n, d in ratios)


class OracleResult(NamedTuple):
    n_rec: int
    bound: float
    ok: bool


def metric_recurrence_oracle(
    space: FiniteMetricSpace, permutation, p: int, r: float
) -> OracleResult:
    """Brute-force recurrence check for a permutation isometry.

    Finds the smallest k >= 1 with dist(p, T^k(p)) <= r and compares it
    against the measure-ratio ceiling mu(M)/mu(B_{r/2}(p)), where the
    ball is OPEN (strict d < r/2) -- with discrete spaces the convention
    matters. Both measures are exact sums of the weights: ok is
    k mu(B) <= mu(M) exactly, and bound is mu(M)/mu(B) correctly rounded
    (inf past the float range).
    """
    if not r > 0:
        raise BadDomain("need r > 0")
    # the int cast below would truncate 1.7 to 1 and read true as 1
    entries = np.asarray(permutation, dtype=object).ravel()
    if any(isinstance(k, bool) or not isinstance(k, (int, np.integer)) for k in entries):
        raise BadDomain(f"permutation entries must be integers, got {permutation!r}")
    perm = np.asarray(permutation, dtype=int)
    m = space.size
    if not 0 <= p < m:
        raise BadDomain(f"point {p} is not one of the points 0..{m - 1}")
    if perm.ndim != 1 or sorted(perm.tolist()) != list(range(m)):
        raise BadDomain("permutation must be a bijection on the points")
    d = space.dist
    if np.abs(d[np.ix_(perm, perm)] - d).max() > METRIC_TOL:
        raise NotIsometry("permutation does not preserve distances")
    if np.abs(space.measure[perm] - space.measure).max() > METRIC_TOL:
        raise NotMeasurePreserving("permutation does not preserve the measure")
    # exact sums: float sums can round an integral mu(M)/mu(B) one ulp low,
    # and a k equal to it would then fail the ceiling it meets
    ball_mu = _exact_sum(space.measure[d[p] < r / 2.0])
    if not ball_mu:
        raise BallEmpty(f"open ball of radius {r / 2.0} around point {p} is empty")
    total = _exact_sum(space.measure)
    try:
        bound = total / ball_mu  # int / int: correctly rounded
    except OverflowError:  # weights far apart, such as 1e300 and 1e-10
        bound = math.inf
    q = p
    for k in range(1, m + 1):  # the orbit of p is back at p within m steps
        q = int(perm[q])
        if d[p, q] <= r:
            return OracleResult(n_rec=k, bound=bound, ok=k * ball_mu <= total)
    # reached only if d[p, p] > r, which METRIC_TOL allows for r below 1e-12
    return OracleResult(n_rec=m + 1, bound=bound, ok=False)
