"""Empirical recurrence-time measurement on a time grid.

All grid scans run through one engine, `scan`. It evaluates the fidelity
F(rho0, rho(t)) in chunks of CHUNK_START samples that double up to a cap
set by the byte budget CHUNK_BYTES, so a scan that ends early pays for
few samples and no chunk outgrows the budget. Per sample the kernel
needs n phases and one r x r nuclear norm, with r the rank of rho0 (see
`fidelity_series`). The torus surrogate walks the same chunks with the
torus distance in place of F.

Given a threshold, `scan` skips the samples the quantum speed limit
already proves below it: the Bures angle arccos F moves at most dE/hbar
per unit time, so one sample far from the threshold clears its
neighbours (see `_pruned_series`). For a mixed rho0 it also skips the
r x r nuclear norm wherever the super-fidelity ceiling
F^2 <= tr rho0 rho(t) + 1 - tr rho0^2, one n x n quadratic form in the
phase row, already proves F below the threshold.

One rule, `_first_crossing`, reads every departure and return. The
operational definition, recorded in every report, is: t_departure is
the first grid time with F below the threshold, t_rec the first grid
time after t_departure with F back at or above it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import SUPPORT_TOL, BoundReport
from .errors import BadParameter, GridTooCoarse
from .evolution import (
    CHUNK_BYTES,
    EvolutionKernel,
    evolve,
    is_stationary,
    make_kernel,
)
from .metrics import DistanceSample, bures_from_fidelity, bures_hp, gram_factor
from .metrics import hs_norm, trace_distance_norm
from .states import DensityMatrix, Hamiltonian
from .torus import (
    torus_distance_series,
    torus_from_state,
    torus_phase_at,
)

CHUNK_START = 256  # samples in a scan's first chunk; later chunks double
# Fidelity margin of a skipped sample: far above the kernel's ~1e-12 error
SLACK = 1e-9


def _g_rounding(n: int) -> float:
    """Margin added to the super-fidelity G of an n-level kernel before it
    is compared, 4 (n + 2)^2 eps. The worst-case float64 errors of G's
    parts (W W^dag over r <= n terms, its squared moduli, (tr rho)^2 over
    n r terms, tr rho^2 over n^2, two length-n sums with the phase row)
    add up to under (1.5 n^2 + 3 n + 10) eps, for a unit trace."""
    return 4.0 * (n + 2) ** 2 * np.finfo(float).eps


@dataclass(frozen=True)
class Grid:
    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and 0 < self.dt < math.inf and self.steps >= 1):
            raise BadParameter("need finite t0, finite dt > 0 and steps >= 1")

    def times(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Times of the samples lo..hi-1 (default: all of them)."""
        hi = self.steps if hi is None else hi
        return self.t0 + self.dt * np.arange(lo, hi, dtype=float)


@dataclass(frozen=True)
class RecurrenceResult:
    threshold: float
    t_departure: float | None
    t_rec: float | None
    grid: Grid
    stationary: bool  # rho0 commutes with H
    no_departure_within_horizon: bool
    refined: bool
    bracket_check: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)  # how it was found, see find_recurrence

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "definition": "first grid time after the first departure below threshold",
        }


@dataclass(frozen=True)
class StroboscopicResult:
    j_found: int | None
    jmax_theory: float
    cap: int
    cap_exceeded: bool  # search cap below the theory ceiling and nothing found


def default_dt(H: Hamiltonian) -> float:
    """Grid step tied to the fastest Bohr frequency: pi*hbar/(4*max|dE|)."""
    spread = float(H.energies.max() - H.energies.min())
    if spread == 0.0:
        return math.pi * H.hbar / 4.0
    return math.pi * H.hbar / (4.0 * spread)


def sample_bytes(n: int, r: int) -> int:
    """Peak temporary bytes per sample of the fidelity kernel: two complex
    arrays of n phases and two of r^2 products."""
    return 32 * (n + r * r)


def chunk_cap(per_sample: int) -> int:
    """Most samples one chunk may hold within CHUNK_BYTES, at per_sample
    temporary bytes each."""
    return max(1, CHUNK_BYTES // per_sample)


def chunk_bounds(stop: int, cap: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """(lo, hi) blocks covering start..stop-1: CHUNK_START samples first,
    then doubling, never more than cap."""
    size = min(CHUNK_START, cap)
    while start < stop:
        hi = min(start + size, stop)
        yield start, hi
        start, size = hi, min(2 * size, cap)


def fidelity_series(kernel: EvolutionKernel, times: np.ndarray) -> np.ndarray:
    """F(rho0, rho(t)) for every t, vectorized over samples.

    With rho0 = W W^dag, F(t) = ||W^dag U(t) W||_1 (Uhlmann). The r x r
    matrix M(t) = W^dag U(t) W is the phase row exp(-i E t/hbar) times
    kernel.gram, and F is the sum of its singular values; for a pure
    state that is |sum_k p_k exp(-i E_k t/hbar)|. Each sample is computed
    on its own, so values do not depend on how the times are split.
    """
    r = kernel.rank
    out = np.empty(times.size, dtype=float)
    step = chunk_cap(sample_bytes(kernel.dim, r))
    for lo in range(0, times.size, step):
        ts = times[lo : lo + step]
        # one 1 x n row per sample: a plain (T x n) @ (n x r^2) product
        # would let BLAS round a row differently with T
        m = (kernel.phases(ts)[:, None, :] @ kernel.gram)[:, 0, :]
        if r == 1:
            out[lo : lo + ts.size] = np.abs(m[:, 0])
        else:
            sv = np.linalg.svd(m.reshape(-1, r, r), compute_uv=False)
            out[lo : lo + ts.size] = sv.sum(axis=1)
    return np.clip(out, 0.0, 1.0)


def _chunks(
    grid: Grid, cap: int, series: Callable[[np.ndarray], np.ndarray], start: int = 0
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (lo, times, series(times)) over grid samples start..steps-1
    in the blocks of chunk_bounds; lo is the grid index of times[0]."""
    for lo, hi in chunk_bounds(grid.steps, cap, start):
        ts = grid.times(lo, hi)
        yield lo, ts, series(ts)


def scan(
    kernel: EvolutionKernel, grid: Grid, start: int = 0, threshold: float | None = None
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (lo, times, F) over grid samples start..steps-1 in growing
    chunks (see chunk_bounds). Stop iterating to stop the scan.

    Without a threshold every sample is evaluated. With one, a sample the
    speed limit proves to have F <= threshold - SLACK is not evaluated
    and carries F = -inf; every other value is the one fidelity_series
    gives, so a test F >= threshold reads the same on both.
    """
    cap = chunk_cap(sample_bytes(kernel.dim, kernel.rank))
    theta = kernel.speed * grid.dt
    if threshold is None or theta == 0.0:
        return _chunks(grid, cap, lambda ts: fidelity_series(kernel, ts), start)
    return _chunks(grid, cap, lambda ts: _pruned_series(kernel, ts, threshold, theta), start)


def _super_fidelity(kernel: EvolutionKernel, times: np.ndarray) -> np.ndarray:
    """G(t) = tr rho0 rho(t) + 1 - tr rho0^2 for every t, an upper bound on
    F^2 (super-fidelity, Miszczak et al., QIC 9, 103 (2009)); rho(t) has
    the purity of rho0. tr rho0 rho(t) = u . |rho0_kk'|^2 . conj(u) with u
    the phase row, so a sample costs one row-times-matrix product."""
    u = kernel.phases(times)
    v = u @ kernel.coherence
    return (u.real * v.real + u.imag * v.imag).sum(axis=1) + kernel.mixedness


def _pruned_series(
    kernel: EvolutionKernel, times: np.ndarray, threshold: float, theta: float
) -> np.ndarray:
    """fidelity_series on evenly spaced times, -inf where skipped.

    The Bures angle A(t) = arccos F moves at most theta per step, so a
    sample j with angle A_j proves every sample within
    k_j = floor((A_j - A*)/theta) steps has A >= A* = arccos(threshold -
    SLACK). Samples are evaluated coarse to fine: every stride-th one
    first, stride the largest power of two at which two samples at the
    largest angle, pi/2, could clear the gap between them, then halving
    down to 1, skipping what earlier levels cleared.

    For rank > 1, each level first takes the super-fidelity ceiling
    F <= sqrt(G); fidelity_series runs only where it does not already
    prove F <= threshold - SLACK, and the tighter of the two upper
    bounds on F sets the angle. At rank 1, G = F^2 costs as much as F.
    """
    a_star = math.acos(threshold - SLACK)
    g_star = (threshold - SLACK) ** 2
    margin = _g_rounding(kernel.dim)
    m = times.size
    out = np.full(m, -np.inf)
    todo = np.ones(m, dtype=bool)
    span = int(min(max(2.0 * (math.pi / 2.0 - a_star) / theta, 1.0), m))
    stride = 1 << (span.bit_length() - 1)
    while stride >= 1:
        idx = np.flatnonzero(todo[::stride]) * stride
        if idx.size:
            upper = np.full(idx.size, np.inf)
            exact = np.ones(idx.size, dtype=bool)
            if kernel.rank > 1:
                g = _super_fidelity(kernel, times[idx]) + margin
                upper = np.sqrt(g)
                exact = g > g_star
            f = fidelity_series(kernel, times[idx[exact]])
            out[idx[exact]] = f
            todo[idx] = False
            # F + SLACK bounds the true F from above, so the angle from below
            upper[exact] = np.minimum(upper[exact], f + SLACK)
            k = (np.arccos(np.minimum(1.0, upper)) - a_star) // theta
            hit = k >= 1
            k = np.minimum(k[hit], m).astype(int)
            j = idx[hit]
            cover = np.bincount(np.maximum(j - k, 0), minlength=m + 1)
            cover -= np.bincount(np.minimum(j + k + 1, m), minlength=m + 1)
            todo &= np.cumsum(cover[:m]) == 0
        stride //= 2
    return out


def _first_crossing(
    chunks: Iterable[tuple[int, np.ndarray, np.ndarray]],
    inside: Callable[[np.ndarray], np.ndarray],
) -> tuple[int | None, int | None]:
    """Grid indices of the first departure (first sample not inside) and
    of the first return after it (first later sample inside), read from
    (lo, times, values) chunks; stops consuming chunks at the return."""
    dep = None
    for lo, _, values in chunks:
        ok = inside(values)
        if dep is None:
            away = np.flatnonzero(~ok)
            if away.size == 0:
                continue
            dep = lo + int(away[0])
        # the departure sample itself is outside, so any hit is after it
        first = max(dep, lo)
        back = np.flatnonzero(ok[first - lo :])
        if back.size:
            return dep, first + int(back[0])
    return dep, None


def _bisect_crossing(
    kernel: EvolutionKernel,
    t_lo: float,
    t_hi: float,
    threshold: float,
    rising: bool,
) -> float:
    """Refine a threshold crossing bracketed by two grid samples, in 10
    halvings of the bracket."""
    for _ in range(10):
        mid = (t_lo + t_hi) / 2.0
        f = float(fidelity_series(kernel, np.array([mid]))[0])
        above = f >= threshold
        if above == rising:
            t_hi = mid
        else:
            t_lo = mid
    return t_hi


def find_recurrence(
    H: Hamiltonian,
    rho0: DensityMatrix,
    threshold: float,
    grid: Grid,
    *,
    allow_coarse: bool = False,
    refine: bool = False,
    report: BoundReport | None = None,
) -> RecurrenceResult:
    """Scan the grid for the first departure below and return above threshold.

    Refuses grids coarser than the Nyquist-tied default unless
    allow_coarse is set. When a BoundReport is supplied, the result
    records whether the measured time respects the bracket to within one
    grid step.
    """
    if not (0.0 < threshold < 1.0):
        raise BadParameter("threshold must be in (0, 1)")
    limit = default_dt(H)
    if grid.dt > limit * (1.0 + 1e-12) and not allow_coarse:
        raise GridTooCoarse(f"dt = {grid.dt} exceeds the default limit {limit}")
    kernel = make_kernel(H, rho0)
    counts = {"samples_evaluated": 0, "chunks": 0}
    dep_idx, rec_idx = _first_crossing(
        _counted(scan(kernel, grid, threshold=threshold), counts), lambda f: f >= threshold
    )
    t_dep = t_rec = None
    if dep_idx is not None:
        t_dep = grid.t0 + grid.dt * dep_idx
        if refine and dep_idx > 0:
            t_dep = _bisect_crossing(
                kernel, t_dep - grid.dt, t_dep, threshold, rising=False
            )
    if rec_idx is not None:
        t_rec = grid.t0 + grid.dt * rec_idx
        if refine:
            t_rec = _bisect_crossing(
                kernel, t_rec - grid.dt, t_rec, threshold, rising=True
            )
    bracket = {}
    if report is not None and t_rec is not None:
        bracket = {
            "lower_mt": report.lower_mt,
            "upper_product": report.upper_product,
            "lower_ok": report.lower_mt - grid.dt <= t_rec,
            "upper_ok": t_rec <= report.upper_product + grid.dt,
        }
    return RecurrenceResult(
        threshold=threshold,
        t_departure=t_dep,
        t_rec=t_rec,
        grid=grid,
        stationary=is_stationary(H, rho0),
        no_departure_within_horizon=dep_idx is None,
        refined=refine,
        bracket_check=bracket,
        # a return window between two samples dips at most this far below
        # arccos(threshold): the angle needs 2 depth / speed to go and come back
        diagnostics={**counts, "missable_depth": kernel.speed * grid.dt / 2.0},
    )


def _counted(chunks, counts: dict):
    """Pass (lo, times, F) chunks through, counting them and the samples
    evaluated in them (the finite F)."""
    for chunk in chunks:
        counts["chunks"] += 1
        counts["samples_evaluated"] += int(np.isfinite(chunk[2]).sum())
        yield chunk


def collect_samples(
    H: Hamiltonian, rho0: DensityMatrix, times: np.ndarray
) -> Iterator[DistanceSample]:
    """Full distance records (fidelity, Bures, trace, HS, torus) per time,
    yielded in order. Fidelity and torus distance are evaluated in the
    blocks of chunk_bounds, so memory stays within CHUNK_BYTES however
    many times there are."""
    kernel = make_kernel(H, rho0)
    torus = None
    if np.all(rho0.populations > SUPPORT_TOL):
        torus = torus_from_state(rho0)
        lam = float(H.energies @ rho0.populations)
    for lo, hi in chunk_bounds(times.size, chunk_cap(40 * H.dim)):
        ts = times[lo:hi]
        f = fidelity_series(kernel, ts)
        if torus is not None:
            tdist = torus_distance_series(torus, torus_phase_at(H, lam, ts))
        bures = bures_from_fidelity(f)
        for i, t in enumerate(ts):
            rho_t = evolve(kernel, t)
            yield DistanceSample(
                t=float(t),
                fidelity=float(f[i]),
                bures=float(bures[i]),
                trace_dist=trace_distance_norm(rho_t, rho0),
                hs_dist=hs_norm(rho_t.matrix - rho0.matrix),
                torus_dist=float(tdist[i]) if torus is not None else None,
            )


def stroboscopic_recurrence(
    H: Hamiltonian,
    rho0: DensityMatrix,
    epsilon: float,
    t: float,
    jmax_cap: int = 100000,
) -> StroboscopicResult:
    """Smallest j >= 1 with F(rho0, rho(j*t)) >= epsilon, searched up to
    min(jmax_cap, ceil of the dimension-only ceiling)."""
    from .bounds import dimension_bound

    if not 0 < t < math.inf:
        raise BadParameter("t must be finite and positive")
    if jmax_cap < 1:
        raise BadParameter(f"jmax_cap must be >= 1, got {jmax_cap}")
    jmax, _ = dimension_bound(rho0.dim, epsilon)
    cap = jmax_cap if math.isinf(jmax) else min(jmax_cap, math.ceil(jmax))
    kernel = make_kernel(H, rho0)
    # grid index j is the step count: sample j sits at 0 + t*j = j*t
    for lo, _, f in scan(kernel, Grid(0.0, t, cap + 1), start=1, threshold=epsilon):
        hits = np.flatnonzero(f >= epsilon)
        if hits.size:
            return StroboscopicResult(
                j_found=lo + int(hits[0]),
                jmax_theory=jmax,
                cap=cap,
                cap_exceeded=False,
            )
    return StroboscopicResult(
        j_found=None, jmax_theory=jmax, cap=cap, cap_exceeded=cap < jmax
    )


def torus_surrogate_scan(
    H: Hamiltonian, rho0: DensityMatrix, r: float, grid: Grid
) -> tuple[float | None, bool]:
    """First grid time after departure at which the torus distance is back
    within r.

    Returns (t, bures_ok): by the submersion inequality, the Bures
    distance at the returned time is <= r as well; bures_ok records the
    explicit check, re-done at 40 digits where float64 flags it. The
    distances are scanned in the chunk schedule of the fidelity scan; at
    its peak a sample holds up to five float rows of n angles (40 n bytes).
    """
    if not r > 0:
        raise BadParameter("need r > 0")
    torus = torus_from_state(rho0)
    lam = float(H.energies @ rho0.populations)
    chunks = _chunks(
        grid,
        chunk_cap(40 * torus.dim),
        lambda ts: torus_distance_series(torus, torus_phase_at(H, lam, ts)),
    )
    dep, rec = _first_crossing(chunks, lambda d: d <= r)
    if dep is None:
        # never leaves the ball: the very first sample is a recurrence witness
        return float(grid.times(0, 1)[0]), True
    if rec is None:
        return None, True
    t = grid.times(rec, rec + 1)
    bures = float(bures_from_fidelity(fidelity_series(make_kernel(H, rho0), t)[0]))
    if bures > r + 1e-9:  # float64 noise near F = 1; re-check at 40 digits
        bures = bures_hp(gram_factor(rho0.matrix), H.energies, H.hbar, float(t[0]))
    return float(t[0]), bures <= r + 1e-9
