"""Empirical recurrence-time measurement on a time grid.

All grid scans run through one engine, `scan`. It evaluates the fidelity
F(rho0, rho(t)) in chunks of CHUNK_START samples that double up to a cap
set by the byte budget CHUNK_BYTES, so a scan that ends early pays for
few samples and no chunk outgrows the budget. Per sample the kernel
needs n phases and one r x r nuclear norm, with r the rank of rho0 (see
`fidelity_series`). The operational definition, recorded in every
report, is: t_departure is the first grid time with F below the
threshold, t_rec the first grid time after t_departure with F back at
or above it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundReport
from .errors import BadParameter, GridTooCoarse
from .evolution import (
    CHUNK_BYTES,
    EvolutionKernel,
    evolve,
    is_stationary,
    make_kernel,
)
from .metrics import DistanceSample
from .states import DensityMatrix, Hamiltonian
from .torus import (
    FlatTorus,
    torus_distance_series,
    torus_from_state,
    torus_phase_at,
)

CHUNK_START = 256  # samples in a scan's first chunk; later chunks double


@dataclass(frozen=True)
class Grid:
    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and self.dt > 0 and self.steps >= 1):
            raise BadParameter("need finite t0, dt > 0 and steps >= 1")

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
    samples: tuple[DistanceSample, ...] = ()
    bracket_check: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "t_departure": self.t_departure,
            "t_rec": self.t_rec,
            "grid": {"t0": self.grid.t0, "dt": self.grid.dt, "steps": self.grid.steps},
            "stationary": self.stationary,
            "no_departure_within_horizon": self.no_departure_within_horizon,
            "refined": self.refined,
            "definition": "first grid time after the first departure below threshold",
            "bracket_check": dict(self.bracket_check),
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


def chunk_cap(n: int, r: int) -> int:
    """Most samples one chunk may hold within CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // sample_bytes(n, r))


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
    step = chunk_cap(kernel.dim, r)
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


def scan(
    kernel: EvolutionKernel, grid: Grid, start: int = 0
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (lo, times, F) over grid samples start..steps-1 in growing
    chunks (see chunk_bounds); lo is the grid index of times[0]. Stop
    iterating to stop the scan."""
    cap = chunk_cap(kernel.dim, kernel.rank)
    for lo, hi in chunk_bounds(grid.steps, cap, start):
        ts = grid.times(lo, hi)
        yield lo, ts, fidelity_series(kernel, ts)


def _first_crossing(
    kernel: EvolutionKernel,
    grid: Grid,
    threshold: float,
    on_chunk: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> tuple[int | None, int | None]:
    """Indices of the first departure below threshold and the first return
    to it. on_chunk(times, F), if given, sees every chunk scanned."""
    dep = None
    for lo, ts, f in scan(kernel, grid):
        if on_chunk is not None:
            on_chunk(ts, f)
        if dep is None:
            below = np.flatnonzero(f < threshold)
            if below.size == 0:
                continue
            dep = lo + int(below[0])
        # the departure sample itself is below threshold, so any hit is after it
        first = max(dep, lo)
        above = np.flatnonzero(f[first - lo :] >= threshold)
        if above.size:
            return dep, first + int(above[0])
    return dep, None


def _bisect_crossing(
    kernel: EvolutionKernel,
    t_lo: float,
    t_hi: float,
    threshold: float,
    rising: bool,
    iterations: int = 10,
) -> float:
    """Refine a threshold crossing bracketed by two grid samples."""
    for _ in range(iterations):
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
    record_samples: bool = False,
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
    dep_idx, rec_idx = _first_crossing(kernel, grid, threshold)
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
    samples = ()
    if record_samples:
        samples = tuple(collect_samples(H, rho0, grid.times()))
    return RecurrenceResult(
        threshold=threshold,
        t_departure=t_dep,
        t_rec=t_rec,
        grid=grid,
        stationary=is_stationary(H, rho0),
        no_departure_within_horizon=dep_idx is None,
        refined=refine,
        samples=samples,
        bracket_check=bracket,
    )


def collect_samples(
    H: Hamiltonian, rho0: DensityMatrix, times: np.ndarray
) -> list[DistanceSample]:
    """Full distance records (fidelity, Bures, trace, HS, torus) per time."""
    kernel = make_kernel(H, rho0)
    f = fidelity_series(kernel, times)
    torus = None
    if np.all(rho0.populations > 1e-14):
        torus = torus_from_state(rho0)
        lam = float(H.energies @ rho0.populations)
        tdist = torus_distance_series(torus, torus_phase_at(H, lam, times))
    out = []
    rho0m = rho0.matrix
    for i, t in enumerate(times):
        diff = evolve(kernel, t).matrix - rho0m
        out.append(
            DistanceSample(
                t=float(t),
                fidelity=float(f[i]),
                bures=float(np.sqrt(max(0.0, 2.0 - 2.0 * f[i]))),
                trace_dist=float(np.abs(np.linalg.eigvalsh(diff)).sum()),
                hs_dist=float(np.linalg.norm(diff)),
                torus_dist=float(tdist[i]) if torus is not None else None,
            )
        )
    return out


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

    if not t > 0:
        raise BadParameter("t must be positive")
    jmax, _ = dimension_bound(rho0.dim, epsilon)
    cap = jmax_cap if math.isinf(jmax) else min(jmax_cap, math.ceil(jmax))
    kernel = make_kernel(H, rho0)
    # grid index j is the step count: sample j sits at 0 + t*j = j*t
    for lo, _, f in scan(kernel, Grid(0.0, t, cap + 1), start=1):
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
    explicit check.
    """
    if not r > 0:
        raise BadParameter("need r > 0")
    torus = torus_from_state(rho0)
    lam = float(H.energies @ rho0.populations)
    times = grid.times()
    dist = torus_distance_series(torus, torus_phase_at(H, lam, times))
    away = np.flatnonzero(dist > r)
    if away.size == 0:
        # never leaves the ball: the very first sample is a recurrence witness
        return float(times[0]), True
    back = np.flatnonzero(dist[away[0] :] <= r)
    if back.size == 0:
        return None, True
    idx = int(away[0] + back[0])
    kernel = make_kernel(H, rho0)
    f = float(fidelity_series(kernel, times[idx : idx + 1])[0])
    bures = math.sqrt(max(0.0, 2.0 - 2.0 * f))
    return float(times[idx]), bures <= r + 1e-9
