"""Empirical recurrence-time measurement on a time grid.

All fidelity scans run through one engine, `scan`. It evaluates the fidelity
F(rho0, rho(t)) in the chunks of `evolution.chunk_bounds`, CHUNK_START
samples doubling up to a cap set by the byte budget CHUNK_BYTES, so a
scan that ends early pays for few samples and no chunk outgrows the
budget. Per sample the kernel needs n phases, one r x n by n x r product
and one r x r nuclear norm, with r the rank of rho0 and W its Gram
factor, which the state carries from its constructor (see
`fidelity_series`). `collect_samples` builds the CSV distance columns
in the same chunks, and `bures_series` turns F into the Bures distance,
exact to float64 near a return as well (see NEAR_RETURN).

Given a threshold, `scan` skips the samples it can prove below
threshold - SLACK, in three steps:

- The torus-window sieve (see `_sieve_pairs` and `_torus_windows`). At
  unit trace F^2 <= (tr rho)^2 - sum over k != k' of
  a_kk' (1 - cos w_kk' t), with a_kk' = |rho_kk'|^2 and w_kk' the Bohr
  frequency, and every term is >= 0. So a return needs
  2 a_kk' (1 - cos w_kk' t) <= b = (tr rho)^2 - (threshold - SLACK)^2
  (plus a rounding margin) for each pair. A pair with 4 a_kk' > b and
  w_kk' != 0 is active: it confines t to windows |w t - 2 pi q| <=
  arccos(1 - b/2a), widened by a pad for the rounding of the phases,
  which grows with |t| (see PHASE_PAD). The windows of the active pairs
  are intersected by increasing |w|, as runs of grid indices while many
  samples survive and sample by sample once few do, in blocks that keep
  them within CHUNK_BYTES: the first chunk first, so a scan that returns
  there pays for no more, then the rest of the grid.
- The speed limit, on the samples the sieve leaves: the Bures angle
  arccos F moves at most dE/hbar per unit time, so one sample far from
  the threshold clears its neighbours (see `_pruned_series`).
- For a mixed rho0, the super-fidelity ceiling
  F^2 <= tr rho0 rho(t) + 1 - tr rho0^2, one n x n quadratic form in the
  phase row, skips the r x r nuclear norm where it already proves F
  below the threshold.

`scan` yields one block shape, (lo, hi, F | None), that tiles the grid.
It goes from one surviving run of the sieve to the next: a stretch with
no survivor is one settled (lo, hi) range with F = None, no times and
no values, and the chunks it evaluates start and end on a survivor, so
its cost follows the survivors, not the grid. Within a chunk a skipped
sample reads F = -inf, so every test F >= threshold reads the same as
on the exhaustive scan. Without a threshold the same walk has one run
over the grid and evaluates every sample.

One rule, `_first_crossing`, reads every departure and return, and it
reads a settled range as all below the threshold. The operational
definition, recorded in every report, is: t_departure is the first grid
time with F below the threshold, t_rec the first grid time after
t_departure with F back at or above it. find_recurrence(refine=True)
then walks the step up to each of the two on a grid of dt/1024 and
reports the first crossing there, read by the same rule.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from typing import NamedTuple

import numpy as np

from .bounds import SUPPORT_TOL, BoundReport, dimension_bound
from .errors import BadParameter, GridTooCoarse
from .evolution import CHUNK_START, EvolutionKernel, chunk_bounds, chunk_cap, make_kernel
from .metrics import bures_from_fidelity, energy_stats, is_stationary, trace_norm
from .states import DensityMatrix, Hamiltonian, _validated_make

# Grid samples one search may ask for: the CLI cuts an auto horizon to it
# and refuses longer explicit grids; stroboscopic_recurrence refuses a
# larger jmax_cap
MAX_AUTO_SAMPLES = 10_000_000
# Fidelity margin of a skipped sample: far above the kernel's ~1e-12 error
SLACK = 1e-9
# Angle pad of the window sieve, in eps per radian of T W + pi (steps + 1),
# with T = |t0| + dt steps and W = 2 max|l_k| >= |l_k| + |l_k'|. In units
# u = eps/2: the kernel's phase of level k at sample j is fl(t_j l_k), with
# t_j = fl(t0 + fl(dt j)) within 2u T of t0 + dt j, so a pair's phase
# difference is within 3u T W of (t0 + dt j) w. The sieve's own rounding
# adds u T W for w = l_k - l_k', u T W for alpha = w t0, u T W for
# j fl(w dt), u (T W + 2 pi steps) for reducing w dt modulo fl(2 pi),
# 4u (2 T W + pi steps + 2 pi) for the window ends in j,
# u (T W + pi steps + 2 pi) for 2 pi q and 4 pi u for delta: in all under
# 8.1 eps T W + 3.5 pi eps steps + 7 pi eps, half of what the pad allows.
PHASE_PAD = 16.0
SIEVE_PAIRS = 16  # level pairs the window sieve intersects at most
# the sieve tests the pairs left sample by sample once this few grid
# samples survive; 2,048 runs the scan benchmark as fast, 128 runs it
# about 6% slower
SIEVE_POINTWISE = 512
SIEVE_BYTES = 128  # peak temporary bytes per window while the sieve intersects
# 1 - F below which bures_series takes the purification form: F carries
# about 1e-16 of rounding, which sqrt(2 - 2F) turns into about 1e-8, and
# above the cut it is within about 1e-12 relative
NEAR_RETURN = 1e-4


def _g_rounding(n: int) -> float:
    """Margin added to the super-fidelity G of an n-level kernel before it
    is compared, 4 (n + 2)^2 eps. The worst-case float64 errors of G's
    parts (W W^dag over r <= n terms, its squared moduli, (tr rho)^2 over
    n r terms, tr rho^2 over n^2, two length-n sums with the phase row)
    add up to under (1.5 n^2 + 3 n + 10) eps, for a unit trace."""
    return 4.0 * (n + 2) ** 2 * np.finfo(float).eps


class _GridFields(NamedTuple):
    t0: float
    dt: float
    steps: int


class Grid(_GridFields):
    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, t0: float, dt: float, steps: int):
        whole = isinstance(steps, (int, np.integer)) and not isinstance(steps, bool)
        if not (np.isfinite(t0) and 0 < dt < math.inf and whole and steps >= 1):
            raise BadParameter("need finite t0, finite dt > 0 and an integer steps >= 1")
        return super().__new__(cls, t0, dt, steps)

    def times(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Times of the samples lo..hi-1 (default: all of them)."""
        hi = self.steps if hi is None else hi
        t = np.arange(lo, hi, dtype=float)
        t *= self.dt  # in place: t0 + dt j, without two more temporaries
        t += self.t0
        return t


class RecurrenceResult(NamedTuple):
    threshold: float
    t_departure: float | None
    t_rec: float | None
    grid: Grid
    stationary: bool  # rho0 commutes with H
    no_departure_within_horizon: bool
    refined: bool
    bracket_check: dict = {}
    diagnostics: dict = {}  # how it was found, see find_recurrence

    def to_dict(self) -> dict:
        step = "time on the dt/1024 grid of the step up to the grid crossing,"
        first = f"first {step if self.refined else 'grid time'}"
        definition = f"{first} after the first departure below threshold"
        # grid as an object: the CLI writes a tuple, so a Grid, as a JSON list
        return {**self._asdict(), "grid": self.grid._asdict(), "definition": definition}


class StroboscopicResult(NamedTuple):
    j_found: int | None
    jmax_theory: float
    cap: int
    cap_exceeded: bool  # search cap below the theory ceiling and nothing found
    diagnostics: dict = {}  # the scan's counts, as in find_recurrence


def default_dt(H: Hamiltonian) -> float:
    """Grid step tied to the fastest Bohr frequency: pi*hbar/(4*max|dE|),
    or pi*hbar/4 when all energies are equal."""
    spread = float(H.energies.max() - H.energies.min())
    return math.pi * H.hbar / (4.0 * (spread or 1.0))


def sample_bytes(n: int, r: int) -> int:
    """Peak temporary bytes per sample of the fidelity kernel: two complex
    rows of n phases, then at rank r > 1 the n x r product U(t) W, the
    r x r matrix M(t) and the SVD's copy of it (at rank 1, M is one
    number)."""
    return 32 * n + (16 * r * (n + 2 * r) if r > 1 else 32)


def fidelity_series(kernel: EvolutionKernel, times: np.ndarray) -> np.ndarray:
    """F(rho0, rho(t)) for every t, vectorized over samples.

    With rho0 = W W^dag (W = kernel.factor), F(t) = ||W^dag U(t) W||_1
    (Uhlmann), U(t) = diag of the phase row exp(-i E t/hbar): the sum of
    the singular values of the r x r matrix M(t) = W^dag U(t) W. For a
    pure state M is the number sum_k |w_k|^2 exp(-i E_k t/hbar). Each
    sample is a matrix product of its own, so values do not depend on
    how the times are split. They go in strides of one cap: each caller
    passes at most one chunk, which chunk_bounds would split in two.
    """
    w, r = kernel.factor, kernel.rank
    out = np.empty(times.size, dtype=float)
    step = chunk_cap(sample_bytes(kernel.dim, r))
    for lo in range(0, times.size, step):
        ts = times[lo : lo + step]
        u = kernel.phases(ts)
        if r == 1:
            # the row u times the column |w_k|^2, one 1 x n row per sample:
            # a plain (T x n) @ (n x 1) product would let BLAS round a row
            # differently with T
            out[lo : lo + ts.size] = np.abs((u[:, None, :] @ (w.conj() * w))[:, 0, 0])
        else:
            m = w.conj().T @ (u[:, :, None] * w)
            out[lo : lo + ts.size] = np.linalg.svd(m, compute_uv=False).sum(axis=1)
    return np.clip(out, 0.0, 1.0)


def near_bytes(n: int, r: int) -> int:
    """Temporary bytes per sample of bures_series' purification form, held
    in rows of n complex phases and in n x r and r x r complex matrices
    (U(t) W, M(t), its SVD factors, V and the products with W); measured
    peaks are 0.5 to 0.85 of it."""
    return 64 * (n + r * (n + r))


def bures_series(kernel: EvolutionKernel, times: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Bures distance between rho0 and rho(t) for every t, from
    f = fidelity_series(kernel, times).

    sqrt(2 - 2F), except where 1 - F < NEAR_RETURN: there it is the
    distance between the purifications W and U(t) W V, d_B =
    ||W - U(t) W V||_F, with V = Q P^dag for the SVD P S Q^dag of
    M(t) = W^dag U(t) W, the unitary that attains ||M||_1 = F. Written as
    W (I - V) - (U - I) W V, with u_k - 1 = 2i sin(a_k/2) e^(i a_k/2) for
    the phase angles a_k, the difference carries an absolute error of a
    few eps, and no square root of 1 - F amplifies it. The near samples
    go in the chunks of chunk_bounds, at near_bytes each.
    """
    d = bures_from_fidelity(f)
    near = np.flatnonzero(1.0 - f < NEAR_RETURN)
    w, r = kernel.factor, kernel.rank
    for lo, hi in chunk_bounds(near.size, chunk_cap(near_bytes(kernel.dim, r))):
        ts = times[near[lo:hi]]
        half = np.multiply.outer(ts, -0.5 * kernel.levels)  # a_k / 2, as in kernel.phases
        u_minus_1 = 2j * np.sin(half) * np.exp(1j * half)
        p, _, qh = np.linalg.svd(w.conj().T @ (kernel.phases(ts)[:, :, None] * w))
        v = (p @ qh).conj().transpose(0, 2, 1)  # Q P^dag
        gap = w @ (np.eye(r) - v) - u_minus_1[:, :, None] * (w @ v)
        d[near[lo:hi]] = np.sqrt((gap.real**2 + gap.imag**2).sum(axis=(1, 2)))
    return d


_COUNTS = ("samples_evaluated", "samples_sieved", "chunks")  # kept by scan


def scan(
    kernel: EvolutionKernel,
    grid: Grid,
    start: int = 0,
    threshold: float | None = None,
    counts: dict | None = None,
) -> Iterator[tuple[int, int, np.ndarray | None]]:
    """Yield (lo, hi, F) blocks that tile grid samples start..steps-1 in
    order: F over lo..hi-1, or None for a settled range, all of whose
    samples are proven F <= threshold - SLACK. Stop iterating to stop the
    scan. Adds to counts (keys _COUNTS) the blocks read, the samples
    evaluated in them (the finite F) and those the window sieve excluded.

    The walk goes from one surviving run of the sieve to the next: a
    settled range ends where a block of the sieve's windows ends or at
    the next survivor, and a chunk goes from a survivor to the last one
    within the chunk schedule's size. In a chunk a skipped sample reads
    F = -inf, and every other F is the one fidelity_series gives.
    Without a threshold, or for a state that does not move, one run
    covers the grid: the chunks are those of chunk_bounds.
    """
    # in Python floats, which overflow to inf with no numpy warning
    kernel.check_span(abs(float(grid.t0)) + float(grid.dt) * float(grid.steps))
    counts = dict.fromkeys(_COUNTS, 0) if counts is None else counts
    cap = chunk_cap(sample_bytes(kernel.dim, kernel.rank))
    theta = kernel.speed * grid.dt
    steps = grid.steps
    prune = threshold is not None and theta > 0.0
    pairs = _sieve_pairs(kernel, grid, threshold) if prune else []
    size = min(CHUNK_START, cap)
    # the sieve's runs cover lo..end-1; its first block is the first
    # chunk, so a scan that returns there builds no more windows
    run_lo, run_hi, end = np.array([start]), np.array([steps - 1]), steps
    if pairs:
        (run_lo, run_hi), end = _torus_windows(pairs, start, min(start + size, steps))
    lo = start
    while lo < steps:
        if lo == end:
            (run_lo, run_hi), end = _torus_windows(pairs, end, steps)
        i = int(np.searchsorted(run_hi, lo))  # the first run not over before lo
        survivor = max(int(run_lo[i]), lo) if i < run_hi.size else end
        if survivor > lo:  # settled: no sample of lo..survivor-1 survives
            hi, f = survivor, None
            counts["samples_sieved"] += hi - lo
        else:  # from this survivor to the last one within size samples
            hi = min(lo + size, end)
            last = int(np.searchsorted(run_lo, hi)) - 1  # the last run to start before hi
            hi = min(hi, int(run_hi[last]) + 1)
            ts = grid.times(lo, hi)
            if prune:
                # lo lies in run i, so a chunk within it keeps every sample
                todo = np.ones(hi - lo, bool) if last == i else _survivors((run_lo, run_hi), lo, hi)
                counts["samples_sieved"] += hi - lo - int(np.count_nonzero(todo))
                f = _pruned_series(kernel, ts, threshold, theta, todo)
            else:
                f = fidelity_series(kernel, ts)
            counts["samples_evaluated"] += int(np.isfinite(f).sum())
            size = min(2 * size, cap)
        counts["chunks"] += 1
        yield lo, hi, f
        lo = hi


def _sieve_pairs(
    kernel: EvolutionKernel, grid: Grid, threshold: float
) -> list[tuple[float, float, float]]:
    """(delta, phi, alpha) of the level pairs the window sieve intersects,
    by increasing |w|: the first SIEVE_PAIRS active pairs whose windows
    leave gaps on the grid.

    F^2 <= G(t) = (tr rho)^2 - sum over k != k' of a_kk' (1 - cos w_kk' t),
    with a = kernel.coherence and w_kk' = l_k - l_k', and every term of
    the sum is >= 0. So F >= threshold - SLACK needs
    2 a_kk' (1 - cos w_kk' t) <= b = (tr rho)^2 - (threshold - SLACK)^2
    + _g_rounding(n) for each pair. A pair with 4 a_kk' > b and w_kk' != 0
    is active: it keeps w t within arccos(1 - b/2a) = 2 arcsin sqrt(b/4a)
    of a multiple of 2 pi. On the grid w t_j = alpha + phi j modulo 2 pi,
    with alpha = |w| t0 and phi = |w| dt folded into [0, pi], so sample j
    can return only if |alpha + phi j - 2 pi q| <= delta for some q, with
    delta the angle above plus the rounding pad of PHASE_PAD.
    """
    a = kernel.coherence
    b = kernel.mixedness + float(a.sum()) - (threshold - SLACK) ** 2
    b += _g_rounding(kernel.dim)
    ks, ls = np.nonzero(np.triu(a > b / 4.0, 1))
    w = np.abs(kernel.levels[ks] - kernel.levels[ls])
    t_max = abs(grid.t0) + grid.dt * grid.steps
    w_max = 2.0 * float(np.abs(kernel.levels).max())
    pad = PHASE_PAD * np.finfo(float).eps * (t_max * w_max + math.pi * (grid.steps + 1))
    two_pi = 2.0 * math.pi
    pairs = []
    for p in np.argsort(w, kind="stable"):
        delta = 2.0 * math.asin(math.sqrt(b / (4.0 * a[ks[p], ls[p]]))) + pad
        phi, alpha = math.fmod(w[p] * grid.dt, two_pi), w[p] * grid.t0
        if phi > math.pi:  # cos(alpha + phi j) = cos(-alpha + (2 pi - phi) j)
            phi, alpha = two_pi - phi, -alpha
        # otherwise the windows cover the grid, or nearly: delta + pad < pi
        # leaves one window that can hold a sample (see _in_windows)
        if delta + pad < math.pi and phi > 0.0:
            pairs.append((delta, phi, alpha))
            if len(pairs) == SIEVE_PAIRS:
                break
    return pairs


def _torus_windows(
    pairs: list[tuple[float, float, float]], lo: int, stop: int
) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """((run_lo, run_hi), end): the sorted, disjoint runs
    run_lo[i]..run_hi[i] of grid indices in lo..end-1 that lie in a window
    of every pair (see _sieve_pairs), with lo < end <= stop.

    The windows are intersected pair by pair as runs; once SIEVE_POINTWISE
    or fewer samples survive, the pairs left are tested on those samples
    at once (see _in_windows), and each sample kept is a run of its own.
    The windows of one pair may not outgrow CHUNK_BYTES: the block
    lo..end-1 is then cut before the first run that does not fit, down to
    no less than sample lo alone, and where even that does not fit the
    intersection stops. Any subset of the pairs gives a sound, looser
    sieve.
    """
    two_pi = 2.0 * math.pi
    budget = chunk_cap(SIEVE_BYTES)
    run_lo, run_hi, end = np.array([float(lo)]), np.array([float(stop - 1)]), stop
    for p, (delta, phi, alpha) in enumerate(pairs):
        count = (run_hi - run_lo + 1.0).astype(np.int64)
        cum = np.cumsum(count)
        alive = int(cum[-1]) if cum.size else 0
        if alive <= SIEVE_POINTWISE:
            j = np.repeat(run_lo - cum + count, count) + np.arange(alive)
            j = j[_in_windows(pairs[p:], j)].astype(np.int64)
            return (j, j), end
        # the windows q that can meet each run, one spare at either end
        qa = np.floor((alpha + phi * run_lo - delta) / two_pi)
        count = np.ceil((alpha + phi * run_hi + delta) / two_pi) - qa + 1.0
        count = count.astype(np.int64)
        cum = np.cumsum(count)
        if cum[-1] > budget:
            # keep the first budget windows: cut run i after the last of
            # them; the next window starts past it, as delta < pi
            i = int(np.searchsorted(cum, budget, side="right"))
            room = budget - (int(cum[i - 1]) if i else 0)
            last = (two_pi * (qa[i] + room - 1) - alpha) / phi
            cut = int(min(max(math.floor(last + delta / phi) + 1, run_lo[i]), run_hi[i] + 1))
            if cut <= lo:
                break
            run_lo, run_hi, qa = run_lo[: i + 1], run_hi[: i + 1].copy(), qa[: i + 1]
            count = count[: i + 1].copy()
            run_hi[i], count[i], end = cut - 1, room, cut
            cum = np.cumsum(count)
        run = np.repeat(np.arange(count.size), count)
        q = qa[run] + (np.arange(cum[-1]) - np.repeat(cum - count, count))
        centre = (two_pi * q - alpha) / phi
        new_lo = np.maximum(run_lo[run], np.ceil(centre - delta / phi))
        new_hi = np.minimum(run_hi[run], np.floor(centre + delta / phi))
        keep = new_lo <= new_hi
        run_lo, run_hi = new_lo[keep], new_hi[keep]
    return (run_lo.astype(np.int64), run_hi.astype(np.int64)), end


def _in_windows(pairs: list[tuple[float, float, float]], j: np.ndarray) -> np.ndarray:
    """Mask over the grid indices j (floats) of those in a window of every
    pair, in one pairs x samples array and in _torus_windows' arithmetic:
    j lies in window q when ceil(centre - delta/phi) <= j <= floor(centre +
    delta/phi), centre = (2 pi q - alpha)/phi, and for an integer j the
    ceil and floor change nothing. Such a q has |alpha + phi j - 2 pi q|
    within delta plus half the pad, and (alpha + phi j)/2 pi is rounded by
    less than another half (see PHASE_PAD); as _sieve_pairs keeps delta +
    pad < pi, only the q nearest to it can hold j."""
    two_pi = 2.0 * math.pi
    delta, phi, alpha = (np.array(col)[:, None] for col in zip(*pairs))
    centre = (two_pi * np.rint((alpha + phi * j) / two_pi) - alpha) / phi
    half = delta / phi
    return ((centre - half <= j) & (j <= centre + half)).all(axis=0)


def _survivors(runs: tuple[np.ndarray, np.ndarray], lo: int, hi: int) -> np.ndarray:
    """Mask over grid samples lo..hi-1 of those the sieve's runs keep."""
    m = hi - lo
    run_lo, run_hi = runs
    a, b = np.searchsorted(run_hi, lo), np.searchsorted(run_lo, hi)
    # gaps and runs alternate between the edges 0, lo_a, hi_a + 1, ..., m
    edges = np.empty(2 * (b - a) + 2, dtype=np.int64)
    edges[0], edges[1:-1:2], edges[2:-1:2], edges[-1] = 0, run_lo[a:b] - lo, run_hi[a:b] + 1 - lo, m
    np.clip(edges, 0, m, out=edges)
    return np.repeat(np.arange(edges.size - 1) % 2 == 1, np.diff(edges))


def _super_fidelity(kernel: EvolutionKernel, times: np.ndarray) -> np.ndarray:
    """G(t) = tr rho0 rho(t) + 1 - tr rho0^2 for every t, an upper bound on
    F^2 (super-fidelity, Miszczak et al., QIC 9, 103 (2009)); rho(t) has
    the purity of rho0. tr rho0 rho(t) = u . |rho0_kk'|^2 . conj(u) with u
    the phase row, so a sample costs one row-times-matrix product."""
    u = kernel.phases(times)
    v = u @ kernel.coherence
    return (u.real * v.real + u.imag * v.imag).sum(axis=1) + kernel.mixedness


def _pruned_series(
    kernel: EvolutionKernel,
    times: np.ndarray,
    threshold: float,
    theta: float,
    todo: np.ndarray,
) -> np.ndarray:
    """fidelity_series on the evenly spaced times where todo is set, -inf
    where skipped; todo is used up.

    The Bures angle A(t) = arccos F moves at most theta per step, so a
    sample j with angle A_j proves every sample within
    k_j = floor((A_j - A*)/theta) steps has A >= A* =
    arccos(threshold - SLACK). Samples are evaluated coarse to fine:
    every stride-th one first, stride the largest power of two at which
    two samples at the top angle A_top could clear the gap between them
    (k_max = (A_top - A*)/theta steps each), then halving down to 1,
    skipping what earlier levels cleared. When no two todo samples lie
    within k_max steps of each other, the first stride is 1: they are
    all evaluated at once. Each clearing is proven by its own sample, so
    A_top only sets the order of evaluation.

    For rank > 1, each level first takes the super-fidelity ceiling
    F <= sqrt(G); fidelity_series runs only where it does not already
    prove F <= threshold - SLACK, and the tighter of the two upper
    bounds on F sets the angle. As G >= mixedness, the ceiling proves no
    angle above arccos sqrt(mixedness), which is then A_top where it
    exceeds A*; otherwise A_top is pi/2. At rank 1, G = F^2 costs as much
    as F.
    """
    a_star = math.acos(threshold - SLACK)
    g_star = (threshold - SLACK) ** 2
    margin = _g_rounding(kernel.dim)
    m = times.size
    out = np.full(m, -np.inf)
    top = math.pi / 2.0
    g_floor = math.sqrt(max(kernel.mixedness, 0.0))
    if kernel.rank > 1 and g_floor < threshold - SLACK:
        top = math.acos(g_floor)
    k_max = (top - a_star) / theta
    span = min(max(2.0 * k_max, 1.0), m)
    if np.all(np.diff(np.flatnonzero(todo)) > k_max):
        span = 1  # isolated samples: none is expected to clear another
    stride = 1 << (int(span).bit_length() - 1)
    while stride >= 1:
        idx = np.flatnonzero(todo[::stride]) * stride
        if idx.size:
            upper = np.full(idx.size, np.inf)
            exact = np.ones(idx.size, dtype=bool)
            if kernel.rank > 1:
                g = _super_fidelity(kernel, times[idx]) + margin
                upper = np.sqrt(g)
                exact = g > g_star
            if exact.any():
                f = fidelity_series(kernel, times[idx[exact]])
                out[idx[exact]] = f
                # F + SLACK bounds the true F from above, so the angle from below
                upper[exact] = np.minimum(upper[exact], f + SLACK)
            todo[idx] = False
            if stride == 1:  # the last level: nothing is left to clear
                break
            k = (np.arccos(np.minimum(1.0, upper)) - a_star) // theta
            hit = k >= 1
            if hit.any():
                k = np.minimum(k[hit], m).astype(int)
                j = idx[hit]
                # clear the pending samples within k[i] steps of some j[i]
                order = np.argsort(j - k, kind="stable")
                start, reach = (j - k)[order], np.maximum.accumulate((j + k)[order])
                pending = np.flatnonzero(todo)
                i = np.searchsorted(start, pending, side="right") - 1
                todo[pending[(i >= 0) & (reach[np.maximum(i, 0)] >= pending)]] = False
        stride //= 2
    return out


def _first_crossing(
    blocks: Iterable[tuple[int, int, np.ndarray | None]], threshold: float
) -> tuple[int | None, int | None]:
    """Grid indices of the first departure (first sample with F below
    threshold) and of the first return after it (first later sample with
    F >= threshold), read from (lo, hi, F) blocks as scan yields them,
    where F None is a settled range, all of it below; stops consuming
    blocks at the return."""
    dep = None
    for lo, _, f in blocks:
        if f is None:  # a settled range: every sample is below
            if dep is None:
                dep = lo
            continue
        ok = f >= threshold
        if dep is None:
            away = np.flatnonzero(~ok)
            if away.size == 0:
                continue
            dep = lo + int(away[0])
        # the departure sample itself is below, so any hit is after it
        first = max(dep, lo)
        back = np.flatnonzero(ok[first - lo :])
        if back.size:
            return dep, first + int(back[0])
    return dep, None


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
    allow_coarse is set. refine moves each crossing at a grid time t > t0
    to the first of its kind on Grid(t - dt, dt/1024, 1024), if any; the
    counts of those walks stay out of diagnostics. When a BoundReport is
    supplied, the result records whether the measured time respects the
    bracket to within one grid step.
    """
    if not (0.0 < threshold < 1.0):
        raise BadParameter("threshold must be in (0, 1)")
    limit = default_dt(H)
    if grid.dt > limit * (1.0 + 1e-12) and not allow_coarse:
        raise GridTooCoarse(f"dt = {grid.dt} exceeds the default limit {limit}")
    kernel = make_kernel(H, rho0)
    stationary = is_stationary(H, rho0)
    counts = dict.fromkeys(_COUNTS, 0)
    # a stationary state's moving coherences lie below n eps max|rho0|
    # (is_stationary), so ||rho(t) - rho0||_1 < 2 n^(5/2) eps max|rho0| and,
    # by Fuchs-van de Graaf, F(t) stays above 1 - n^(5/2) eps max|rho0|
    floor = 1.0 - rho0.dim**2.5 * np.finfo(float).eps * float(np.abs(rho0.matrix).max())
    dep_idx = rec_idx = None
    if not (stationary and threshold < floor):
        dep_idx, rec_idx = _first_crossing(scan(kernel, grid, 0, threshold, counts), threshold)
    times = []
    for side, i in enumerate((dep_idx, rec_idx)):
        t = None if i is None else grid.t0 + grid.dt * i
        if refine and i:  # the first crossing on the dt/1024 grid of the step up to t
            fine = Grid(t - grid.dt, grid.dt / 1024, 1024)
            k = _first_crossing(scan(kernel, fine, 0, threshold), threshold)[side]
            t = t if k is None else fine.t0 + fine.dt * k
        times.append(t)
    t_dep, t_rec = times
    bracket = {} if report is None or t_rec is None else report.bracket_check(t_rec, grid.dt)
    return RecurrenceResult(
        threshold=threshold,
        t_departure=t_dep,
        t_rec=t_rec,
        grid=grid,
        stationary=stationary,
        no_departure_within_horizon=dep_idx is None,
        refined=refine,
        bracket_check=bracket,
        # a return window between two samples dips at most this far below
        # arccos(threshold): the angle needs 2 depth / speed to go and come back
        diagnostics={**counts, "missable_depth": kernel.speed * grid.dt / 2.0},
    )


def _hs_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix a[k], to the last bit: np.linalg.norm
    takes re.re + im.im over the flattened entries as two dot products,
    and a stacked (T, 1, m) @ (T, m, 1) product takes the same ones, where
    a sum over axes (1, 2) would round differently."""
    flat = a.reshape(a.shape[0], 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


def collect_samples(
    H: Hamiltonian, rho0: DensityMatrix, times: np.ndarray
) -> Iterator[dict[str, np.ndarray | None]]:
    """Distance columns over the times, one dict per chunk of chunk_bounds,
    in order, from each CSV column name (t, fidelity, bures, trace_dist,
    hs_dist, torus_dist) to an array over the chunk; torus_dist is None
    when a population is <= SUPPORT_TOL. The trace distances come from
    one stacked eigvalsh per chunk, of about 80 n^2 + 40 n bytes per
    time, so memory stays within CHUNK_BYTES; bures_series, called first,
    walks the samples near a return within it as well."""
    from . import torus  # only these columns read the phase torus

    kernel = make_kernel(H, rho0)
    kernel.check_span(np.abs(times).max(initial=0.0))
    flat = torus.torus_from_state(rho0) if np.all(rho0.populations > SUPPORT_TOL) else None
    lam, _ = energy_stats(H, rho0)
    for lo, hi in chunk_bounds(times.size, chunk_cap(40 * H.dim * (2 * H.dim + 1))):
        ts = times[lo:hi]
        f = fidelity_series(kernel, ts)
        bures = bures_series(kernel, ts, f)
        u = kernel.phases(ts)
        # rho(t) - rho0 in evolve's operand order: swapped, the product rounds differently
        diff = rho0.matrix * (u[:, :, None] * u.conj()[:, None, :]) - rho0.matrix
        trace_dist, hs_dist = trace_norm(diff), _hs_norms(diff)
        del u, diff  # not held through the next chunk's bures_series
        yield {
            "t": ts,
            "fidelity": f,
            "bures": bures,
            "trace_dist": trace_dist,
            "hs_dist": hs_dist,
            "torus_dist": None
            if flat is None
            else torus.torus_distance_series(flat, torus.torus_phase_at(H, lam, ts)),
        }


def __getattr__(name):
    """torus.torus_distance_series, importable from here without loading
    `torus` at import; bound here on first access, so that code which
    swaps the attribute and puts it back finds the object it saved."""
    if name != "torus_distance_series":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import torus

    value = globals()[name] = torus.torus_distance_series
    return value


def stroboscopic_recurrence(
    H: Hamiltonian,
    rho0: DensityMatrix,
    epsilon: float,
    t: float,
    jmax_cap: int = 100000,
) -> StroboscopicResult:
    """Smallest j >= 1 with F(rho0, rho(j*t)) >= epsilon, searched up to
    min(jmax_cap, ceil of the dimension-only ceiling); jmax_cap must lie
    in 1..MAX_AUTO_SAMPLES."""
    if not 0 < t < math.inf:
        raise BadParameter("t must be finite and positive")
    if jmax_cap < 1:
        raise BadParameter(f"jmax_cap must be >= 1, got {jmax_cap}")
    if jmax_cap > MAX_AUTO_SAMPLES:
        raise BadParameter(
            f"jmax_cap must be <= MAX_AUTO_SAMPLES = {MAX_AUTO_SAMPLES}, got {jmax_cap}"
        )
    jmax, _ = dimension_bound(rho0.dim, epsilon)
    cap = jmax_cap if math.isinf(jmax) else min(jmax_cap, math.ceil(jmax))
    kernel = make_kernel(H, rho0)
    counts = dict.fromkeys(_COUNTS, 0)
    j_found = None
    # grid index j is the step count: sample j sits at 0 + t*j = j*t
    for lo, _, f in scan(kernel, Grid(0.0, t, cap + 1), 1, epsilon, counts):
        if f is not None and (f >= epsilon).any():  # no j in a settled range (None) returns
            j_found = lo + int(np.argmax(f >= epsilon))
            break
    return StroboscopicResult(
        j_found=j_found, jmax_theory=jmax, cap=cap, cap_exceeded=j_found is None and cap < jmax,
        diagnostics=counts,
    )
