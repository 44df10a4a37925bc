"""The scan engine: Gram-form fidelity kernel, chunk schedule, crossings."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import qrecur
from qrecur import (
    Hamiltonian,
    default_dt,
    evolve,
    fidelity,
    find_recurrence,
    make_kernel,
    pure_state,
    random_density,
    search,
    torus_from_state,
    torus_phase_at,
    torus_surrogate_scan,
    validate_density,
    verify,
)
from qrecur.evolution import CHUNK_BYTES
from qrecur.search import (
    CHUNK_START,
    SLACK,
    Grid,
    _first_crossing,
    chunk_bounds,
    chunk_cap,
    fidelity_series,
    sample_bytes,
    scan,
)
from qrecur.torus import torus_distance_series


def _pure_system(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi /= np.linalg.norm(psi)
    return Hamiltonian(np.sort(rng.uniform(0.0, 1.0, n))), psi


def _pure_fidelity_mp(psi, energies, t):
    """|sum_k |psi_k|^2 exp(-i E_k t)| at 40 digits."""
    with mp.workdps(40):
        p = [mp.mpf(float(z.real)) ** 2 + mp.mpf(float(z.imag)) ** 2 for z in psi]
        amp = mp.fsum(
            pk * mp.expj(-mp.mpf(float(e)) * mp.mpf(float(t))) for pk, e in zip(p, energies)
        )
        return float(abs(amp) / mp.fsum(p))


def _mixed_rank(n, r, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    m = w @ w.conj().T
    return Hamiltonian(np.sort(rng.uniform(0.0, 1.0, n))), m / m.trace().real


class TestKernel:
    def test_pure_state_has_rank_one(self):
        H, psi = _pure_system(8, 0)
        k = make_kernel(H, pure_state(psi))
        assert k.rank == 1
        assert k.gram.shape == (8, 1)
        assert np.allclose(k.gram[:, 0], np.abs(psi) ** 2, atol=1e-15)

    def test_rank_deficient_state_keeps_its_support(self):
        H, m = _mixed_rank(6, 2, 3)
        k = make_kernel(H, validate_density(m))
        assert k.rank == 2
        assert k.gram.shape == (6, 4)

    def test_pure_state_matches_40_digits(self):
        # rank-deficient states used to carry a +1e-8 bias from square
        # roots of clipped round-off eigenvalues
        H, psi = _pure_system(8, 1)
        rho0 = pure_state(psi)
        kernel = make_kernel(H, rho0)
        times = np.linspace(0.3, 60.0, 41)
        ref = np.array([_pure_fidelity_mp(psi, H.energies, t) for t in times])
        series = fidelity_series(kernel, times)
        single = np.array([fidelity(rho0, evolve(kernel, t)) for t in times])
        assert np.abs(series - ref).max() <= 1e-12
        assert np.abs(single - ref).max() <= 1e-12

    def test_full_rank_matches_singular_value_form(self):
        H, m = _mixed_rank(5, 5, 4)
        rho0 = validate_density(m)
        kernel = make_kernel(H, rho0)
        times = np.linspace(0.0, 30.0, 25)
        vals, vecs = np.linalg.eigh(rho0.matrix)
        w = vecs * np.sqrt(vals)
        ref = []
        for t in times:
            m_t = w.conj().T @ (np.exp(-1j * H.energies * t)[:, None] * w)
            ref.append(np.linalg.svd(m_t, compute_uv=False).sum())
        assert np.allclose(fidelity_series(kernel, times), ref, atol=1e-13)


class TestChunkSchedule:
    def test_sizes_double_from_start_to_cap(self):
        sizes = [hi - lo for lo, hi in chunk_bounds(10_000, 2048)]
        assert sizes[:4] == [CHUNK_START, 2 * CHUNK_START, 4 * CHUNK_START, 2048]
        assert set(sizes[3:-1]) == {2048}
        assert sum(sizes) == 10_000

    def test_blocks_tile_the_range_from_start(self):
        bounds = list(chunk_bounds(1000, 300, start=1))
        assert bounds[0] == (1, 257)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1][1] == 1000
        assert list(chunk_bounds(5, 300, start=5)) == []

    @pytest.mark.parametrize("r", [1, 8, 64])
    def test_budget_holds_at_n64(self, r):
        # schedule only: nothing of this size is allocated
        cap = chunk_cap(sample_bytes(64, r))
        sizes = [hi - lo for lo, hi in chunk_bounds(2_000_000, cap)]
        assert max(sizes) * sample_bytes(64, r) <= CHUNK_BYTES
        assert sum(sizes) == 2_000_000
        assert sizes[0] == min(CHUNK_START, cap)

    def test_measured_peak_within_budget(self, monkeypatch):
        budget = 2**20
        monkeypatch.setattr(search, "CHUNK_BYTES", budget)
        H, m = _mixed_rank(12, 12, 5)
        kernel = make_kernel(H, validate_density(m))
        times = np.linspace(0.0, 100.0, 20_000)
        tracemalloc.start()
        try:
            fidelity_series(kernel, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and its clipped copy come on top of the chunk budget
        assert peak <= budget + 2 * times.nbytes + 64 * 1024

    def test_torus_surrogate_peak_within_budget(self, monkeypatch):
        budget = 2**20
        monkeypatch.setattr(search, "CHUNK_BYTES", budget)
        H = Hamiltonian(np.sort(np.random.default_rng(7).uniform(0.0, 1.0, 8)))
        rho0 = random_density(8, 3)
        grid = Grid(0.0, default_dt(H), 200_000)
        tracemalloc.start()
        try:
            t, _ = torus_surrogate_scan(H, rho0, 0.05, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t is None  # no return: every chunk of the grid was scanned
        assert peak <= budget + 64 * 1024

    def test_collect_samples_peak_within_budget(self, monkeypatch):
        # the rows of qrecur search --csv; 5.95 MB when they came as one list
        budget = 2**20
        monkeypatch.setattr(search, "CHUNK_BYTES", budget)
        H = Hamiltonian(np.sort(np.random.default_rng(8).uniform(0.0, 1.0, 8)))
        rho0 = random_density(8, 4)
        times = Grid(0.0, default_dt(H), 20_000).times()
        tracemalloc.start()
        try:
            rows = sum(block["t"].size for block in search.collect_samples(H, rho0, times))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == times.size
        assert peak <= budget + 2 * times.nbytes + 64 * 1024


class TestSplitInvariance:
    @pytest.mark.parametrize("n, r", [(2, 1), (16, 1), (5, 5), (6, 2), (16, 16)])
    def test_values_bit_identical_across_splits(self, n, r):
        H, m = _mixed_rank(n, r, 7)
        kernel = make_kernel(H, validate_density(m))
        grid = Grid(0.0, 0.37, 3000)
        whole = fidelity_series(kernel, grid.times())
        chunks = np.concatenate([f for _, _, f in scan(kernel, grid)])
        assert np.array_equal(whole, chunks)
        for cut in (1, 255, 256, 257, 1999):
            head = fidelity_series(kernel, grid.times(0, cut))
            tail = fidelity_series(kernel, grid.times(cut))
            parts = np.concatenate([head, tail])
            assert np.array_equal(whole, parts)
        picks = range(0, 3000, 173)
        singles = [fidelity_series(kernel, grid.times(j, j + 1))[0] for j in picks]
        assert np.array_equal(whole[::173], singles)

    def test_grid_slices_match_whole_grid(self):
        grid = Grid(0.25, 0.013, 5000)
        assert np.array_equal(grid.times()[1234:4321], grid.times(1234, 4321))


def _brute_force(inside):
    """First False of a mask over the whole grid, and the first True after it."""
    away = np.flatnonzero(~inside)
    if away.size == 0:
        return None, None
    dep = int(away[0])
    back = np.flatnonzero(inside[dep:])
    return dep, (dep + int(back[0]) if back.size else None)


class TestFirstCrossingOnChunkBoundaries:
    """F = |cos(t/2)| for the equal qubit superposition: falls from 1 on
    [0, pi] and rises back on [pi, 2 pi], so a threshold between two
    neighbouring samples puts a crossing on a chosen index."""

    pruned = False  # scan with the threshold, skipping what the speed limit clears

    def setup_method(self):
        self.H = Hamiltonian(np.array([0.0, 1.0]))
        self.kernel = make_kernel(self.H, pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0)))

    def _scan(self, grid, threshold):
        return scan(self.kernel, grid, threshold=threshold if self.pruned else None)

    def _check(self, grid, threshold):
        expected = _brute_force(fidelity_series(self.kernel, grid.times()) >= threshold)
        found = _first_crossing(self._scan(grid, threshold), lambda f: f >= threshold)
        assert found == expected
        return expected

    @pytest.mark.parametrize("index", [255, 256, 257, 767, 768])
    def test_departure_on_boundary(self, index):
        grid = Grid(0.0, 1.0 / (index + 0.5), 8 * index)
        f = fidelity_series(self.kernel, grid.times(index - 1, index + 1))
        dep, rec = self._check(grid, (f[0] + f[1]) / 2.0)
        assert dep == index and rec is not None

    @pytest.mark.parametrize("index", [255, 256, 257, 767, 768])
    def test_return_on_boundary(self, index):
        grid = Grid(0.0, 2.0 * math.pi / (index + 3.5), index + 50)
        f = fidelity_series(self.kernel, grid.times(index - 1, index + 1))
        dep, rec = self._check(grid, (f[0] + f[1]) / 2.0)
        assert rec == index and dep < index

    def test_no_return_within_grid(self):
        grid = Grid(0.0, 0.01, 500)  # t <= 5 < 2 pi - 2 arccos(0.99)
        assert self._check(grid, 0.99)[1] is None

    def test_reading_stops_at_the_return_chunk(self):
        grid = Grid(0.0, 2.0 * math.pi / 700.5, 5000)
        seen = []

        def chunks():
            for chunk in self._scan(grid, 0.9):
                seen.append(chunk[1])
                yield chunk

        dep, rec = _first_crossing(chunks(), lambda f: f >= 0.9)
        times = np.concatenate(seen)
        assert np.array_equal(times, grid.times(0, times.size))
        assert rec < times.size <= 2 * rec


class TestPrunedFirstCrossingOnChunkBoundaries(TestFirstCrossingOnChunkBoundaries):
    pruned = True


def _ensemble_case(i):
    """Instance i of the bracket ensemble at seed 42, with its threshold
    and grid."""
    H, rho0, u = verify._random_instance([42, i])
    eps = u * math.pi * float(np.sqrt(rho0.populations.min()))
    report = qrecur.bounds.energy_bounds(H, rho0, eps)
    dt = min(default_dt(H), report.lower_mt / 4.0)
    steps = math.ceil((report.upper_product + 2.0 * dt) / dt)
    return H, rho0, 1.0 - eps**2 / 4.0, Grid(0.0, dt, steps)


class TestPrunedScan:
    """scan(..., threshold=...) skips samples the Bures-angle speed limit
    proves below threshold - SLACK, and finds the crossings the
    exhaustive scan finds."""

    @staticmethod
    def _crossings(H, rho0, threshold, grid):
        kernel = make_kernel(H, rho0)
        inside = lambda f: f >= threshold  # noqa: E731

        def paired():
            exhaustive = scan(kernel, grid)
            for (lo, ts, f), (_, _, g) in zip(scan(kernel, grid, threshold=threshold), exhaustive):
                skipped = np.isneginf(f)
                assert np.array_equal(f[~skipped], g[~skipped])
                assert np.all(g[skipped] <= threshold - SLACK + 1e-12)
                yield lo, ts, f

        found = _first_crossing(paired(), inside)
        assert found == _first_crossing(scan(kernel, grid), inside)
        return found

    def test_bracket_ensemble_crossings_match_exhaustive(self):
        for i in range(200):
            self._crossings(*_ensemble_case(i))

    @pytest.mark.parametrize(
        "i, threshold, t_rec", [(68, 0.99, 387.535), (80, 0.999, None), (144, 0.999, 311.598)]
    )
    def test_grid_misses_stay_as_they_were(self, i, threshold, t_rec):
        # the default grid steps over the true first return of these three
        # (137.7, 207.0 and 110.5 on a 64 times finer grid); skipping
        # samples must neither mend nor move that
        H, rho0, _ = verify._random_instance([42, i])
        grid = Grid(0.0, default_dt(H), math.ceil(400.0 / default_dt(H)))
        dep, rec = self._crossings(H, rho0, threshold, grid)
        assert dep == 1
        assert (rec is None) == (t_rec is None)
        res = find_recurrence(H, rho0, threshold, grid)
        assert res.t_rec == (None if rec is None else grid.times(rec, rec + 1)[0])
        if t_rec is not None:
            assert res.t_rec == pytest.approx(t_rec, abs=1e-3)

    def test_strobe_matches_exhaustive(self):
        H, m = _mixed_rank(6, 6, 11)
        rho0 = validate_density(m)
        kernel = make_kernel(H, rho0)
        f = fidelity_series(kernel, 0.37 * np.arange(1, 20_001))
        for eps in (0.9, 0.99, float(np.sort(f)[-3])):
            hits = np.flatnonzero(f >= eps)
            expected = int(hits[0]) + 1 if hits.size else None
            assert search.stroboscopic_recurrence(H, rho0, eps, 0.37, 20_000).j_found == expected

    def test_full_rank_n16_evaluates_under_a_quarter(self):
        # the benchmark's full-rank mixture: 0.7 of a pure state with equal
        # populations and random phases, 0.3 of a random full-rank state
        rng = np.random.default_rng(16)
        H = Hamiltonian(np.sort(rng.uniform(0.0, 1.0, 16)))
        psi = np.exp(2j * np.pi * rng.uniform(size=16)) / 4.0
        rho0 = validate_density(0.7 * np.outer(psi, psi.conj()) + 0.3 * random_density(16, rng).matrix)
        eps = 0.01 * math.pi * math.sqrt(float(rho0.populations.min()))
        grid = Grid(0.0, default_dt(H), 16_384)
        res = find_recurrence(H, rho0, 1.0 - eps**2 / 4.0, grid)
        assert res.t_departure is not None and res.t_rec is None  # the whole grid
        assert res.diagnostics["chunks"] == len(list(chunk_bounds(16_384, chunk_cap(sample_bytes(16, 16)))))
        assert res.diagnostics["samples_evaluated"] < grid.steps / 4

    def test_full_rank_n32_evaluates_under_one_percent(self):
        # the benchmark's n = 32 full-rank mixture: the super-fidelity
        # ceiling proves nearly every sample below threshold without an SVD
        rng = np.random.default_rng(32)
        H = Hamiltonian(np.sort(rng.uniform(0.0, 1.0, 32)))
        psi = np.exp(2j * np.pi * rng.uniform(size=32)) / math.sqrt(32.0)
        rho0 = validate_density(0.7 * np.outer(psi, psi.conj()) + 0.3 * random_density(32, rng).matrix)
        eps = 0.01 * math.pi * math.sqrt(float(rho0.populations.min()))
        threshold = 1.0 - eps**2 / 4.0
        grid = Grid(0.0, default_dt(H), 8_192)
        dep, rec = self._crossings(H, rho0, threshold, grid)
        res = find_recurrence(H, rho0, threshold, grid)
        assert dep is not None and res.t_departure == grid.times(dep, dep + 1)[0]
        assert rec is None and res.t_rec is None
        assert res.diagnostics["samples_evaluated"] < grid.steps / 100

    def test_speed_bounds_the_energy_spread(self):
        H, m = _mixed_rank(7, 7, 12)
        rho0 = validate_density(m)
        p = rho0.populations
        spread = math.sqrt(float((H.energies - H.energies @ p) ** 2 @ p))
        speed = make_kernel(H, rho0).speed
        assert spread <= speed <= spread * (1.0 + 1e-6)
        assert make_kernel(Hamiltonian(2.0 * H.energies, hbar=2.0), rho0).speed == pytest.approx(speed)


def _state_with_eigenvalues(vals, rng):
    """V diag(vals) V^dag / trace for a random unitary V."""
    n = vals.size
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = (q * vals) @ q.conj().T
    return validate_density(m / m.trace().real)


class TestSuperFidelityCeiling:
    """G(t) = tr rho0 rho(t) + 1 - tr rho0^2 bounds F(t)^2 from above
    (super-fidelity), for the support state W W^dag the scan evaluates."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
    def test_ceiling_bounds_the_fidelity(self, n):
        rng = np.random.default_rng(100 + n)
        times = np.concatenate([[0.0], rng.uniform(0.0, 50.0, 48)])
        generic = Hamiltonian(np.sort(rng.uniform(0.0, 1.0, n)))
        degenerate = Hamiltonian(np.sort(rng.integers(0, 3, n)).astype(float))
        for r in range(1, n + 1):
            zeros = np.zeros(n - r)
            cases = [
                (generic, np.concatenate([rng.uniform(0.1, 1.0, r), zeros])),
                (degenerate, np.concatenate([np.full(r, 1.0 / r), zeros])),
                # eigenvalues of 1e-18 lie below the support cut n eps lambda_max
                (generic, np.concatenate([rng.uniform(0.1, 1.0, r), zeros + 1e-18])),
            ]
            for H, vals in cases:
                kernel = make_kernel(H, _state_with_eigenvalues(vals, rng))
                assert kernel.rank == r
                f = fidelity_series(kernel, times)
                g = search._super_fidelity(kernel, times)
                # compared as F^2: at rank 1, G = F^2 exactly, and near F = 0
                # a square root would magnify G's ~1e-16 rounding
                assert np.all(g >= f**2 - 1e-15)
                # the margin the scan adds covers every rounding, F's included
                assert np.all(np.sqrt(g + search._g_rounding(n)) >= f)
                # at t = 0, rho(0) = rho0: G = F^2 = 1 up to round-off
                assert g[0] == pytest.approx(1.0, abs=1e-13)

    def test_pure_state_ceiling_is_the_fidelity(self):
        # rank 1: G = |<psi|psi(t)>|^2 = F^2, which is why such scans skip it
        H, psi = _pure_system(6, 5)
        kernel = make_kernel(H, pure_state(psi))
        times = np.linspace(0.0, 30.0, 101)
        g = search._super_fidelity(kernel, times)
        assert np.allclose(g, fidelity_series(kernel, times) ** 2, rtol=0.0, atol=1e-14)


def _mixture(n, r, rng):
    """The benchmark's kind of mixture at rank r: 0.7 of a pure state with
    equal populations and random phases, 0.3 spread over r - 1 random
    columns; the pure part keeps every coherence large."""
    psi = np.exp(2j * np.pi * rng.uniform(size=n)) / math.sqrt(n)
    if r == 1:
        return pure_state(psi)
    g = rng.standard_normal((n, r - 1)) + 1j * rng.standard_normal((n, r - 1))
    g *= math.sqrt(0.3 / np.vdot(g, g).real)
    w = np.column_stack([math.sqrt(0.7) * psi, g])
    return validate_density(w @ w.conj().T)


def _sieved_samples(monkeypatch, kernel, grid, threshold, start=0):
    """Grid indices the window sieve excluded while a threshold scan read
    the whole grid, and that scan's F."""
    masks = []
    survivors = search._survivors

    def recording(runs, lo, hi):
        keep = survivors(runs, lo, hi)
        masks.append(keep.copy())  # the scan uses its mask up
        return keep

    with monkeypatch.context() as m:
        m.setattr(search, "_survivors", recording)
        f = np.concatenate([g for _, _, g in scan(kernel, grid, start, threshold)])
    return start + np.flatnonzero(~np.concatenate(masks)), f


class TestTorusWindowSieve:
    """The window sieve excludes only grid samples with F <= threshold -
    SLACK: a return needs every level pair's phase w t within its window
    around a multiple of 2 pi."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_sieved_samples_are_below_threshold(self, n, monkeypatch):
        rng = np.random.default_rng(200 + n)
        generic = np.sort(rng.uniform(0.0, 1.0, n))
        degenerate = np.sort(rng.integers(0, 3, n)).astype(float)  # w = 0 pairs
        ranks = sorted({1, max(1, n // 2), n})
        sieved = 0
        for energies in (generic, degenerate):
            H = Hamiltonian(energies)
            dt = default_dt(H)
            grids = [
                (Grid(0.0, dt, 2048), 0),
                # strobe-like: an arbitrary step length, read from index 1
                (Grid(float(rng.uniform(0.0, 100.0)), float(rng.uniform(0.1, 10.0)), 2048), 1),
                # late times, where the phases' rounding needs the pad
                (Grid(1e6, dt, 2048), 0),
            ]
            for r in ranks:
                kernel = make_kernel(H, _mixture(n, r, rng))
                for grid, start in grids:
                    f = fidelity_series(kernel, grid.times(start))
                    peaks = np.sort(f[8:])[::-1]
                    # just above a sample that must stay, and tight ones
                    thresholds = [p + SLACK - 1e-11 for p in peaks[[0, 2, 20]]]
                    thresholds += [1.0 - 1e-6, 1.0 - 1e-3]
                    for threshold in thresholds:
                        if not 0.0 < threshold < 1.0:
                            continue
                        out, g = _sieved_samples(monkeypatch, kernel, grid, threshold, start)
                        assert np.all(f[out - start] <= threshold - SLACK + 1e-12)
                        assert np.all(np.isneginf(g[out - start]))
                        sieved += out.size
        assert sieved > 0

    def test_late_qubit_windows_hold_their_edge_samples(self, monkeypatch):
        # n = 2, pure: G = F^2, so a threshold just below a sample's F puts
        # that sample on its window's edge, where at t ~ 1e6 the phases'
        # rounding (~1e-10 rad at these energies) exceeds the margin left
        H = Hamiltonian(np.array([0.0, 37.3]))
        kernel = make_kernel(H, pure_state(np.array([0.6, 0.8])))
        grid = Grid(1e6, 0.0123, 4096)
        f = fidelity_series(kernel, grid.times())
        for j in np.argsort(f)[-40:]:
            threshold = f[j] + SLACK - 1e-11
            out, _ = _sieved_samples(monkeypatch, kernel, grid, threshold)
            assert j not in out
            assert np.all(f[out] <= threshold - SLACK + 1e-12)

    @pytest.mark.parametrize("budget", [CHUNK_BYTES, 2**16])
    def test_long_pure_scan_finds_the_exhaustive_crossings(self, budget, monkeypatch):
        # under the small budget the windows of a pair outgrow it, and the
        # sieve covers the grid in many blocks
        monkeypatch.setattr(search, "CHUNK_BYTES", budget)
        H, psi = _pure_system(8, 21)
        rho0 = pure_state(psi)
        kernel = make_kernel(H, rho0)
        grid = Grid(0.0, default_dt(H), 200_000)
        f = fidelity_series(kernel, grid.times())
        peaks = np.sort(f[50:])[::-1]
        for threshold in (peaks[2], peaks[0] + 1e-6):
            dep, rec = TestPrunedScan._crossings(H, rho0, threshold, grid)
            assert dep is not None and (rec is None) == (threshold > peaks[0])
            res = find_recurrence(H, rho0, threshold, grid)
            assert res.diagnostics["samples_sieved"] > (rec or grid.steps) // 2
            out, _ = _sieved_samples(monkeypatch, kernel, grid, threshold)
            assert np.all(f[out] <= threshold - SLACK + 1e-12)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_n16_random_spectrum_evaluates_under_16_samples(self, mixed):
        # the scan benchmark's random-spectrum cases: nothing returns
        # within the horizon, and the sieve proves it for all but a few
        rng = np.random.default_rng(16)
        H = Hamiltonian(np.sort(rng.uniform(0.0, 1.0, 16)))
        if mixed:
            rho0 = _mixture(16, 17, rng)
        else:
            psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            rho0 = pure_state(psi / np.linalg.norm(psi))
        eps = 0.01 * math.pi * math.sqrt(float(rho0.populations.min()))
        res = find_recurrence(H, rho0, 1.0 - eps**2 / 4.0, Grid(0.0, default_dt(H), 16_384))
        assert res.t_departure is not None and res.t_rec is None
        assert res.diagnostics["samples_evaluated"] < 16
        assert res.diagnostics["samples_sieved"] > 16_384 - 16

    @pytest.mark.parametrize("need, applied", [(1, 2), (700, 1), (5000, 0)])
    def test_blocks_cut_to_the_budget_hold_exactly_the_windows(self, need, applied, monkeypatch):
        # 100 windows fit and the first pair alone has about 800 on
        # 0..9999: the block is cut after its 100th, then after the second
        # pair's 100th unless that would end it before need
        monkeypatch.setattr(search, "CHUNK_BYTES", 100 * search.SIEVE_BYTES)
        pairs = [(0.4, 0.5, 0.3), (0.9, 1.3, -2.0)]
        (lo, hi), end = search._torus_windows(pairs, 0, need, 10_000)
        assert need <= end <= 10_000
        kept = np.zeros(end, dtype=bool)
        for a, b in zip(lo, hi):
            kept[a : b + 1] = True
        j = np.arange(end)
        inside = np.ones(end, dtype=bool)
        for delta, phi, alpha in pairs[:applied]:
            x = np.mod(alpha + phi * j, 2.0 * math.pi)
            inside &= np.minimum(x, 2.0 * math.pi - x) <= delta
        assert np.array_equal(kept, inside)

    def test_ten_million_step_scan_within_budget(self, monkeypatch):
        budget = 2**20
        monkeypatch.setattr(search, "CHUNK_BYTES", budget)
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rho0 = pure_state(psi / np.linalg.norm(psi))
        H = Hamiltonian(np.sort(rng.uniform(0.0, 1.0, 8)))
        # the threshold at half its ceiling; the first pair alone has more
        # windows than the budget holds, so the sieve works in blocks
        eps = 0.5 * math.pi * math.sqrt(float(rho0.populations.min()))
        grid = Grid(0.0, default_dt(H), 10_000_000)
        tracemalloc.start()
        try:
            res = find_recurrence(H, rho0, 1.0 - eps**2 / 4.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.t_rec is None  # every chunk of the grid was read
        assert res.diagnostics["samples_sieved"] > grid.steps - 100
        assert peak <= budget + 64 * 1024


class TestTorusSurrogateOnChunkBoundaries:
    """The torus distance of the equal qubit superposition is |wrap(t/2)|
    (mean energy 1/2): it grows from 0 and comes back at t = 4 pi, so a
    radius between two neighbouring samples puts a crossing on a chosen
    index."""

    def setup_method(self):
        self.H = Hamiltonian(np.array([0.0, 1.0]))
        self.rho0 = pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0))
        self.torus = torus_from_state(self.rho0)
        self.lam = float(self.H.energies @ self.rho0.populations)

    def _distances(self, times):
        return torus_distance_series(self.torus, torus_phase_at(self.H, self.lam, times))

    def _radius_between(self, grid, index):
        d = self._distances(grid.times(index - 1, index + 1))
        return (d[0] + d[1]) / 2.0

    def _check(self, grid, r, monkeypatch):
        seen = []

        def recording(torus, thetas):
            seen.append(torus_distance_series(torus, thetas))
            return seen[-1]

        monkeypatch.setattr(search, "torus_distance_series", recording)
        t, bures_ok = torus_surrogate_scan(self.H, self.rho0, r, grid)
        whole = self._distances(grid.times())
        expected = _brute_force(whole <= r)
        # the chunks carry the whole-grid values bit for bit, and the scan
        # stops in the chunk of the return
        streamed = np.concatenate(seen)
        assert np.array_equal(streamed, whole[: streamed.size])
        los = np.cumsum([0] + [d.size for d in seen[:-1]])
        chunks = [(lo, None, d) for lo, d in zip(los, seen)]
        assert _first_crossing(chunks, lambda d: d <= r) == expected
        assert los[-1] <= expected[1] < streamed.size
        assert t == grid.times()[expected[1]] and bures_ok
        return expected

    @pytest.mark.parametrize("index", [255, 256, 257, 767, 768])
    def test_departure_on_boundary(self, index, monkeypatch):
        grid = Grid(0.0, 1.0 / (index + 0.5), 13 * (index + 1))
        dep, _ = self._check(grid, self._radius_between(grid, index), monkeypatch)
        assert dep == index

    @pytest.mark.parametrize("index", [255, 256, 257, 767, 768])
    def test_return_on_boundary(self, index, monkeypatch):
        grid = Grid(0.0, 4.0 * math.pi / (index + 3.5), index + 50)
        dep, rec = self._check(grid, self._radius_between(grid, index), monkeypatch)
        assert rec == index and dep < index
