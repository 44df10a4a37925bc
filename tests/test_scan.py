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
    validate_density,
    verify,
)
from qrecur.errors import BadParameter
from qrecur.evolution import CHUNK_BYTES, CHUNK_START, chunk_bounds, chunk_cap
from qrecur.search import (
    SLACK,
    Grid,
    _first_crossing,
    fidelity_series,
    sample_bytes,
    scan,
)
from qrecur.states import random_hamiltonian


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
        assert k.factor.shape == (8, 1)
        assert np.array_equal(k.factor[:, 0], psi)  # the amplitudes, no eigh

    def test_rank_deficient_state_keeps_its_support(self):
        H, m = _mixed_rank(6, 2, 3)
        rho0 = validate_density(m)
        k = make_kernel(H, rho0)
        assert k.rank == 2
        assert k.factor.shape == (6, 2)
        assert k.factor is rho0.factor
        error = np.abs(k.factor @ k.factor.conj().T - rho0.matrix).max()
        assert error <= 6 * 4 * np.finfo(float).eps

    @pytest.mark.parametrize("rank", [1, 3, 6])
    def test_find_recurrence_takes_no_eigh(self, rank, monkeypatch):
        # the state was factored when it was built; the scan reads that factor
        H, m = _mixed_rank(6, rank, 11)
        rho0 = pure_state(np.linalg.eigh(m)[1][:, -1]) if rank == 1 else validate_density(m)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(1) or eigh(*a, **kw))
        for threshold in (0.9, 0.999):
            find_recurrence(H, rho0, threshold, Grid(0.0, default_dt(H), 3000), refine=True)
        assert calls == []

    @pytest.mark.parametrize("rank", [1, 3, 6])
    def test_fidelity_with_an_evolved_state_takes_no_eigh(self, rank, monkeypatch):
        # evolve hands rho(t) its Gram factor diag(u) W with the matrix
        H, m = _mixed_rank(6, rank, 17)
        rho0 = pure_state(np.linalg.eigh(m)[1][:, -1]) if rank == 1 else validate_density(m)
        kernel = make_kernel(H, rho0)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(1) or eigh(*a, **kw))
        for t in (0.0, 0.7, 123.4):
            f = fidelity(rho0, evolve(kernel, t))
            assert f == pytest.approx(fidelity_series(kernel, np.array([t]))[0], abs=1e-15)
        assert calls == []

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
        bounds = list(chunk_bounds(1000, 300))
        assert bounds[0] == (0, 256)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        assert bounds[-1][1] == 1000
        assert list(chunk_bounds(0, 300)) == []

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
        monkeypatch.setattr(qrecur.evolution, "CHUNK_BYTES", budget)
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

    def test_collect_samples_peak_within_budget(self, monkeypatch):
        # the rows of qrecur search --csv; 5.95 MB when they came as one list.
        # In the slow state every row is near a return, so each takes
        # bures_series' purification form: 1.71 MB when its temporaries
        # were not walked in chunks of their own
        budget = 2**20
        monkeypatch.setattr(qrecur.evolution, "CHUNK_BYTES", budget)
        H = Hamiltonian(np.sort(np.random.default_rng(8).uniform(0.0, 1.0, 8)))
        slow = Hamiltonian(np.sort(np.random.default_rng(12).uniform(0.0, 1.0, 12)) * 1e-4)
        cases = [
            (H, random_density(8, 4), Grid(0.0, default_dt(H), 20_000).times()),
            (slow, random_density(12, 5), np.linspace(0.0, 1.0, 20_000)),
        ]
        for H, rho0, times in cases:
            tracemalloc.start()
            try:
                rows = near = 0
                for block in search.collect_samples(H, rho0, times):
                    rows += block["t"].size
                    near += int(np.count_nonzero(1.0 - block["fidelity"] < search.NEAR_RETURN))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rows == times.size
            assert H is not slow or near == rows
            assert peak <= budget + 2 * times.nbytes + 64 * 1024

    def test_monte_carlo_cap_volume_peak_within_budget(self):
        # one block of 2,000,000 x (n + 1) normals took 32 MB per 1,000,000
        # samples at n = 3, and its temporaries 80 MB
        verify.monte_carlo_cap_volume(3, 1.0, 10, 0)  # the generator's first use imports modules
        tracemalloc.start()
        try:
            verify.monte_carlo_cap_volume(3, math.pi / 2.0, 1_000_000, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= CHUNK_BYTES + 64 * 1024

    @pytest.mark.parametrize("samples", [0, -5])
    def test_geometry_suite_refuses_no_monte_carlo_samples(self, samples):
        with pytest.raises(BadParameter):
            verify.geometry_suite(mc_samples=samples)

    def test_monte_carlo_cap_volume_does_not_depend_on_the_blocks(self, monkeypatch):
        whole = verify.monte_carlo_cap_volume(3, 1.0, 100_000, 7)
        monkeypatch.setattr(qrecur.evolution, "CHUNK_BYTES", 2**12)  # 46 samples a block
        assert verify.monte_carlo_cap_volume(3, 1.0, 100_000, 7) == whole

    def test_one_patch_bounds_every_block_loop(self, monkeypatch):
        # the budget is read when each loop runs, from qrecur.evolution alone
        budget, n = 2**14, 8
        H, m = _mixed_rank(n, n, 9)
        rho0 = validate_density(m)
        grid = Grid(0.0, default_dt(H), 2000)
        cap_mc = verify.monte_carlo_cap_volume(3, 1.0, 20_000, 7)
        monkeypatch.setattr(qrecur.evolution, "CHUNK_BYTES", budget)

        def within_cap(sizes, per_sample):
            assert 0 < max(sizes) <= max(1, budget // per_sample)

        # an exhaustive scan at n = r = 8: 4 samples a block
        blocks = [hi - lo for lo, hi, _ in scan(make_kernel(H, rho0), grid)]
        within_cap(blocks, sample_bytes(n, n))
        # the CSV columns
        blocks = [b["t"].size for b in search.collect_samples(H, rho0, grid.times(0, 500))]
        within_cap(blocks, 40 * n * (2 * n + 1))
        # the purification form of bures_series, one phase row per sample;
        # every sample of a state this slow is near a return
        kernel = make_kernel(Hamiltonian(H.energies * 1e-4), rho0)
        times = grid.times(0, 500)
        f = fidelity_series(kernel, times)
        rows, phases = [], qrecur.evolution.EvolutionKernel.phases
        with monkeypatch.context() as patch:
            patch.setattr(
                qrecur.evolution.EvolutionKernel, "phases",
                lambda k, t: rows.append(len(t)) or phases(k, t),
            )
            search.bures_series(kernel, times, f)
        assert sum(rows) == times.size
        within_cap(rows, search.near_bytes(n, n))
        # the Monte Carlo draws, whose volume does not depend on the blocks
        draws, make_rng = [], np.random.default_rng

        class Draws:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def standard_normal(self, shape):
                draws.append(shape[0])
                return self.rng.standard_normal(shape)

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", Draws)
            assert verify.monte_carlo_cap_volume(3, 1.0, 20_000, 7) == cap_mc
        within_cap(draws, 8 * (2 * 3 + 5))
        # the triangle check: slabs of one middle index, 40 x 1 x 40 sums,
        # with a few 40 x 40 temporaries on top; all 40 at once peak at 640 kB
        hops = np.abs(np.arange(40)[:, None] - np.arange(40)[None, :]).astype(float)
        tracemalloc.start()
        try:
            qrecur.FiniteMetricSpace(points=tuple(range(40)), dist=hops, measure=np.ones(40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget + 4 * 8 * 40 * 40


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
        found = _first_crossing(self._scan(grid, threshold), threshold)
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

        def blocks():
            for block in self._scan(grid, 0.9):
                seen.append(block[:2])
                yield block

        dep, rec = _first_crossing(blocks(), 0.9)
        # the blocks read tile 0..hi in order, and stop in the return's chunk
        los, his = zip(*seen)
        hi = his[-1]
        assert los == (0, *his[:-1])
        assert rec < hi <= 2 * rec


class TestPrunedFirstCrossingOnChunkBoundaries(TestFirstCrossingOnChunkBoundaries):
    pruned = True


def _ensemble_case(i):
    """Instance i of the bracket ensemble at seed 42, with its threshold
    and grid."""
    H, rho0, eps, threshold = verify._random_instance([42, i])
    report = qrecur.bounds.energy_bounds(H, rho0, eps)
    dt = min(default_dt(H), report.lower_mt / 4.0)
    steps = math.ceil((report.upper_product + 2.0 * dt) / dt)
    return H, rho0, threshold, Grid(0.0, dt, steps)


class TestPrunedScan:
    """scan(..., threshold=...) skips samples the Bures-angle speed limit
    proves below threshold - SLACK, and finds the crossings the
    exhaustive scan finds."""

    @staticmethod
    def _crossings(H, rho0, threshold, grid):
        kernel = make_kernel(H, rho0)

        def paired():
            # the blocks tile the grid; each is compared, by grid index,
            # with the exhaustive values read so far; a settled range (F
            # None) is held to the bound of a skipped sample throughout,
            # and a sample proven inside (+inf) to the threshold
            exhaustive = scan(kernel, grid)
            g, g_lo = np.empty(0), 0  # exhaustive values of samples g_lo..
            for lo, hi, f in scan(kernel, grid, threshold=threshold):
                assert lo == g_lo and hi > lo
                while g.size < hi - g_lo:
                    g = np.concatenate([g, next(exhaustive)[2]])
                if f is None:
                    assert np.all(g[: hi - lo] <= threshold - SLACK + 1e-12)
                else:
                    assert f.size == hi - lo
                    skipped, inside = np.isneginf(f), np.isposinf(f)
                    done = np.isfinite(f)
                    assert np.array_equal(f[done], g[: hi - lo][done])
                    assert np.all(g[: hi - lo][skipped] <= threshold - SLACK + 1e-12)
                    assert np.all(g[: hi - lo][inside] >= threshold)
                    assert np.all(grid.times(lo, hi)[inside] == 0.0)
                g, g_lo = g[hi - lo :], hi
                yield lo, hi, f

        found = _first_crossing(paired(), threshold)
        assert found == _first_crossing(scan(kernel, grid), threshold)
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
        H, rho0, *_ = verify._random_instance([42, i])
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

    def test_strobe_suite_fails_a_check_that_ran_on_none(self):
        # at n = 2, eps = 0.9 the ceiling is ceil(jmax) = 238,057 steps: a
        # cap of 100,000 never searches it all, so that check runs on none
        full = verify.strobe_suite(count=5)
        assert full["ok"] and full["checked"] == {"j_within_ceiling": 5, "return_within_ceiling": 5}
        short = verify.strobe_suite(count=5, cap=100_000)
        assert short["checked"]["return_within_ceiling"] == 0 and not short["ok"]
        assert short["violations"] == []

    def test_full_rank_n16_evaluates_under_a_quarter(self):
        # the benchmark's full-rank mixture: 0.7 of a pure state with equal
        # populations and random phases, 0.3 of a random full-rank state
        rng = np.random.default_rng(16)
        H = Hamiltonian(np.sort(rng.uniform(0.0, 1.0, 16)))
        psi = np.exp(2j * np.pi * rng.uniform(size=16)) / 4.0
        rho0 = validate_density(0.7 * np.outer(psi, psi.conj()) + 0.3 * random_density(16, rng).matrix)
        eps = 0.01 * math.pi * math.sqrt(float(rho0.populations.min()))
        grid = Grid(0.0, default_dt(H), 16_384)
        threshold = 1.0 - eps**2 / 4.0
        res = find_recurrence(H, rho0, threshold, grid)
        assert res.t_departure is not None and res.t_rec is None  # the whole grid
        blocks = list(scan(make_kernel(H, rho0), grid, threshold=threshold))
        assert res.diagnostics["chunks"] == len(blocks)
        assert [lo for lo, _, _ in blocks] == [0] + [hi for _, hi, _ in blocks[:-1]]
        assert blocks[-1][1] == grid.steps
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

    def test_random_full_rank_n16_evaluates_under_1100(self):
        # a random full-rank state at n = 16 leaves the window sieve no
        # active pair; the speed-limit walk's first stride follows the angle
        # pi/2 that an exact F can prove, as at rank 1 (1,552 evaluated when
        # it followed the smaller angle the super-fidelity ceiling can prove)
        H, rho0 = random_hamiltonian(16, 0), random_density(16, 0)
        eps = 0.5 * math.pi * math.sqrt(float(rho0.populations.min()))
        threshold = 1.0 - eps**2 / 4.0
        grid = Grid(0.0, default_dt(H), 8_192)
        dep, rec = self._crossings(H, rho0, threshold, grid)
        res = find_recurrence(H, rho0, threshold, grid)
        assert res.t_departure == grid.times(dep, dep + 1)[0] and rec is None
        assert res.diagnostics["samples_sieved"] == 0
        assert res.diagnostics["samples_evaluated"] < 1_100

    def test_pure_n32_walk_evaluates_under_a_quarter(self):
        # a pure state the window sieve cannot act on: the speed-limit walk
        # alone skips samples (1,449 of 8,192 evaluated; 8,191 without it)
        H = random_hamiltonian(32, 5)
        rng = np.random.default_rng([32, 5])
        psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        rho0 = pure_state(psi / np.linalg.norm(psi))
        grid = Grid(0.0, default_dt(H), 8_192)
        assert search._sieve_pairs(make_kernel(H, rho0), grid, 0.9) == []
        dep, rec = self._crossings(H, rho0, 0.9, grid)
        res = find_recurrence(H, rho0, 0.9, grid)
        assert res.t_departure == grid.times(dep, dep + 1)[0] and rec is None
        assert res.diagnostics["samples_evaluated"] < grid.steps / 4

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
                g = search._super_fidelity(kernel, kernel.phases(times))
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
        g = search._super_fidelity(kernel, kernel.phases(times))
        assert np.allclose(g, fidelity_series(kernel, times) ** 2, rtol=0.0, atol=1e-14)


class TestRankOneCeiling:
    """coherence <= mu v v^T + beta I (Gershgorin, _rank_one_split), so
    mu |v . u|^2 + split.floor + _rank_one_margin, with v . u taken from a
    chunk's phase table, bounds G of the kernel.phases row u plus the
    rounding margin that ties G to F."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
    def test_bound_covers_the_super_fidelity(self, n):
        rng = np.random.default_rng(500 + n)
        generic = Hamiltonian(np.sort(rng.uniform(0.0, 1.0, n)))
        degenerate = Hamiltonian(np.sort(rng.integers(0, 3, n)).astype(float))
        eps = np.finfo(float).eps
        cases = [(generic, random_density(n, rng))]
        for r in range(1, n + 1):
            zeros = np.zeros(n - r)
            spread = np.concatenate([rng.uniform(0.1, 1.0, r), zeros])
            equal = np.concatenate([np.full(r, 1.0 / r), zeros])
            cases += [
                (generic, _state_with_eigenvalues(spread, rng)),
                (degenerate, _state_with_eigenvalues(equal, rng)),
                (degenerate, _mixture(n, r, rng)),
            ]
        late = 0.0  # the largest gap at t0 = 1e8, in units of the GEMM's rounding
        for H, rho0 in cases:
            kernel = make_kernel(H, rho0)
            split = search._rank_one_split(kernel)
            for t0 in (0.0, 1e4, 1e8):
                grid = Grid(t0, default_dt(generic), 257)
                times = grid.times()
                table = search._phase_table(kernel, times, grid.dt)
                c = search._table_dot(table, split.v, times.size)
                direct = kernel.phases(times)
                # |c' - c| within the derived e = s (d + (n + 4) eps)
                d = search._table_distance(kernel, grid, grid.steps)
                gap = np.abs(c - direct @ split.v).max()
                assert gap <= split.s * (d + (n + 4) * eps)
                if t0 == 1e8:
                    late = max(late, gap / (split.s * (n + 4) * eps))
                bound = split.mu * np.abs(c) ** 2 + split.floor
                bound += search._rank_one_margin(n, d, split)
                g = search._super_fidelity(kernel, direct) + search._g_rounding(n)
                assert np.all(bound >= g)
        assert late > 1.0  # the GEMM's rounding alone would not cover the table

    def test_random_density_skips_the_stage(self, monkeypatch):
        # a random full-rank state at n = 16 has floor mixedness + beta n
        # above 1, so the bound can prove nothing: no GEMM is taken, even
        # on a chunk where every sample is pending
        H, rho0 = random_hamiltonian(16, 0), random_density(16, 0)
        kernel = make_kernel(H, rho0)
        split = search._rank_one_split(kernel)
        assert split.floor > 1.0
        dots = []
        dot = search._table_dot
        monkeypatch.setattr(search, "_table_dot", lambda *a: dots.append(1) or dot(*a))
        eps = 0.5 * math.pi * math.sqrt(float(rho0.populations.min()))
        threshold = 1.0 - eps**2 / 4.0
        grid = Grid(0.0, default_dt(H), 8_192)
        todo = np.ones(1024, dtype=bool)
        search._pruned_series(kernel, grid, 1024, 2048, threshold, todo, split)
        res = find_recurrence(H, rho0, threshold, grid)
        assert res.diagnostics["samples_evaluated"] > 0 and dots == []

    def test_few_pending_samples_take_g_alone(self, monkeypatch):
        # the scan benchmark's n32.rfull.random kind: the sieve leaves a
        # dozen samples, too few to pay for the split and the GEMM, so G
        # takes them alone, and the crossings are those of the exhaustive scan
        rng = np.random.default_rng(3200)
        H = _spectrum("random", 32, rng)
        rho0 = _mixture(32, 33, rng)
        eps = 0.0075 * math.pi * math.sqrt(float(rho0.populations.min()))
        grid = Grid(0.0, default_dt(H), 4096)
        calls, rows = [], []
        split, dot, ceiling = search._rank_one_split, search._table_dot, search._super_fidelity
        monkeypatch.setattr(search, "_rank_one_split", lambda k: calls.append(1) or split(k))
        monkeypatch.setattr(search, "_table_dot", lambda *a: calls.append(1) or dot(*a))
        monkeypatch.setattr(
            search, "_super_fidelity", lambda k, u: rows.append(len(u)) or ceiling(k, u)
        )
        dep, rec = TestPrunedScan._crossings(H, rho0, 1.0 - eps**2 / 4.0, grid)
        assert dep is not None and rec is None
        assert calls == [] and 0 < sum(rows) < 32

    def test_box_mixture_hands_g_under_one_percent(self, monkeypatch):
        # the scan benchmark's n16.rfull.box kind: 0.7 of an equal-magnitude
        # pure state and 0.3 of noise on a box spectrum, departing and
        # returning at its period 8 (n^2 - 1) steps
        rng = np.random.default_rng(1600)
        H = _spectrum("box", 16, rng)
        rho0 = _mixture(16, 17, rng)
        eps = 0.2 * math.pi * math.sqrt(float(rho0.populations.min()))
        threshold = 1.0 - eps**2 / 4.0
        grid = Grid(0.0, default_dt(H), 16_384)
        kernel = make_kernel(H, rho0)
        assert search._rank_one_split(kernel).floor < (threshold - SLACK) ** 2
        pending, rows = [], []
        pruned, ceiling = search._pruned_series, search._super_fidelity
        monkeypatch.setattr(
            search, "_pruned_series",
            lambda k, g, lo, hi, thr, todo, split: pending.append(int(todo.sum()))
            or pruned(k, g, lo, hi, thr, todo, split),
        )
        monkeypatch.setattr(
            search, "_super_fidelity", lambda k, u: rows.append(len(u)) or ceiling(k, u)
        )
        dep, rec = TestPrunedScan._crossings(H, rho0, threshold, grid)
        assert dep is not None and rec is not None
        assert sum(pending) > 1000
        assert 0 < sum(rows) <= sum(pending) / 100


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


def _sieved_samples(kernel, grid, threshold, start=0):
    """Grid indices outside the windows of the sieve's pairs, taken over
    the grid block by block from _sieve_pairs and _torus_windows, and the
    F of a threshold scan that read the whole grid, -inf on its settled
    ranges; that scan excluded exactly as many samples, and the samples it
    proved inside (+inf) are at or above the threshold."""
    pairs = search._sieve_pairs(kernel, grid, threshold)
    kept = np.ones(grid.steps, dtype=bool)
    if pairs:
        kept[start:] = False
        lo = start
        while lo < grid.steps:
            (run_lo, run_hi), lo = search._torus_windows(pairs, lo, grid.steps)
            for a, b in zip(run_lo, run_hi):
                kept[a : b + 1] = True
    counts = dict.fromkeys(search._COUNTS, 0)
    f = np.full(grid.steps - start, -np.inf)
    for lo, hi, g in scan(kernel, grid, start, threshold, counts):
        if g is not None:
            f[lo - start : hi - start] = g
    out = np.flatnonzero(~kept)
    assert counts["samples_sieved"] == out.size
    inside = grid.times(start)[np.isposinf(f)]
    assert np.all(inside == 0.0)
    assert np.all(fidelity_series(kernel, inside) >= threshold)
    return out, f


class TestTorusWindowSieve:
    """The window sieve excludes only grid samples with F <= threshold -
    SLACK: a return needs every level pair's phase w t within its window
    around a multiple of 2 pi."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_sieved_samples_are_below_threshold(self, n):
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
                        out, g = _sieved_samples(kernel, grid, threshold, start)
                        assert np.all(f[out - start] <= threshold - SLACK + 1e-12)
                        assert np.all(np.isneginf(g[out - start]))
                        sieved += out.size
        assert sieved > 0

    def test_late_qubit_windows_hold_their_edge_samples(self):
        # n = 2, pure: G = F^2, so a threshold just below a sample's F puts
        # that sample on its window's edge, where at t ~ 1e6 the phases'
        # rounding (~1e-10 rad at these energies) exceeds the margin left
        H = Hamiltonian(np.array([0.0, 37.3]))
        kernel = make_kernel(H, pure_state(np.array([0.6, 0.8])))
        grid = Grid(1e6, 0.0123, 4096)
        f = fidelity_series(kernel, grid.times())
        for j in np.argsort(f)[-40:]:
            threshold = f[j] + SLACK - 1e-11
            out, _ = _sieved_samples(kernel, grid, threshold)
            assert j not in out
            assert np.all(f[out] <= threshold - SLACK + 1e-12)

    @pytest.mark.parametrize("budget", [CHUNK_BYTES, 2**16])
    def test_long_pure_scan_finds_the_exhaustive_crossings(self, budget, monkeypatch):
        # under the small budget the windows of a pair outgrow it, and the
        # sieve covers the grid in many blocks
        monkeypatch.setattr(qrecur.evolution, "CHUNK_BYTES", budget)
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
            out, _ = _sieved_samples(kernel, grid, threshold)
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

    @pytest.mark.parametrize("windows, applied", [(100, 2), (1, 0)])
    def test_blocks_cut_to_the_budget_hold_exactly_the_windows(
        self, windows, applied, monkeypatch
    ):
        # the first pair alone has about 800 windows on 0..9999. With room
        # for 100, the block is cut after the first pair's 100th, then
        # after the second pair's 100th. With room for 1, that one is the
        # spare before sample 0: a cut there would leave no sample, so no
        # pair is applied and nothing is cut. The windows are intersected
        # as runs only, with no pointwise finish
        monkeypatch.setattr(qrecur.evolution, "CHUNK_BYTES", windows * search.SIEVE_BYTES)
        monkeypatch.setattr(search, "SIEVE_POINTWISE", 0)
        end = self._check_cut_block([(0.4, 0.5, 0.3), (0.9, 1.3, -2.0)], applied)
        assert (end == 10_000) == (applied == 0)

    def test_pointwise_finish_holds_exactly_the_windows_of_a_cut_block(self, monkeypatch):
        # as above with room for 100 windows, but about 160 samples survive
        # the first pair's 100 windows, so the second pair is tested on
        # them sample by sample and cuts nothing
        monkeypatch.setattr(qrecur.evolution, "CHUNK_BYTES", 100 * search.SIEVE_BYTES)
        assert self._check_cut_block([(0.4, 0.5, 0.3), (0.9, 1.3, -2.0)], 2) == 1232

    @staticmethod
    def _check_cut_block(pairs, applied):
        """The runs of a block cut to the budget are exactly the grid
        samples in a window of each of the first `applied` pairs."""
        (lo, hi), end = search._torus_windows(pairs, 0, 10_000)
        assert 0 < end <= 10_000
        kept = np.zeros(end, dtype=bool)
        for a, b in zip(lo, hi):
            kept[a : b + 1] = True
        j = np.arange(end)
        inside = np.ones(end, dtype=bool)
        for delta, phi, alpha in pairs[:applied]:
            x = np.mod(alpha + phi * j, 2.0 * math.pi)
            inside &= np.minimum(x, 2.0 * math.pi - x) <= delta
        assert np.array_equal(kept, inside)
        return end

    def test_ten_million_step_scan_within_budget(self, monkeypatch):
        budget = 2**20
        monkeypatch.setattr(qrecur.evolution, "CHUNK_BYTES", budget)
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


def _spectrum(kind, n, rng):
    """Energies of the scan benchmark's kinds: box scale k^2 and oscillator
    scale (k + 1/2) return at 2 pi/scale, random ones do not."""
    scale = float(rng.uniform(0.5, 2.0))
    if kind == "box":
        return Hamiltonian(scale * np.arange(1, n + 1, dtype=float) ** 2)
    if kind == "oscillator":
        return Hamiltonian(scale * (np.arange(n) + 0.5))
    return Hamiltonian(np.sort(rng.uniform(0.0, scale, n)))


class TestPointwiseFinish:
    """Once few samples survive, _torus_windows tests the pairs left on
    them in one array (_in_windows); that must keep exactly the samples
    the pair-by-pair intersection of runs keeps."""

    @staticmethod
    def _kept(runs, lo, stop):
        kept = np.zeros(stop - lo, dtype=bool)
        for a, b in zip(*runs):
            kept[a - lo : b + 1 - lo] = True
        return kept

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_equals_the_intersection_of_runs(self, n, monkeypatch):
        rng = np.random.default_rng(300 + n)
        checked = 0
        for kind in ("box", "random"):
            H = _spectrum(kind, n, rng)
            dt = default_dt(H)
            grids = [
                (Grid(0.0, dt, 4096), 0),
                (Grid(1e6, dt, 4096), 0),
                # strobe-like: an arbitrary step length, read from index 1
                (Grid(0.0, float(rng.uniform(0.1, 10.0)), 4096), 1),
            ]
            for r in (1, n):
                kernel = make_kernel(H, _mixture(n, r, rng))
                for grid, start in grids:
                    for threshold in (1.0 - 1e-2, 1.0 - 1e-4, 1.0 - 1e-6):
                        pairs = search._sieve_pairs(kernel, grid, threshold)
                        if not pairs:
                            continue
                        j = np.arange(start, grid.steps, dtype=float)
                        pointwise = search._in_windows(pairs, j)
                        finished = search._torus_windows(pairs, start, grid.steps)
                        with monkeypatch.context() as m:
                            m.setattr(search, "SIEVE_POINTWISE", 0)  # runs only
                            runs, end = search._torus_windows(pairs, start, grid.steps)
                        assert end == finished[1] == grid.steps
                        runs_only = self._kept(runs, start, grid.steps)
                        assert np.array_equal(pointwise, runs_only)
                        assert np.array_equal(self._kept(finished[0], start, grid.steps), runs_only)
                        checked += 1
        assert checked >= 12

    def test_window_ends_on_grid_indices(self, monkeypatch):
        # delta/phi = 1 and 2 about centres 4q and 8q: most window ends fall
        # exactly on a grid index, where < in place of <= would drop them
        pairs = [(math.pi / 2, math.pi / 2, 0.0), (math.pi / 2, math.pi / 4, 0.0)]
        j = np.arange(4096.0)
        centre = 2.0 * math.pi * np.rint(j / 4.0) / (math.pi / 2)
        assert np.count_nonzero(centre - 1.0 == j) > 500
        monkeypatch.setattr(search, "SIEVE_POINTWISE", 0)  # runs only
        runs, _ = search._torus_windows(pairs, 0, 4096)
        assert np.array_equal(search._in_windows(pairs, j), self._kept(runs, 0, 4096))


class TestWalk:
    """The threshold scan builds the sieve's windows for the first chunk
    first, yields a stretch with no survivor as one block, and finds the
    crossings of the exhaustive scan."""

    @pytest.mark.parametrize("n", [2, 5, 16, 32])
    @pytest.mark.parametrize("rank", [1, "full"])
    @pytest.mark.parametrize("kind", ["commensurate", "random"])
    def test_crossings_match_exhaustive(self, n, rank, kind, monkeypatch):
        rng = np.random.default_rng([400, n, rank == 1, kind == "random"])
        if kind == "commensurate":
            kind = "box" if n < 16 else "oscillator"
        H = _spectrum(kind, n, rng)
        rho0 = _mixture(n, n if rank == "full" else 1, rng)
        # as in the benchmark: a loose threshold where the spectrum returns,
        # one so tight that a random spectrum does not within the horizon
        u = float(rng.uniform(0.005, 0.01) if kind == "random" else rng.uniform(0.15, 0.3))
        eps = u * math.pi * math.sqrt(float(rho0.populations.min()))
        threshold = 1.0 - eps**2 / 4.0
        grid = Grid(0.0, default_dt(H), 4096 if n == 32 else 8192)
        builds, evaluated = [], []
        windows, pruned = search._torus_windows, search._pruned_series

        def recording_windows(pairs, lo, stop):
            builds.append((lo, stop))
            return windows(pairs, lo, stop)

        def recording_pruned(kernel, grid, lo, *args):
            evaluated.append(lo)
            return pruned(kernel, grid, lo, *args)

        monkeypatch.setattr(search, "_torus_windows", recording_windows)
        monkeypatch.setattr(search, "_pruned_series", recording_pruned)
        dep, rec = TestPrunedScan._crossings(H, rho0, threshold, grid)
        assert dep is not None
        if kind == "random":
            assert rec is None or n == 2  # two levels always return
        else:
            # these periods are 8 (n^2 - 1) <= 192 and 8 (n - 1) <= 248 steps:
            # the return lies in the first chunk, and no window beyond it is built
            assert rec < CHUNK_START
            assert all(stop <= CHUNK_START for _, stop in builds)
        # a settled block (not evaluated) is never followed by another,
        # except at the end of the first chunk, where the sieve's first
        # block of windows ends
        evaluated.clear()
        blocks = list(scan(make_kernel(H, rho0), grid, threshold=threshold))
        settled = [f is None for _, _, f in blocks]
        assert settled == [lo not in evaluated for lo, _, _ in blocks]
        for (lo, _, _), this, after in zip(blocks[1:], settled, settled[1:]):
            assert not (this and after) or lo == CHUNK_START
        if rec is None:  # find_recurrence reads every block
            assert find_recurrence(H, rho0, threshold, grid).diagnostics["chunks"] == len(blocks)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_settled_ranges_carry_no_arrays(self, mixed):
        # a stretch with no survivor is one (lo, hi) range, however long
        rng = np.random.default_rng(16)
        H = Hamiltonian(np.sort(rng.uniform(0.0, 1.0, 16)))
        rho0 = _mixture(16, 16 if mixed else 1, rng)
        eps = 0.01 * math.pi * math.sqrt(float(rho0.populations.min()))
        threshold, grid = 1.0 - eps**2 / 4.0, Grid(0.0, default_dt(H), 16_384)
        kernel = make_kernel(H, rho0)
        counts = dict.fromkeys(search._COUNTS, 0)
        blocks = list(scan(kernel, grid, 0, threshold, counts))
        assert counts["chunks"] == len(blocks)
        assert any(f is None and hi - lo > 1000 for lo, hi, f in blocks)
        for lo, hi, f in blocks:
            assert f is None or f.size == hi - lo
        res = find_recurrence(H, rho0, threshold, grid)
        assert res.diagnostics == {**counts, "missable_depth": res.diagnostics["missable_depth"]}
        # the crossings read as from the grid with -inf on every settled
        # sample, and as from the exhaustive scan
        dense = np.full(grid.steps, -np.inf)
        for lo, hi, f in blocks:
            if f is not None:
                dense[lo:hi] = f
        found = _first_crossing(blocks, threshold)
        assert found == _first_crossing([(0, grid.steps, dense)], threshold)
        assert found == _first_crossing(scan(kernel, grid), threshold)

    def test_ceiling_is_one_call_over_the_pending_samples(self, monkeypatch):
        # 0.9 |+><+| + 0.05 I moves at speed 1/2, as the pure superposition
        # does; at threshold 0.999 the rank-one bound (floor 0.19) drops
        # some samples in one GEMM over the chunk, G drops most of the
        # rest in one call over the pending samples the bound passed, and
        # the walk evaluates what is left exactly or clears it from F + SLACK
        rho0 = validate_density(0.9 * np.full((2, 2), 0.5) + 0.05 * np.eye(2))
        kernel = make_kernel(Hamiltonian(np.array([0.0, 1.0])), rho0)
        assert kernel.rank == 2 and kernel.mixedness == pytest.approx(0.095, abs=1e-12)
        split = search._rank_one_split(kernel)
        grid = Grid(100.0, 0.01, 2048)
        times = grid.times()
        todo = np.zeros(times.size, dtype=bool)
        todo[::7] = True
        dots, rows = [], []
        dot, ceiling = search._table_dot, search._super_fidelity
        monkeypatch.setattr(
            search, "_table_dot", lambda table, v, m: dots.append(dot(table, v, m)) or dots[-1]
        )
        monkeypatch.setattr(
            search, "_super_fidelity", lambda k, u: rows.append(u) or ceiling(k, u)
        )
        out = search._pruned_series(kernel, grid, 0, grid.steps, 0.999, todo.copy(), split)
        # v . u over the whole chunk, in grid order
        assert len(dots) == 1
        assert np.allclose(dots[0], kernel.phases(times) @ split.v, rtol=0.0, atol=1e-13)
        d = search._table_distance(kernel, grid, grid.steps)
        floor = split.floor + search._rank_one_margin(2, d, split)
        passed = todo & (np.abs(dots[0]) ** 2 > ((0.999 - SLACK) ** 2 - floor) / split.mu)
        assert 0 < passed.sum() < todo.sum()
        assert len(rows) == 1
        assert np.allclose(rows[0], kernel.phases(times[passed]), rtol=0.0, atol=1e-13)
        exact = fidelity_series(kernel, times[todo])
        done = np.isfinite(out[todo])
        assert 0 < done.sum() < todo.sum()
        assert np.array_equal(out[todo][done], exact[done])
        assert np.all(exact[~done] <= 0.999 - SLACK)
        assert np.all(np.isneginf(out[~todo]))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_time_zero_is_proven_inside_without_an_evaluation(self, rank, monkeypatch):
        # rho(0) = rho0, so F = 1: the sample at t = 0 reads +inf, and a
        # chunk with nothing else pending takes no ceiling and no walk
        rho0 = pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0))
        if rank == 2:
            rho0 = validate_density(0.9 * np.full((2, 2), 0.5) + 0.05 * np.eye(2))
        kernel = make_kernel(Hamiltonian(np.array([0.0, 1.0])), rho0)
        split = search._rank_one_split(kernel) if rank > 1 else None
        calls = []
        for name in ("fidelity_series", "_table_dot", "_super_fidelity", "_phase_table"):
            real = getattr(search, name)
            monkeypatch.setattr(search, name, lambda *a, real=real: calls.append(1) or real(*a))
        for grid in (Grid(0.0, 0.01, 64), Grid(-0.32, 0.01, 64)):  # t = 0 at index 0, 32
            todo = np.zeros(grid.steps, dtype=bool)
            zero = int(np.flatnonzero(grid.times() == 0.0)[0])
            todo[zero] = True
            out = search._pruned_series(kernel, grid, 0, grid.steps, 0.999, todo, split)
            assert np.isposinf(out[zero]) and np.all(np.isneginf(np.delete(out, zero)))
        assert calls == []
        # in a scan it counts as proven inside, not as evaluated
        grid = Grid(0.0, 0.01, 64)
        blocks = list(scan(kernel, grid, threshold=0.999))
        assert np.isposinf(blocks[0][2][0])
        assert _first_crossing(blocks, 0.999) == _first_crossing(scan(kernel, grid), 0.999)

    @pytest.mark.parametrize("t0", [0.0, 1e4, 1e8])
    def test_table_rows_stay_within_the_derived_pad(self, t0):
        # the ceiling's phase rows (anchor times step) against kernel.phases,
        # which fidelity_series uses, over a 1,310-sample chunk at n = 16
        H = random_hamiltonian(16, 3)
        kernel = make_kernel(H, random_density(16, 3))
        grid = Grid(t0, default_dt(H), 1310)
        times = grid.times()
        idx = np.arange(grid.steps)
        rows = search._table_rows(search._phase_table(kernel, times, grid.dt), idx)
        direct = kernel.phases(times)
        # the margin's phase term, 2 d (1 + d) for rows within d of kernel.phases
        d = search._table_distance(kernel, grid, grid.steps)
        pad = search._ceiling_margin(16, d) - search._g_rounding(16)
        assert np.abs(rows - direct).max() <= pad / 2.0
        shift = np.abs(search._super_fidelity(kernel, rows) - search._super_fidelity(kernel, direct))
        assert shift.max() <= pad
        if t0 == 1e8:  # the rounding margin alone would not cover the table
            assert shift.max() > search._g_rounding(16)

    @pytest.mark.parametrize("gap, isolated", [(400, True), (40, False)])
    def test_isolated_survivors_are_evaluated_in_one_call(self, gap, isolated, monkeypatch):
        # the equal qubit superposition moves at speed 1/2: at dt = 0.01 and
        # threshold 0.999 one sample clears at most
        # (pi/2 - arccos(0.999 - SLACK))/0.005 = 305 steps on either side
        kernel = make_kernel(
            Hamiltonian(np.array([0.0, 1.0])), pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0))
        )
        grid = Grid(100.0, 0.01, 2048)
        times = grid.times()
        todo = np.zeros(times.size, dtype=bool)
        todo[::gap] = True
        calls = []
        series = search.fidelity_series
        monkeypatch.setattr(
            search, "fidelity_series", lambda k, ts: calls.append(ts.size) or series(k, ts)
        )
        out = search._pruned_series(kernel, grid, 0, grid.steps, 0.999, todo.copy(), None)
        if isolated:  # no sample can clear another: each one is evaluated
            assert sum(calls) == todo.sum()
            assert np.array_equal(out[todo], series(kernel, times[todo]))
        else:  # the stride ladder starts coarse
            assert calls[0] < todo.sum()
        assert np.all(np.isneginf(out[~todo]))

    def test_strobe_reports_the_counts_of_its_scan(self):
        H, m = _mixed_rank(6, 2, 13)
        rho0 = validate_density(m)
        res = search.stroboscopic_recurrence(H, rho0, 0.99, 0.37, 20_000)
        counts = dict.fromkeys(search._COUNTS, 0)
        grid = Grid(0.0, 0.37, res.cap + 1)
        for _, hi, _ in scan(make_kernel(H, rho0), grid, 1, 0.99, counts):
            if res.j_found is not None and hi > res.j_found:
                break
        assert res.diagnostics == counts
        assert counts["chunks"] >= 1 and counts["samples_evaluated"] >= 1
