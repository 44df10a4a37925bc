"""The scan engine: Gram-form fidelity kernel, chunk schedule, crossings."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import qrecur
from qrecur import (
    Hamiltonian,
    evolve,
    fidelity,
    make_kernel,
    pure_state,
    search,
    validate_density,
)
from qrecur.evolution import CHUNK_BYTES
from qrecur.search import (
    CHUNK_START,
    Grid,
    _first_crossing,
    chunk_bounds,
    chunk_cap,
    fidelity_series,
    sample_bytes,
    scan,
)


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
        cap = chunk_cap(64, r)
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


def _brute_force(f, threshold):
    below = np.flatnonzero(f < threshold)
    if below.size == 0:
        return None, None
    dep = int(below[0])
    above = np.flatnonzero(f[dep:] >= threshold)
    return dep, (dep + int(above[0]) if above.size else None)


class TestFirstCrossingOnChunkBoundaries:
    """F = |cos(t/2)| for the equal qubit superposition: falls from 1 on
    [0, pi] and rises back on [pi, 2 pi], so a threshold between two
    neighbouring samples puts a crossing on a chosen index."""

    def setup_method(self):
        self.H = Hamiltonian(np.array([0.0, 1.0]))
        self.kernel = make_kernel(self.H, pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0)))

    def _check(self, grid, threshold):
        f = fidelity_series(self.kernel, grid.times())
        expected = _brute_force(f, threshold)
        assert _first_crossing(self.kernel, grid, threshold) == expected
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

    def test_on_chunk_sees_every_scanned_sample(self):
        grid = Grid(0.0, 2.0 * math.pi / 700.5, 5000)
        seen = []
        dep, rec = _first_crossing(
            self.kernel, grid, 0.9, on_chunk=lambda ts, f: seen.append(ts)
        )
        times = np.concatenate(seen)
        assert np.array_equal(times, grid.times(0, times.size))
        assert rec < times.size <= 2 * rec


def test_package_import_does_not_load_scipy():
    src = str(Path(qrecur.__file__).resolve().parents[1])
    code = "import sys, qrecur, qrecur.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
