import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bures_hp, random_state, random_system
from qrecur import (
    Grid,
    Hamiltonian,
    default_dt,
    energy_bounds,
    fidelity_series,
    find_recurrence,
    gibbs_state,
    make_kernel,
    pure_state,
    search,
    stroboscopic_recurrence,
    validate_density,
)
from qrecur.bounds import dimension_bound, threshold_to_epsilon
from qrecur.errors import BadParameter, GridTooCoarse
from qrecur.search import MAX_AUTO_SAMPLES, NEAR_RETURN, bures_series


def qubit():
    return (
        Hamiltonian(np.array([0.0, 1.0])),
        pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0)),
    )


class TestGrid:
    def test_times(self):
        g = Grid(1.0, 0.5, 3)
        assert np.allclose(g.times(), [1.0, 1.5, 2.0])

    def test_bad_grid(self):
        with pytest.raises(BadParameter):
            Grid(0.0, 0.0, 10)
        with pytest.raises(BadParameter):
            Grid(0.0, 0.1, 0)

    def test_infinite_step_is_refused(self):
        with pytest.raises(BadParameter):
            Grid(0.0, math.inf, 10)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True])
    def test_non_integer_steps_are_refused(self, steps):
        # 2.5 and True pass steps >= 1, and find_recurrence used to run on both
        with pytest.raises(BadParameter, match="integer steps"):
            Grid(0.0, 0.1, steps)


class TestDefaultDt:
    def test_quarter_period_of_fastest_line(self):
        H = Hamiltonian(np.array([0.0, 1.0, 5.0]))
        assert default_dt(H) == pytest.approx(math.pi / 20.0)

    def test_hbar_scaling(self):
        H = Hamiltonian(np.array([0.0, 2.0]), hbar=3.0)
        assert default_dt(H) == pytest.approx(3.0 * math.pi / 8.0)

    @pytest.mark.parametrize("hbar", [1.0, 3.0])
    @pytest.mark.parametrize("energies", [[0.7], [2.5, 2.5, 2.5]], ids=["one-level", "equal"])
    def test_zero_spread_gives_a_quarter_of_pi_hbar(self, energies, hbar):
        assert default_dt(Hamiltonian(np.array(energies), hbar=hbar)) == math.pi * hbar / 4


class TestFidelitySeries:
    def test_matches_qubit_closed_form(self):
        H, rho0 = qubit()
        k = make_kernel(H, rho0)
        ts = np.linspace(0.0, 10.0, 101)
        f = fidelity_series(k, ts)
        assert np.allclose(f, np.abs(np.cos(ts / 2.0)), atol=1e-12)

    def test_chunking_consistency(self):
        H, rho0 = random_system(3, 0)
        k = make_kernel(H, rho0)
        ts = np.linspace(0.0, 20.0, 500)
        whole = fidelity_series(k, ts)
        parts = np.concatenate([fidelity_series(k, ts[:123]), fidelity_series(k, ts[123:])])
        assert np.array_equal(whole, parts)


class TestFindRecurrence:
    def test_qubit_period(self):
        H, rho0 = qubit()
        dt = default_dt(H)
        grid = Grid(0.0, dt, math.ceil(7.0 / dt))
        res = find_recurrence(H, rho0, 0.999, grid)
        assert res.t_departure is not None
        assert abs(res.t_rec - 2.0 * math.pi) <= dt
        assert not res.stationary

    def test_qubit_bracket_check(self):
        H, rho0 = qubit()
        eps = threshold_to_epsilon(0.999)
        report = energy_bounds(H, rho0, eps)
        dt = default_dt(H)
        grid = Grid(0.0, dt, math.ceil(7.0 / dt))
        res = find_recurrence(H, rho0, 0.999, grid, report=report)
        assert res.bracket_check["lower_ok"] and res.bracket_check["upper_ok"]
        assert report.lower_mt == pytest.approx(2.0 * eps, rel=1e-12)
        assert report.upper_product == pytest.approx(4.0 * math.pi**2 / eps, rel=1e-12)

    def test_stationary_state(self):
        H = Hamiltonian(np.array([0.0, 1.0]))
        rho0 = validate_density(np.diag([0.6, 0.4]).astype(complex))
        res = find_recurrence(H, rho0, 0.999, Grid(0.0, default_dt(H), 1000))
        assert res.stationary
        assert res.no_departure_within_horizon
        assert res.t_departure is None and res.t_rec is None
        assert res.to_dict()["no_departure_within_horizon"] is True

    @pytest.mark.parametrize("kind", ["gibbs", "diagonal"])
    def test_stationary_state_is_not_scanned(self, kind, monkeypatch):
        # F(t) > 1 - n^(5/2) eps max|rho0| at all t for a state that does
        # not move: no threshold below that can be crossed
        H = Hamiltonian(np.array([0.0, 1.0, 2.5, 4.0]))
        diagonal = np.diag([0.4, 0.3, 0.2, 0.1])
        rho0 = gibbs_state(H, 1.0) if kind == "gibbs" else validate_density(diagonal)
        calls = []
        series = search.fidelity_series
        monkeypatch.setattr(search, "fidelity_series", lambda *a: calls.append(1) or series(*a))
        res = find_recurrence(H, rho0, 0.9, Grid(0.0, default_dt(H), 100_000))
        assert calls == []
        assert res.stationary and res.no_departure_within_horizon
        assert res.diagnostics["samples_evaluated"] == res.diagnostics["chunks"] == 0
        floor = 1.0 - 4**2.5 * np.finfo(float).eps * np.abs(rho0.matrix).max()
        find_recurrence(H, rho0, np.nextafter(floor, 0.0), Grid(0.0, default_dt(H), 1000))
        assert calls == []
        find_recurrence(H, rho0, floor, Grid(0.0, default_dt(H), 1000))  # not below: walked
        assert calls

    def test_horizon_without_departure_is_not_stationary(self):
        H, rho0 = qubit()
        res = find_recurrence(H, rho0, 0.999, Grid(0.0, default_dt(H), 1))
        assert res.no_departure_within_horizon
        assert not res.stationary

    def test_commensurate_three_level(self):
        H = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        rho0 = random_state(3, 3)
        dt = default_dt(H)
        grid = Grid(0.0, dt, math.ceil(7.0 / dt))
        res = find_recurrence(H, rho0, 0.999, grid)
        assert res.t_rec is not None
        assert res.t_rec <= 2.0 * math.pi + dt

    def test_coarse_grid_refused(self):
        H, rho0 = qubit()
        coarse = Grid(0.0, 10.0 * default_dt(H), 100)
        with pytest.raises(GridTooCoarse):
            find_recurrence(H, rho0, 0.999, coarse)
        res = find_recurrence(H, rho0, 0.999, coarse, allow_coarse=True)
        assert res.threshold == 0.999

    def test_refinement_tightens_qubit(self):
        H, rho0 = qubit()
        dt = default_dt(H)
        grid = Grid(0.0, dt, math.ceil(7.0 / dt))
        res = find_recurrence(H, rho0, 0.999, grid, refine=True)
        # F = |cos(t/2)| leaves 0.999 at 2 arccos(0.999) and is back just
        # before 2 pi; the dt/1024 grid lands within dt/2^10 after each
        true_dep = 2.0 * math.acos(0.999)
        true_cross = 2.0 * math.pi - 2.0 * math.acos(0.999)
        assert res.refined
        assert 0.0 <= res.t_departure - true_dep <= dt / 2.0**10
        assert abs(res.t_rec - true_cross) <= dt / 2.0**9

    def test_bad_threshold(self):
        H, rho0 = qubit()
        with pytest.raises(BadParameter):
            find_recurrence(H, rho0, 1.0, Grid(0.0, 0.1, 10))

    def test_to_dict_records_definition(self):
        H, rho0 = qubit()
        res = find_recurrence(H, rho0, 0.999, Grid(0.0, default_dt(H), 10))
        d = res.to_dict()
        assert "departure" in d["definition"]
        assert d["grid"]["steps"] == 10
        refined = find_recurrence(H, rho0, 0.999, Grid(0.0, default_dt(H), 10), refine=True)
        assert refined.to_dict()["definition"].startswith("first time on the dt/1024 grid")


def _first_fine(kernel, t, dt, threshold, inside):
    """The first of the 1024 times of Grid(t - dt, dt/1024, 1024) with F on
    the given side of the threshold, every one evaluated; t if none is."""
    times = Grid(t - dt, dt / 1024, 1024).times()
    hits = np.flatnonzero((fidelity_series(kernel, times) >= threshold) == inside)
    return float(times[hits[0]]) if hits.size else t


class TestRefinedCrossing:
    """A refined time is the first sample on its side of the threshold on
    the dt/1024 grid of the step up to the grid crossing."""

    @staticmethod
    def check(H, rho0, threshold, grid):
        coarse = find_recurrence(H, rho0, threshold, grid, allow_coarse=True)
        res = find_recurrence(H, rho0, threshold, grid, allow_coarse=True, refine=True)
        kernel = make_kernel(H, rho0)
        dep = coarse.t_departure
        if dep is not None and dep > grid.t0:
            dep = _first_fine(kernel, dep, grid.dt, threshold, inside=False)
        rec = coarse.t_rec
        if rec is not None:
            rec = _first_fine(kernel, rec, grid.dt, threshold, inside=True)
        assert (res.t_departure, res.t_rec) == (dep, rec)
        assert res.diagnostics == coarse.diagnostics
        return res

    def test_qubit_on_a_step_of_two_return_windows(self):
        # at dt = 7 the step (238, 245] holds two return windows, around
        # 2 pi 38 = 238.76 and 2 pi 39 = 245.04; the first opens at 238.672
        H, rho0 = qubit()
        res = self.check(H, rho0, 0.999, Grid(0.0, 7.0, 400))
        first = 76.0 * math.pi - 2.0 * math.acos(0.999)
        assert first <= res.t_rec <= first + 7.0 / 1024

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 10_000),
        pure=st.booleans(),
        coarse=st.floats(1.0, 8.0),
        threshold=st.floats(0.3, 0.97),
    )
    def test_random_systems_on_coarse_grids(self, n, seed, pure, coarse, threshold):
        H, rho0 = random_system(n, seed)
        if pure:
            rho0 = pure_state(np.linalg.eigh(rho0.matrix)[1][:, -1])
        self.check(H, rho0, threshold, Grid(0.0, coarse * default_dt(H), 2000))


class TestStroboscopic:
    def test_exact_period_gives_one(self):
        H, rho0 = qubit()
        res = stroboscopic_recurrence(H, rho0, 0.9, 2.0 * math.pi)
        assert res.j_found == 1
        assert not res.cap_exceeded

    def test_immediate_return_for_low_floor(self):
        H, rho0 = qubit()
        # at t = 0.01 the fidelity is still almost 1, so j = 1 suffices
        res = stroboscopic_recurrence(H, rho0, 0.5, 0.01)
        assert res.j_found == 1

    def test_irrational_step_found_below_theory(self):
        H, rho0 = Hamiltonian(np.array([0.0, 1.0])), random_state(2, 11)
        res = stroboscopic_recurrence(H, rho0, 0.5, math.sqrt(2.0))
        jmax, _ = dimension_bound(2, 0.5)
        assert res.j_found is not None
        assert res.j_found <= jmax

    def test_cap_reported(self):
        H, rho0 = Hamiltonian(np.array([0.0, 1.0])), random_state(2, 12)
        res = stroboscopic_recurrence(H, rho0, 0.9, math.sqrt(2.0), jmax_cap=500)
        jmax, _ = dimension_bound(2, 0.9)
        assert res.cap == 500
        assert res.jmax_theory == pytest.approx(jmax)
        if res.j_found is None:
            assert res.cap_exceeded

    def test_bad_step(self):
        H, rho0 = qubit()
        with pytest.raises(BadParameter):
            stroboscopic_recurrence(H, rho0, 0.5, 0.0)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_refused(self, cap):
        H, rho0 = qubit()
        with pytest.raises(BadParameter, match="jmax_cap"):
            stroboscopic_recurrence(H, rho0, 0.9, 0.37, jmax_cap=cap)

    @pytest.mark.parametrize("cap", [MAX_AUTO_SAMPLES + 1, 10**12])
    def test_cap_over_the_limit_is_refused_before_the_scan(self, cap):
        # epsilon = 1.0 is never reached and the theory ceiling is infinite,
        # so an accepted cap of 10**12 would be a 10**12-sample scan
        H, rho0 = qubit()
        with pytest.raises(BadParameter, match=f"MAX_AUTO_SAMPLES = {MAX_AUTO_SAMPLES}, got {cap}"):
            stroboscopic_recurrence(H, rho0, 1.0, 0.37, jmax_cap=cap)


class TestBuresSeries:
    def test_qubit_near_its_return(self):
        # exact: 0; |fl(2 pi) - 2 pi| / 2 = 1.2e-16; 2 sin(t/4) = 5.0e-10.
        # sqrt(2 - 2F) gave 2.1e-8 at all three
        H, rho0 = qubit()
        kernel = make_kernel(H, rho0)
        times = np.array([0.0, 2.0 * math.pi, 1e-9])
        d = bures_series(kernel, times, fidelity_series(kernel, times))
        assert d[0] == 0.0
        assert 0.0 <= d[1] <= 2e-16
        assert abs(d[2] - 5e-10) <= 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_matches_40_digits(self, kind, seed):
        n = (2, 4, 6)[seed]
        H, rho0 = random_system(n, seed)
        if kind == "pure":
            rng = np.random.default_rng(seed)
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            rho0 = pure_state(psi / np.linalg.norm(psi))
        kernel = make_kernel(H, rho0)
        times = np.concatenate([[0.0, 1e-9, 1e-6, 1e-4, 1e-3], np.linspace(0.01, 0.3, 8)])
        f = fidelity_series(kernel, times)
        d = bures_series(kernel, times, f)
        ref = np.array([bures_hp(rho0.factor, H.energies, H.hbar, t) for t in times])
        near = 1.0 - f < NEAR_RETURN
        assert near.sum() >= 4 and (~near).sum() >= 4
        # near a return, a few eps; elsewhere sqrt(2 - 2F) turns an error
        # of 1e-14 in F into 1e-14 / d in d
        assert np.all(np.abs(d - ref)[near] <= 1e-14)
        assert np.all((np.abs(d - ref) * ref)[~near] <= 1e-14)


class TestLipschitzContinuity:
    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 300))
    def test_fidelity_series_is_lipschitz(self, n, seed):
        H, rho0 = random_system(n, seed)
        k = make_kernel(H, rho0)
        dt = default_dt(H)
        ts = np.arange(0.0, 400.0 * dt, dt)
        f = fidelity_series(k, ts)
        # slope never exceeds the fastest oscillation (factor-2 slack)
        assert np.abs(np.diff(f)).max() <= 2.0 * dt * np.ptp(k.levels)


class TestDimensionCeilingHolds:
    def test_qubit_family_at_moderate_floor(self):
        # at eps = 0.5 the n = 2 ceiling is small enough to check exhaustively
        jmax, _ = dimension_bound(2, 0.5)
        assert jmax < 100000
        H = Hamiltonian(np.array([0.0, 1.0]))
        for seed in range(10):
            rho0 = random_state(2, seed)
            res = stroboscopic_recurrence(H, rho0, 0.5, math.e / 3.0)
            assert res.j_found is not None
            assert res.j_found <= jmax
