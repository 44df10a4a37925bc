import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma

from conftest import random_state, random_system
from qrecur import (
    Grid,
    Hamiltonian,
    bhattacharyya_estimate,
    default_dt,
    dimension_bound,
    energy_bounds,
    evolve,
    fidelity,
    find_recurrence,
    make_kernel,
    peres_estimate,
    pure_state,
    random_density,
    reduce_to_support,
    sin_power_integral,
    sphere_ball_volume,
    threshold_to_epsilon,
    trace_distance_norm,
    truncate,
    truncated_bounds,
    validate_density,
)
from qrecur.bounds import (
    EPS_BURES_SCALE,
    EPS_FIDELITY_FLOOR,
    log_cn,
    log_sin_power_integral,
)
from qrecur.errors import (
    BadDomain,
    DegenerateSpectrum,
    PreconditionViolated,
    StationaryState,
)
from qrecur.states import random_hamiltonian


class TestSinPowerIntegral:
    def test_m0_is_length(self):
        assert sin_power_integral(0, 1.3) == pytest.approx(1.3, abs=1e-14)

    def test_m1_closed_form(self):
        assert sin_power_integral(1, 2.0) == pytest.approx(1.0 - math.cos(2.0), abs=1e-13)

    def test_against_quadrature(self):
        for m in (2, 6, 15, 40):
            for x in (0.1, 0.5, math.pi / 2, 2.5, math.pi):
                ref, _ = quad(lambda s: math.sin(s) ** m, 0.0, x)
                assert sin_power_integral(m, x) == pytest.approx(ref, abs=1e-12)

    def test_symmetry_about_half_pi(self):
        full = sin_power_integral(6, math.pi)
        assert full == pytest.approx(2.0 * sin_power_integral(6, math.pi / 2), rel=1e-13)

    def test_log_variant_consistent(self):
        assert log_sin_power_integral(6, 0.5) == pytest.approx(
            math.log(sin_power_integral(6, 0.5)), abs=1e-12
        )
        assert log_sin_power_integral(6, 0.0) == -math.inf

    def test_domain_errors(self):
        with pytest.raises(BadDomain):
            sin_power_integral(-1, 0.5)
        with pytest.raises(BadDomain):
            sin_power_integral(2, 4.0)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(0, 60), x=st.floats(0.0, math.pi))
    def test_monotone_nonnegative(self, m, x):
        v = sin_power_integral(m, x)
        assert 0.0 <= v <= math.pi
        assert v <= sin_power_integral(m, math.pi) + 1e-15


EPS = sys.float_info.epsilon
# every m the dimension bound can ask for up to n = 32, and all small m
ACCURACY_MS = sorted(set(range(65)) | {2 * n * n - 2 for n in range(2, 33)})
ACCURACY_XS = (1e-8, 0.1, math.pi / 4, 1 / math.sqrt(2), 1.0, 1.5, math.pi / 2, 1.6, 2.5, math.pi)


def _log_sin_power_ref(m, x):
    """ln of the integral from the 60-digit regularization-free incomplete
    beta, folded about pi/2 as the integrand is symmetric there."""
    with mp.workdps(60):
        a, xm = mp.mpf(m + 1) / 2, mp.mpf(x)
        if xm <= mp.pi / 2:
            return mp.log(mp.betainc(a, 0.5, 0, mp.sin(xm) ** 2) / 2)
        return mp.log(mp.beta(a, 0.5) - mp.betainc(a, 0.5, 0, mp.sin(mp.pi - xm) ** 2) / 2)


def _log_sin_power_series(m, x):
    """ln of S^(m+1) sum_k (1/2)_k/k! S^(2k)/(m+2k+1), S = sin x: all
    terms positive, summed at 50 digits; slow unless S^2 is well below 1."""
    with mp.workdps(50):
        s2 = mp.sin(mp.mpf(x)) ** 2
        coef, total, k = mp.mpf(1), mp.mpf(0), 0
        while True:
            term = coef / (m + 2 * k + 1)
            total += term
            if term < total * mp.mpf(10) ** -50:
                return (m + 1) * mp.log(s2) / 2 + mp.log(total)
            k += 1
            coef *= (k - mp.mpf(1) / 2) / k * s2


class TestSinPowerAccuracy:
    @pytest.mark.parametrize("m", ACCURACY_MS)
    def test_against_60_digit_beta(self, m):
        rng = np.random.default_rng(m)
        xs = [*ACCURACY_XS, *rng.uniform(0.0, math.pi, 6), *rng.uniform(0.0, 1 / math.sqrt(2), 3)]
        for x in xs:
            ref = _log_sin_power_ref(m, x)
            dev = float(abs(log_sin_power_integral(m, x) - ref) / max(1, abs(ref)))
            bound = 4 if x <= 1 / math.sqrt(2) else 16 if m <= 64 else 128
            assert dev <= bound * EPS, (m, x, dev / EPS)
        assert log_sin_power_integral(m, 0.0) == -math.inf

    @pytest.mark.parametrize("m, x", [(199998, 1.2), (200000, 1.2), (999999, 1.5)])
    def test_large_m(self, m, x):
        # the linear values underflow; the logs carry the check
        ref = _log_sin_power_series(m, x)
        assert float(abs(log_sin_power_integral(m, x) - ref) / abs(ref)) <= 128 * EPS
        assert sin_power_integral(m, x) == float(mp.exp(ref))
        with mp.workdps(50):
            log_prefactor = mp.log(2) + (m + 1) * mp.log(mp.pi) / 2 - mp.loggamma(mp.mpf(m + 1) / 2)
            assert sphere_ball_volume(m + 1, x) == float(mp.exp(log_prefactor + ref))


class TestDimensionBound:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 100])
    def test_against_50_digit_closed_form(self, n):
        for eps in (0.05, 0.5, 0.9, 0.999):
            x = math.sqrt(2.0 - 2.0 * eps) / 2.0
            with mp.workdps(50):
                ref = mp.log(mp.beta(n * n, 0.5)) - _log_sin_power_ref(2 * n * n - 2, x)
            assert float(abs(dimension_bound(n, eps)[1] - ref) / ref) <= 2 * EPS, (n, eps)

    def test_n1_closed_form(self):
        jmax, log_jmax = dimension_bound(1, 0.5)
        assert jmax == pytest.approx(4.0, rel=1e-12)
        assert log_jmax == pytest.approx(math.log(4.0), abs=1e-12)

    def test_n1_generic_epsilon(self):
        for eps in (0.1, 0.3, 0.9):
            expected = 4.0 / math.sqrt(2.0 - 2.0 * eps)
            assert dimension_bound(1, eps)[0] == pytest.approx(expected, rel=1e-12)

    def test_n2_composition(self):
        jmax, _ = dimension_bound(2, 0.5)
        expected = (
            math.sqrt(math.pi)
            * gamma(4.0)
            / gamma(4.5)
            / sin_power_integral(6, 0.5)
        )
        assert jmax == pytest.approx(expected, rel=1e-12)

    def test_epsilon_one_degenerates(self):
        jmax, log_jmax = dimension_bound(2, 1.0)
        assert math.isinf(jmax) and math.isinf(log_jmax)

    def test_large_n_stays_in_log_space(self):
        jmax, log_jmax = dimension_bound(40, 0.999)
        assert math.isinf(jmax)
        assert math.isfinite(log_jmax)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), lo=st.floats(0.05, 0.9), hi=st.floats(0.05, 0.9))
    def test_monotone_in_epsilon(self, n, lo, hi):
        # a higher fidelity floor means a smaller target ball and a larger ceiling
        lo, hi = sorted((lo, hi))
        assert dimension_bound(n, lo)[1] <= dimension_bound(n, hi)[1] + 1e-12

    def test_domain(self):
        with pytest.raises(BadDomain):
            dimension_bound(0, 0.5)
        with pytest.raises(BadDomain):
            dimension_bound(2, 0.0)


class TestThresholdConversion:
    def test_bures_scale(self):
        eps = threshold_to_epsilon(0.999)
        assert eps == pytest.approx(2.0 * math.sqrt(1e-3), rel=1e-12)
        # round trip: F >= 1 - eps^2/4 recovers the threshold
        assert 1.0 - eps**2 / 4.0 == pytest.approx(0.999, abs=1e-12)

    def test_domain(self):
        for threshold in (0.0, 1.0, math.nan):
            with pytest.raises(BadDomain):
                threshold_to_epsilon(threshold)


class TestReduceToSupport:
    def test_full_support_untouched(self):
        H, rho0 = random_system(3, 0)
        H2, rho2, dropped = reduce_to_support(H, rho0)
        assert dropped == ()
        assert H2 is H and rho2 is rho0

    def test_drops_zero_level(self):
        H = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        rho0 = validate_density(np.diag([0.5, 0.0, 0.5]).astype(complex))
        H2, rho2, dropped = reduce_to_support(H, rho0)
        assert dropped == (1,)
        assert np.allclose(H2.energies, [0.0, 2.0])
        assert np.allclose(rho2.populations, [0.5, 0.5])


class TestEnergyBounds:
    def qubit(self):
        return (
            Hamiltonian(np.array([0.0, 1.0])),
            pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0)),
        )

    def test_qubit_closed_form(self):
        H, rho0 = self.qubit()
        eps = 0.1
        rep = energy_bounds(H, rho0, eps)
        # c_2 = 4*pi^2, product of sqrt(p) = 1/2, dE = 1/2
        assert rep.lower_mt == pytest.approx(2.0 * eps, rel=1e-12)
        assert rep.upper_product == pytest.approx(4.0 * math.pi**2 / eps, rel=1e-12)
        assert rep.upper_simplified == pytest.approx(rep.upper_product, rel=1e-12)
        assert rep.epsilon_convention == EPS_BURES_SCALE
        assert rep.max_epsilon == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-12)
        assert rep.lambda_shift == pytest.approx(0.5)
        assert rep.torus_radii == pytest.approx((1 / math.sqrt(2.0),) * 2)

    @pytest.mark.parametrize(
        "t_rec, dt, lower_ok, upper_ok",
        [(1.0, 0.0, True, True), (0.15, 0.0, False, True), (0.15, 0.1, True, True),
         (400.0, 0.0, True, False), (400.0, 6.0, True, True)],
    )
    def test_bracket_check(self, t_rec, dt, lower_ok, upper_ok):
        # the qubit bracket at eps = 0.1 is [0.2, 394.78...]
        rep = energy_bounds(*self.qubit(), 0.1)
        assert rep.bracket_check(t_rec, dt) == {
            "lower_mt": rep.lower_mt,
            "upper_product": rep.upper_product,
            "lower_ok": lower_ok,
            "upper_ok": upper_ok,
        }

    def test_hbar_scaling(self):
        H, rho0 = self.qubit()
        rep1 = energy_bounds(H, rho0, 0.1)
        rep2 = energy_bounds(Hamiltonian(H.energies, hbar=3.0), rho0, 0.1)
        # dE is in energy units, so both edges scale linearly with hbar
        assert rep2.lower_mt == pytest.approx(3.0 * rep1.lower_mt, rel=1e-12)
        assert rep2.upper_product == pytest.approx(3.0 * rep1.upper_product, rel=1e-12)

    def test_precondition_violation_reports_cap(self):
        H, rho0 = self.qubit()
        with pytest.raises(PreconditionViolated) as exc:
            energy_bounds(H, rho0, 3.0)
        assert exc.value.max_epsilon == pytest.approx(math.pi / math.sqrt(2.0))

    def test_stationary_state_rejected(self):
        H = Hamiltonian(np.array([0.0, 1.0]))
        with pytest.raises(StationaryState):
            energy_bounds(H, pure_state(np.array([1.0, 0.0])), 0.1)

    def test_rescaled_qubit_matches_the_unit_qubit(self):
        # E = (0, 1e-20) with hbar = 1e-20 is the unit qubit in other units:
        # its dE = 5e-21 is not zero, whatever the unit
        H, rho0 = self.qubit()
        unit = energy_bounds(H, rho0, 0.1)
        rescaled = energy_bounds(Hamiltonian(np.array([0.0, 1e-20]), 1e-20), rho0, 0.1)
        assert rescaled.lower_mt == pytest.approx(unit.lower_mt, rel=1e-14)
        assert rescaled.upper_product == pytest.approx(unit.upper_product, rel=1e-14)

    @pytest.mark.parametrize("c", [1e-20, -3.7, 1e6, 1e20])
    def test_degenerate_support_rejected_at_any_scale(self, c):
        # all six levels at E = c: the computed dE is round-off, nonzero for
        # these populations and in the unit of c (about 1.6e4 at c = 1e20)
        p = np.random.default_rng(2).uniform(0.05, 1.0, size=6)
        H = Hamiltonian(np.full(6, c))
        rho0 = validate_density(np.diag(p / p.sum()).astype(complex))
        with pytest.raises(StationaryState):
            energy_bounds(H, rho0, 0.1)

    def test_degenerate_spectrum_rejected(self):
        H = Hamiltonian(np.array([1.0, 1.0]))
        rho0 = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        with pytest.raises(StationaryState):
            energy_bounds(H, rho0, 0.1)

    def test_support_reduction_recorded(self):
        H = Hamiltonian(np.array([0.0, 1.0, 5.0]))
        rho0 = validate_density(np.diag([0.5, 0.5, 0.0]).astype(complex))
        rep = energy_bounds(H, rho0, 0.1)
        assert rep.n == 2
        assert rep.support_dropped == (2,)
        assert rep.preconditions["support_reduced"] is True

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2000), eps=st.floats(0.01, 0.2))
    def test_bracket_orders_and_amgm(self, n, seed, eps):
        H, rho0 = random_system(n, seed)
        try:
            rep = energy_bounds(H, rho0, eps)
        except (PreconditionViolated, StationaryState):
            return
        assert 0.0 < rep.lower_mt < rep.upper_product
        # the population-product form can never exceed the n^(-n/2) form
        assert rep.log_upper_product <= rep.log_upper_simplified + 1e-12
        assert rep.upper_product == pytest.approx(
            math.exp(rep.log_upper_product), rel=1e-12
        )

    def test_log_cn_small_cases(self):
        # c_2 = 1 * Gamma(1/2) * 4 * pi^(3/2) = 4 pi^2
        assert log_cn(2) == pytest.approx(math.log(4.0 * math.pi**2), abs=1e-12)
        with pytest.raises(BadDomain):
            log_cn(1)


class TestTruncatedBounds:
    def system(self):
        H = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        rho0 = validate_density(np.diag([0.5, 0.3, 0.2]).astype(complex))
        return H, rho0

    def test_energy_mode_ceiling(self):
        H, rho0 = self.system()
        trunc = truncate(rho0, 2)
        eps = 0.5
        rep = truncated_bounds(H, trunc, eps, "energy")
        expected = 2.0 * math.sqrt(0.04) + math.sqrt(2.0) * 0.8 * eps * math.sqrt(
            1.0 - eps**2 / 8.0
        )
        assert rep.distance_ceiling == pytest.approx(expected, rel=1e-12)
        assert rep.ceiling_norm == "trace"
        assert rep.n == 2
        assert rep.epsilon_convention == EPS_BURES_SCALE

    def test_dimension_mode_ceiling(self):
        H, rho0 = self.system()
        trunc = truncate(rho0, 2)
        eps = 0.9
        rep = truncated_bounds(H, trunc, eps, "dimension")
        # 2 ||rho0 - sigma_N||_1 + 2 P_N sqrt(1 - eps^2), Fuchs-van de Graaf
        expected = 2.0 * 0.2 + 2.0 * 0.8 * math.sqrt(1.0 - eps**2)
        assert rep.distance_ceiling == pytest.approx(expected, rel=1e-12)
        assert rep.epsilon_convention == EPS_FIDELITY_FLOOR
        assert rep.jmax_dimension == pytest.approx(dimension_bound(2, eps)[0])
        assert math.isnan(rep.upper_product)

    def test_unknown_mode(self):
        H, rho0 = self.system()
        with pytest.raises(BadDomain):
            truncated_bounds(H, truncate(rho0, 2), 0.5, "other")

    def test_dimension_mode_ceiling_holds_at_a_return(self):
        # the kept block returns to F = 0.9 at t = 2 arccos 0.9; the cross
        # blocks to the nearly empty third level stay under the ceiling
        amplitudes = np.array([1.0, 1.0, 1e-3]) / math.sqrt(2.0 + 1e-6)
        H, rho0 = Hamiltonian(np.array([0.0, 1.0, 2.0])), pure_state(amplitudes)
        trunc = truncate(rho0, 2)
        t = 2.0 * math.acos(0.9) * (1.0 - 1e-12)
        block = trunc.sigma_tilde
        block_t = evolve(make_kernel(Hamiltonian(np.array([0.0, 1.0])), block), t)
        assert fidelity(block_t, block) >= 0.9
        measured = trace_distance_norm(evolve(make_kernel(H, rho0), t), rho0)
        ceiling = truncated_bounds(H, trunc, 0.9, "dimension").distance_ceiling
        assert measured == pytest.approx(0.8717812, abs=1e-7)
        assert measured <= ceiling

    def test_energy_mode_ceiling_holds_at_a_return(self):
        # instance 6 of the truncation suite at seed 42, with eps at u = 0.3:
        # the cross blocks carry more than 2 sqrt(delta_N) can cover
        rng = np.random.default_rng([42, 3006])
        H, rho0 = random_hamiltonian(6, rng), random_density(6, rng)
        trunc = truncate(rho0, 3)
        H_N = Hamiltonian(H.energies[:3])
        eps = 0.3 * math.pi * math.sqrt(trunc.sigma_tilde.populations.min())
        rep = truncated_bounds(H, trunc, eps, "energy")
        dt = min(default_dt(H_N), rep.lower_mt / 4.0)
        res = find_recurrence(
            H_N, trunc.sigma_tilde, 1.0 - eps**2 / 4.0,
            Grid(0.0, dt, math.ceil((rep.upper_product + 2 * dt) / dt)), report=rep,
        )
        measured = trace_distance_norm(evolve(make_kernel(H, rho0), res.t_rec), rho0)
        assert measured > 2.0 * math.sqrt(trunc.delta_N) + math.sqrt(2.0) * trunc.P_N * eps
        assert measured <= rep.distance_ceiling

    def test_negative_floor_gives_the_whole_block(self):
        # eps > 2 puts the floor 1 - eps^2/4 below 0, which F >= 0 makes void
        H = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        rho0 = validate_density(np.diag([0.45, 0.45, 0.1]).astype(complex))
        rep = truncated_bounds(H, truncate(rho0, 2), 2.1, "energy")
        assert rep.distance_ceiling == pytest.approx(2.0 * 0.1 + 2.0 * 0.9, rel=1e-12)

    def test_small_epsilon_keeps_the_block_term(self):
        H, rho0 = self.system()
        eps = 1e-9
        rep = truncated_bounds(H, truncate(rho0, 2), eps, "energy")
        expected = 2.0 * 0.2 + math.sqrt(2.0) * 0.8 * eps * math.sqrt(1.0 - eps**2 / 8.0)
        assert rep.distance_ceiling == pytest.approx(expected, rel=1e-12)


class TestEstimates:
    def test_peres_n1(self):
        # one gap, 2.5: sigma = 1, value = 1/2.5
        assert peres_estimate((0.0, 2.5), 0.3) == pytest.approx(
            1.0 / 2.5, rel=1e-12
        )

    def test_peres_n2_closed_form(self):
        # gaps (1, 3), eps = 1: R = sqrt(2)/(2 pi), sigma = 2R, value = pi/4
        assert peres_estimate((0.0, 1.0, 3.0), 1.0) == pytest.approx(
            math.pi / 4.0, rel=1e-12
        )

    def test_bhattacharyya_n2(self):
        assert bhattacharyya_estimate((1.0, 3.5), 0.7) == pytest.approx(1.0 / 2.5, rel=1e-12)

    def test_bhattacharyya_n3_unit_power(self):
        # eps = 4*pi makes the power term 1: value Gamma(3/2)/(sqrt(2)*nu_rms)
        nu = (0.0, 1.0, 1.0)
        nu_rms = 1.0
        expected = gamma(1.5) / (math.sqrt(2.0) * nu_rms)
        assert bhattacharyya_estimate(nu, 4.0 * math.pi) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrum):
            bhattacharyya_estimate((1.0, 1.0, 1.0), 0.5)

    def test_bad_inputs(self):
        with pytest.raises(BadDomain, match="need positive gaps"):
            peres_estimate((1.0, 1.0, 2.0), 0.5)  # a zero gap to the lowest level

    @pytest.mark.parametrize("estimate", [peres_estimate, bhattacharyya_estimate])
    def test_gaps_to_the_lowest_level(self, estimate):
        """Neither the zero of energy nor the order of the levels moves an
        estimate: both are built from the gaps to the lowest level."""
        value = estimate((0.0, 1.0, 2.5), 0.3)
        assert estimate((5.0, 6.0, 7.5), 0.3) == value
        assert estimate((1.0, 0.0, 2.5), 0.3) == value
        assert estimate((2.5, 1.0, 0.0), 0.3) == value

    @pytest.mark.parametrize("estimate", [peres_estimate, bhattacharyya_estimate])
    @pytest.mark.parametrize(
        "nu, message",
        [
            ((), "need n >= 1 frequencies"),
            ((1.0, math.inf), "frequencies must be finite"),
            ((math.nan, 2.0), "frequencies must be finite"),
        ],
    )
    def test_empty_or_nonfinite_frequencies(self, estimate, nu, message):
        with pytest.raises(BadDomain, match=message):
            estimate(nu, 0.5)


def test_report_to_dict_round_trips():
    H = Hamiltonian(np.array([0.0, 1.0]))
    rep = energy_bounds(H, random_state(2, 9), 0.05)
    d = rep.to_dict()
    assert d["n"] == 2
    assert d["lower_mt"] == rep.lower_mt
    assert "distance_ceiling" not in d
    import json

    json.dumps(d)  # must be serializable
