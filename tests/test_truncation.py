import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_system
from qrecur import (
    Hamiltonian,
    choose_N,
    delta_time_invariance_check,
    gibbs_state,
    pure_state,
    truncate,
    validate_density,
)
from qrecur.errors import BadN, ZeroProbability
from qrecur.states import oscillator_hamiltonian


def diag_state():
    return validate_density(np.diag([0.5, 0.3, 0.2]).astype(complex))


class TestTruncate:
    def test_diagonal_example(self):
        t = truncate(diag_state(), 2)
        assert t.delta_N == pytest.approx(0.04, abs=1e-15)
        assert t.P_N == pytest.approx(0.8, abs=1e-15)
        assert np.allclose(t.sigma_tilde.populations, [0.625, 0.375])
        assert t.kept_indices == (0, 1)
        assert t.permutation is None

    def test_pure_state_tail(self):
        rho0 = pure_state(np.array([2.0, 1.0, 1.0]) / math.sqrt(6.0))
        t = truncate(rho0, 2)
        assert t.P_N == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert t.delta_N == pytest.approx(1.0 / 36.0, abs=1e-15)
        # complement includes the cross blocks the tail-only delta_N omits
        assert t.complement_hs_sq > t.delta_N

    def test_full_truncation_is_lossless(self):
        rho0 = random_state(4, 0)
        t = truncate(rho0, 4)
        assert t.delta_N == 0.0
        assert t.P_N == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(t.sigma_tilde.matrix, rho0.matrix, atol=1e-12)

    def test_complement_is_distance_to_sigma_N(self):
        # sigma_N: the full-size matrix that keeps the N-level block of rho0
        # (reordered by population first) and is zero outside it
        rho0 = random_state(5, 1)
        for order, N in itertools.product(("energy", "population"), range(1, 6)):
            t = truncate(rho0, N, order=order)
            perm = list(t.permutation) if t.permutation else list(range(5))
            m = rho0.matrix[np.ix_(perm, perm)]
            sigma_N = np.zeros_like(m)
            sigma_N[:N, :N] = m[:N, :N]
            assert t.complement_hs_sq == float((np.abs(m - sigma_N) ** 2).sum())

    def test_population_order(self):
        rho0 = validate_density(np.diag([0.2, 0.5, 0.3]).astype(complex))
        t = truncate(rho0, 2, order="population")
        assert t.permutation == (1, 2, 0)
        assert t.kept_indices == (1, 2)
        assert t.P_N == pytest.approx(0.8, abs=1e-15)

    def test_population_order_never_worse(self):
        for seed in range(10):
            rho0 = random_state(5, seed)
            for N in (1, 2, 3, 4):
                assert (
                    truncate(rho0, N, order="population").P_N
                    >= truncate(rho0, N, order="energy").P_N - 1e-15
                )

    def test_bad_N(self):
        with pytest.raises(BadN):
            truncate(diag_state(), 0)
        with pytest.raises(BadN):
            truncate(diag_state(), 4)
        with pytest.raises(BadN):
            truncate(diag_state(), 2, order="other")

    def test_zero_probability(self):
        rho0 = validate_density(np.diag([0.0, 1.0]).astype(complex))
        with pytest.raises(ZeroProbability):
            truncate(rho0, 1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 1000))
    def test_delta_decreases_with_N(self, n, seed):
        rho0 = random_state(n, seed)
        deltas = [truncate(rho0, N).delta_N for N in range(1, n + 1)]
        assert all(a >= b - 1e-15 for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] == 0.0


class TestChooseN:
    def test_trivial_target(self):
        t1 = truncate(diag_state(), 1)
        assert choose_N(diag_state(), t1.delta_N) == 1

    def test_diagonal_example(self):
        # delta_2 = 0.04 <= 0.05 < delta_1 = 0.13
        assert truncate(diag_state(), 1).delta_N == pytest.approx(0.13)
        assert choose_N(diag_state(), 0.05) == 2

    def test_zero_target_needs_everything(self):
        assert choose_N(random_state(4, 2), 0.0) == 4

    def test_bad_target(self):
        with pytest.raises(BadN):
            choose_N(diag_state(), -0.1)


class TestDeltaTimeInvariance:
    def test_diagonal_exactly_invariant(self):
        H = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        dev = delta_time_invariance_check(H, diag_state(), 2, np.linspace(0, 50, 20))
        assert dev == 0.0

    def test_random_states(self):
        for seed in range(5):
            H, rho0 = random_system(4, seed)
            dev = delta_time_invariance_check(H, rho0, 2, np.linspace(0.0, 200.0, 50))
            assert dev <= 1e-10

    def test_pure_commensurate_over_period(self):
        H = Hamiltonian(np.array([0.0, 1.0, 2.0]))
        rho0 = pure_state(np.array([2.0, 1.0, 1.0]) / math.sqrt(6.0))
        dev = delta_time_invariance_check(
            H, rho0, 2, np.linspace(0.0, 2.0 * math.pi, 40)
        )
        assert dev <= 1e-10


def test_gibbs_oscillator_tail_is_geometric():
    H = oscillator_hamiltonian(1.0, 12)
    rho0 = gibbs_state(H, 2.0)
    p = rho0.populations
    # populations fall geometrically, so delta_N is a geometric tail of squares
    t = truncate(rho0, 4)
    expected = float((p[4:] ** 2).sum())
    assert t.delta_N == pytest.approx(expected, rel=1e-12)
    assert t.delta_N < 1e-6
