import math

import numpy as np
import pytest
from scipy.linalg import sqrtm
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from qrecur import (
    Hamiltonian,
    energy_stats,
    evolve,
    fidelity,
    fvg_check,
    make_kernel,
    pure_state,
    trace_distance_norm,
    validate_density,
)
from qrecur.errors import DimensionMismatch
from qrecur.metrics import bures_from_fidelity
from qrecur.search import _hs_norms
from qrecur.states import gram_factor


def basis(i):
    v = np.zeros(2)
    v[i] = 1.0
    return pure_state(v)


class TestFidelity:
    def test_identical_states(self):
        rho = random_state(3, 0)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        assert fidelity(basis(0), basis(1)) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_overlap_closed_form(self):
        # equal superposition under E=(0, omega): F = |cos(omega t / 2)|
        omega = 1.3
        H = Hamiltonian(np.array([0.0, omega]))
        rho0 = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        k = make_kernel(H, rho0)
        for t in (0.3, 1.0, 2.5, 4.0):
            expected = abs(math.cos(omega * t / 2.0))
            assert fidelity(rho0, evolve(k, t)) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(random_state(2, 0), random_state(3, 0))

    def test_symmetric(self):
        a, b = random_state(4, 1), random_state(4, 2)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)


class TestBures:
    def test_identical(self):
        rho = random_state(3, 3)
        assert bures_from_fidelity(fidelity(rho, rho)) == pytest.approx(0.0, abs=1e-6)

    def test_half_fidelity_pair(self):
        # pure states with overlap 1/2: F = 1/sqrt(2)... use mixed construction
        # instead: F = 0.5 gives bures = sqrt(2 - 1) = 1
        rho = basis(0)
        sigma = pure_state(np.array([0.5, math.sqrt(0.75)]))
        assert fidelity(rho, sigma) == pytest.approx(0.5, abs=1e-12)
        assert bures_from_fidelity(fidelity(rho, sigma)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_maximum(self):
        d = bures_from_fidelity(fidelity(basis(0), basis(1)))
        assert d == pytest.approx(math.sqrt(2.0))

    def test_from_fidelity_scalar_and_array(self):
        assert bures_from_fidelity(0.5) == 1.0
        # round-off can push F just above 1; the distance is then 0, not nan
        assert bures_from_fidelity(1.0 + 4e-16) == 0.0
        f = np.array([0.0, 0.5, 1.0, 1.0 + 4e-16])
        assert np.array_equal(bures_from_fidelity(f), [math.sqrt(2.0), 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_from_fidelity_matches_bures_distance(self, seed):
        # the Bures distance from its definition, sqrt(2 - 2 tr sqrt(sqrt(a) b sqrt(a)))
        a, b = random_state(3, seed), random_state(3, seed + 100)
        root = sqrtm(a.matrix)
        f_def = float(np.trace(sqrtm(root @ b.matrix @ root)).real)
        d = bures_from_fidelity(fidelity(a, b))
        assert d == pytest.approx(math.sqrt(2.0 - 2.0 * f_def), abs=1e-10)


class TestTraceDistance:
    def test_identical(self):
        rho = random_state(3, 4)
        assert trace_distance_norm(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance_norm(basis(0), basis(1)) == pytest.approx(2.0)

    def test_diagonal_pair(self):
        a = validate_density(np.diag([0.7, 0.3]).astype(complex))
        b = validate_density(np.diag([0.3, 0.7]).astype(complex))
        assert trace_distance_norm(a, b) == pytest.approx(0.8, abs=1e-12)


class TestHsNorm:
    """The Hilbert-Schmidt norm of each matrix in a stack, as the CSV's
    hs_dist column takes it."""

    def test_zero(self):
        assert _hs_norms(np.zeros((1, 3, 3), dtype=complex)).tolist() == [0.0]

    def test_identity(self):
        assert _hs_norms(np.eye(2, dtype=complex)[None])[0] == pytest.approx(math.sqrt(2.0))

    def test_pauli_x(self):
        a = np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1j], [1j, 0.0]]])
        assert _hs_norms(a) == pytest.approx([math.sqrt(2.0)] * 2)


class TestEnergyStats:
    def test_equal_superposition(self):
        omega = 2.0
        H = Hamiltonian(np.array([0.0, omega]))
        rho0 = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        mean, de = energy_stats(H, rho0)
        assert mean == pytest.approx(omega / 2.0)
        assert de == pytest.approx(omega / 2.0)

    def test_maximally_mixed(self):
        H = Hamiltonian(np.array([0.0, 1.0]))
        mean, de = energy_stats(H, validate_density(np.eye(2) / 2.0))
        assert (mean, de) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_basis_state_has_zero_uncertainty(self):
        H = Hamiltonian(np.array([0.0, 1.0]))
        assert energy_stats(H, basis(1)) == (pytest.approx(1.0), pytest.approx(0.0))


class TestFvg:
    def test_identical(self):
        rho = random_state(3, 5)
        assert fvg_check(rho, rho) == (True, True)

    def test_orthogonal_pure(self):
        assert fvg_check(basis(0), basis(1)) == (True, True)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 4), seed=st.integers(0, 2000))
    def test_random_pairs(self, n, seed):
        assert fvg_check(random_state(n, seed), random_state(n, seed + 10000)) == (
            True,
            True,
        )


def test_gram_factor_multiplies_back():
    rho = random_state(4, 8)
    w = gram_factor(rho.matrix)
    assert w.shape == (4, 4)
    assert np.allclose(w @ w.conj().T, rho.matrix, atol=1e-12)
    # round-off eigenvalues of a projector are outside the support
    pure = pure_state(np.array([0.6, 0.8j, 0.0]))
    assert gram_factor(pure.matrix).shape == (3, 1)
