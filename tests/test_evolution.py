import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_system
from qrecur import Hamiltonian, evolve, evolve_grid, make_kernel, validate_density
from qrecur.evolution import is_stationary
from qrecur.errors import BadParameter, DimensionMismatch


def test_kernel_omega_table():
    H = Hamiltonian(np.array([0.0, 1.0]))
    k = make_kernel(H, random_state(2, 0))
    assert np.allclose(k.omega, [[0.0, 1.0], [-1.0, 0.0]])


def test_kernel_degenerate_spectrum():
    H = Hamiltonian(np.array([0.0, 0.0]))
    k = make_kernel(H, random_state(2, 0))
    assert np.all(k.omega == 0.0)


def test_kernel_hbar_scaling():
    H = Hamiltonian(np.array([1.0, 3.0, 6.0]), hbar=2.0)
    k = make_kernel(H, random_state(3, 0))
    assert k.omega[0, 2] == pytest.approx(2.5)


def test_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        make_kernel(Hamiltonian(np.array([0.0, 1.0])), random_state(3, 0))


def test_evolve_at_zero_is_identity():
    rho0 = random_state(3, 1)
    k = make_kernel(Hamiltonian(np.array([0.0, 0.4, 1.1])), rho0)
    assert np.array_equal(evolve(k, 0.0).matrix, rho0.matrix)


def test_diagonal_state_is_stationary():
    rho0 = validate_density(np.diag([0.2, 0.3, 0.5]).astype(complex))
    k = make_kernel(Hamiltonian(np.array([0.0, 0.4, 1.1])), rho0)
    assert np.allclose(evolve(k, 17.3).matrix, rho0.matrix, atol=1e-14)


def test_stationary_means_commuting_with_H():
    H = Hamiltonian(np.array([0.0, 0.0, 1.0]))
    diagonal = validate_density(np.diag([0.2, 0.3, 0.5]).astype(complex))
    assert is_stationary(H, diagonal)
    # a coherence inside the degenerate level does not move
    degenerate = validate_density(np.array([[0.4, 0.2, 0], [0.2, 0.4, 0], [0, 0, 0.2]]))
    assert is_stationary(H, degenerate)
    assert np.allclose(evolve(make_kernel(H, degenerate), 3.7).matrix, degenerate.matrix)
    moving = validate_density(np.array([[0.4, 0, 0.2], [0, 0.4, 0], [0.2, 0, 0.2]]))
    assert not is_stationary(H, moving)


def test_qubit_half_period_flips_coherence(qubit_superposition):
    H, rho0 = qubit_superposition
    k = make_kernel(H, rho0)
    rho = evolve(k, math.pi)
    assert rho.matrix[0, 1] == pytest.approx(-0.5)
    assert rho.matrix[1, 0] == pytest.approx(-0.5)


def test_evolve_rejects_nonfinite_time(qubit_superposition):
    H, rho0 = qubit_superposition
    with pytest.raises(BadParameter):
        evolve(make_kernel(H, rho0), math.inf)


def test_grid_single_step(qubit_superposition):
    H, rho0 = qubit_superposition
    k = make_kernel(H, rho0)
    (only,) = evolve_grid(k, 0.3, 1.0, 1)
    assert np.allclose(only.matrix, evolve(k, 0.3).matrix)


def test_grid_full_qubit_period(qubit_superposition):
    H, rho0 = qubit_superposition
    k = make_kernel(H, rho0)
    period = 2.0 * math.pi
    snaps = evolve_grid(k, 0.0, period / 8.0, 9)
    assert np.allclose(snaps[-1].matrix, snaps[0].matrix, atol=1e-10)


def test_commensurate_three_level_period():
    H = Hamiltonian(np.array([0.0, 1.0, 2.0]))
    rho0 = random_state(3, 4)
    k = make_kernel(H, rho0)
    assert np.allclose(evolve(k, 2.0 * math.pi).matrix, rho0.matrix, atol=1e-12)


def test_grid_bad_parameters(qubit_superposition):
    H, rho0 = qubit_superposition
    k = make_kernel(H, rho0)
    with pytest.raises(BadParameter):
        evolve_grid(k, 0.0, 1.0, 0)
    with pytest.raises(BadParameter):
        evolve_grid(k, 0.0, -0.1, 5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 500), t=st.floats(-50.0, 50.0))
def test_evolution_invariants(seed, t):
    H, rho0 = random_system(4, seed)
    k = make_kernel(H, rho0)
    rho_t = evolve(k, t)
    assert abs(rho_t.matrix.trace().real - 1.0) <= 1e-12
    assert np.abs(rho_t.matrix - rho_t.matrix.conj().T).max() <= 1e-12
    assert np.allclose(
        np.linalg.eigvalsh(rho_t.matrix), np.linalg.eigvalsh(rho0.matrix), atol=1e-9
    )
    # Hilbert-Schmidt norm is conserved
    assert np.linalg.norm(rho_t.matrix) == pytest.approx(
        np.linalg.norm(rho0.matrix), abs=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 500), t=st.floats(-20.0, 20.0), s=st.floats(-20.0, 20.0))
def test_group_law(seed, t, s):
    H, rho0 = random_system(3, seed)
    k = make_kernel(H, rho0)
    restarted = evolve(make_kernel(H, evolve(k, t)), s)
    assert np.allclose(restarted.matrix, evolve(k, t + s).matrix, atol=1e-10)
