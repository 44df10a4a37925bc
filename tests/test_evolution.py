import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_system
from qrecur import Grid, Hamiltonian, evolve, make_kernel, validate_density
from qrecur.errors import BadParameter, DimensionMismatch
from qrecur.metrics import is_stationary


def _bohr_phases(rho0, energies, hbar, t):
    """rho(t)[k, k'] = rho0[k, k'] * exp(i (E_k' - E_k) t / hbar)."""
    omega = (energies[None, :] - energies[:, None]) / hbar
    return rho0.matrix * np.exp(1j * omega * t)


def test_kernel_omega_table():
    H = Hamiltonian(np.array([0.0, 1.0]))
    rho0 = random_state(2, 0)
    rho_t = evolve(make_kernel(H, rho0), 0.7).matrix
    assert rho_t[0, 1] == pytest.approx(rho0.matrix[0, 1] * np.exp(0.7j), abs=1e-15)
    assert np.allclose(rho_t, _bohr_phases(rho0, H.energies, 1.0, 0.7), atol=1e-15)


def test_kernel_degenerate_spectrum():
    H = Hamiltonian(np.array([0.0, 0.0]))
    rho0 = random_state(2, 0)
    assert np.array_equal(evolve(make_kernel(H, rho0), 5.3).matrix, rho0.matrix)


def test_kernel_hbar_scaling():
    H = Hamiltonian(np.array([1.0, 3.0, 6.0]), hbar=2.0)
    rho0 = random_state(3, 0)
    rho_t = evolve(make_kernel(H, rho0), 1.3).matrix
    # Bohr frequency (6 - 1)/2 = 2.5 between levels 0 and 2
    assert rho_t[0, 2] == pytest.approx(rho0.matrix[0, 2] * np.exp(2.5j * 1.3), abs=1e-15)
    assert np.allclose(rho_t, _bohr_phases(rho0, H.energies, 2.0, 1.3), atol=1e-15)


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


def test_evolve_rejects_an_overflowing_phase():
    # levels +-5: 1e308 overflows the phase arguments, 1e307 does not
    rho0 = validate_density(np.full((2, 2), 0.5, dtype=complex))
    kernel = make_kernel(Hamiltonian(np.array([0.0, 10.0])), rho0)
    assert np.all(np.isfinite(evolve(kernel, -1e307).matrix))
    with pytest.raises(BadParameter, match="not finite for \\|t\\| up to 1e\\+308"):
        evolve(kernel, -1e308)


def test_grid_full_qubit_period(qubit_superposition):
    H, rho0 = qubit_superposition
    k = make_kernel(H, rho0)
    period = 2.0 * math.pi
    snaps = [evolve(k, t) for t in Grid(0.0, period / 8.0, 9).times()]
    assert np.allclose(snaps[-1].matrix, snaps[0].matrix, atol=1e-10)
    assert not np.allclose(snaps[4].matrix, snaps[0].matrix, atol=1e-3)


def test_commensurate_three_level_period():
    H = Hamiltonian(np.array([0.0, 1.0, 2.0]))
    rho0 = random_state(3, 4)
    k = make_kernel(H, rho0)
    assert np.allclose(evolve(k, 2.0 * math.pi).matrix, rho0.matrix, atol=1e-12)


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
