import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from qrecur import (
    gibbs_state,
    pure_state,
    random_density,
    system_from_dict,
    validate_density,
)
from qrecur.errors import (
    BadParameter,
    BadTrace,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotPositive,
)
from qrecur.states import (
    DensityMatrix,
    Hamiltonian,
    box_hamiltonian,
    gram_factor,
    oscillator_hamiltonian,
    qubit_hamiltonian,
    random_hamiltonian,
)


class TestValidateDensity:
    def test_maximally_mixed(self):
        rho = validate_density(np.eye(2) / 2.0)
        assert np.allclose(np.linalg.eigvalsh(rho.matrix), [0.5, 0.5])

    def test_pure_projector(self):
        rho = validate_density([[1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_not_positive(self):
        # symmetric 2x2 eigenvalues: (a+b)/2 +- sqrt(((a-b)/2)^2 + c^2)
        min_eig = 0.5 - math.sqrt(0.01 + 0.25)
        assert min_eig < -1e-10
        with pytest.raises(NotPositive):
            validate_density([[0.6, 0.5], [0.5, 0.4]])

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            validate_density([[0.5, 0.5], [0.0, 0.5]])

    def test_bad_trace(self):
        with pytest.raises(BadTrace):
            validate_density(np.eye(2))

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            validate_density(np.ones((2, 3)))

    def test_small_negative_eigenvalue_clipped(self):
        m = np.diag([1.0 + 5e-11, -5e-11])
        rho = validate_density(m)
        vals = np.linalg.eigvalsh(rho.matrix)
        assert vals.min() >= 0.0
        assert abs(rho.matrix.trace().real - 1.0) <= 1e-12


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries(self, bad):
        # NaN fails every > check, so it passed hermiticity, trace and positivity
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(BadParameter, match="finite"):
            validate_density(m)
        with pytest.raises(BadParameter, match="finite"):  # a system file's diagonal kind
            validate_density(np.diag([1.0, bad]).astype(complex))


class TestPureState:
    def test_basis_state(self):
        assert np.allclose(pure_state([1.0, 0.0]).matrix, [[1, 0], [0, 0]])

    def test_equal_superposition(self):
        rho = pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)))

    def test_complex_phase(self):
        rho = pure_state(np.array([1.0, 1.0j]) / np.sqrt(2.0))
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        assert np.allclose(rho.matrix, expected)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            pure_state([1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitudes(self, bad):
        with pytest.raises(BadParameter, match="finite"):
            pure_state(np.array([bad, 1.0 / math.sqrt(2.0)]))

    def test_factor_is_the_amplitudes(self):
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        psi /= np.linalg.norm(psi)
        rho = pure_state(psi)
        expected = psi.copy()
        psi[0] = 0.0  # the state keeps its own copy
        assert rho.factor.shape == (7, 1)
        assert np.array_equal(rho.factor[:, 0], expected)
        error = np.abs(rho.factor @ rho.factor.conj().T - rho.matrix).max()
        assert error <= 2 * np.finfo(float).eps
        assert not rho.factor.flags.writeable


def _spectral(vals, seed):
    """V diag(vals) V^dag for a random unitary V."""
    rng = np.random.default_rng(seed)
    n = len(vals)
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (v * np.asarray(vals, dtype=float)) @ v.conj().T


class TestFactor:
    """validate_density's factor, from the eigenpairs of its own check,
    against gram_factor's, from a fresh eigh of the stored matrix."""

    @pytest.mark.parametrize(
        "vals",
        [
            [0.1, 0.2, 0.3, 0.4],  # full rank
            [0.0, 0.0, 0.25, 0.75],  # rank 2
            [0.0, 0.0, 0.0, 0.0, 1.0],  # pure
            [1e-18, 0.3, 0.7],  # far below the cut n eps lambda_max
            [0.1, 0.2, 0.3, 0.4, 0.0, 0.0, 0.0, 0.0],  # rank 4 of 8
        ],
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reproduces_the_matrix_with_gram_factors_rank(self, vals, seed):
        m = _spectral(vals, seed)
        rho = validate_density(m / m.trace().real)
        w, n = rho.factor, rho.dim
        assert np.abs(w @ w.conj().T - rho.matrix).max() <= 4 * n * np.finfo(float).eps
        assert w.shape == gram_factor(rho.matrix).shape
        assert w.shape[1] == sum(v > 1e-17 for v in vals)
        assert not w.flags.writeable

    def test_clipped_eigenvalue(self):
        # one eigenvalue of -5e-11 is clipped to zero and the rest renormalized
        m = _spectral([-5e-11, 0.25, 0.75 + 5e-11], 4)
        rho = validate_density(m)
        w = rho.factor
        assert w.shape == (3, 2) == gram_factor(rho.matrix).shape
        assert np.abs(w @ w.conj().T - rho.matrix).max() <= 12 * np.finfo(float).eps
        assert abs(np.vdot(w, w).real - 1.0) <= 12 * np.finfo(float).eps

    def test_other_states_factor_on_first_use(self, monkeypatch):
        m = _spectral([0.2, 0.3, 0.5], 6)
        rho = DensityMatrix(m)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        w = rho.factor
        assert rho.factor is w and calls == [1]  # computed once, then kept
        assert np.array_equal(w, gram_factor(rho.matrix))


class TestGibbs:
    def test_infinite_temperature_limit(self):
        rho = gibbs_state(Hamiltonian(np.array([0.0, 1.0])), 1e-9)
        assert np.allclose(rho.populations, [0.5, 0.5], atol=1e-8)

    def test_large_gap(self):
        rho = gibbs_state(Hamiltonian(np.array([0.0, 100.0])), 1.0)
        assert rho.populations[0] == pytest.approx(1.0, abs=1e-40)
        assert rho.populations[1] == pytest.approx(3.72e-44, rel=1e-2)

    def test_commutes_with_hamiltonian(self):
        H = Hamiltonian(np.array([0.0, 0.3, 1.7]))
        rho = gibbs_state(H, 2.0)
        hd = np.diag(H.energies)
        comm = hd @ rho.matrix - rho.matrix @ hd
        assert np.abs(comm).max() <= 1e-12

    def test_huge_beta_spread_is_safe(self):
        rho = gibbs_state(Hamiltonian(np.array([0.0, 1e6])), 10.0)
        assert math.isfinite(rho.populations.sum())

    def test_bad_beta(self):
        with pytest.raises(BadParameter):
            gibbs_state(Hamiltonian(np.array([0.0, 1.0])), -1.0)


class TestModelHamiltonians:
    def test_oscillator_levels(self):
        H = oscillator_hamiltonian(1.0, 3)
        assert np.allclose(H.energies, [0.5, 1.5, 2.5])

    def test_box_levels(self):
        assert np.allclose(box_hamiltonian(1.0, 3).energies, [1, 4, 9])

    def test_qubit(self):
        assert np.allclose(qubit_hamiltonian(0.7).energies, [0.0, 0.7])

    def test_random_reproducible(self):
        a = random_hamiltonian(4, 7)
        b = random_hamiltonian(4, 7)
        assert np.array_equal(a.energies, b.energies)
        assert np.all((a.energies > 0) & (a.energies < 1))
        assert np.all(np.diff(a.energies) >= 0)

    def test_random_continues_a_generators_stream(self):
        # as random_density does: the draw is the one written inline on a
        # twin Generator, and both streams end at the same position
        rng, twin = np.random.default_rng(11), np.random.default_rng(11)
        H = random_hamiltonian(5, rng)
        assert np.array_equal(H.energies, np.sort(twin.uniform(0.0, 1.0, size=5)))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.uniform() == twin.uniform()

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            qubit_hamiltonian(-1.0)
        with pytest.raises(BadParameter):
            oscillator_hamiltonian(1.0, 0)


class TestRandomDensity:
    def test_one_dimensional(self):
        assert np.allclose(random_density(1, 3).matrix, [[1.0]])

    def test_deterministic(self):
        assert np.array_equal(random_density(3, 5).matrix, random_density(3, 5).matrix)

    def test_distinct_seeds(self):
        assert not np.array_equal(
            random_density(3, 5).matrix, random_density(3, 6).matrix
        )

    def test_full_rank(self):
        vals = np.linalg.eigvalsh(random_density(2, 1).matrix)
        assert vals.min() > 0.0
        assert vals.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 1000))
def test_constructors_pass_validation(n, seed):
    rho = random_state(n, seed)
    revalidated = validate_density(rho.matrix)
    assert np.allclose(revalidated.matrix, rho.matrix, atol=1e-12)


class TestSystemFromDict:
    def test_diagonal_state(self):
        H, rho = system_from_dict(
            {"energies": [0.0, 1.0], "state": {"diagonal": [0.25, 0.75]}}
        )
        assert H.hbar == 1.0
        assert np.allclose(rho.populations, [0.25, 0.75])

    def test_pure_state(self):
        s = 1.0 / math.sqrt(2.0)
        _, rho = system_from_dict(
            {"energies": [0.0, 1.0], "state": {"pure": [[s, 0.0], [0.0, s]]}}
        )
        assert np.allclose(rho.matrix, [[0.5, -0.5j], [0.5j, 0.5]])

    def test_matrix_state(self):
        _, rho = system_from_dict(
            {
                "energies": [0.0, 1.0],
                "hbar": 2.0,
                "state": {"matrix": [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]]},
            }
        )
        assert np.allclose(rho.matrix, [[0.5, -0.5j], [0.5j, 0.5]])

    def test_gibbs_state(self):
        _, rho = system_from_dict(
            {"energies": [0.0, 1.0], "state": {"gibbs": {"beta": 1e-9}}}
        )
        assert np.allclose(rho.populations, [0.5, 0.5], atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            system_from_dict({"energies": [0.0, 1.0, 2.0], "state": {"diagonal": [1.0]}})

    def test_missing_field(self):
        with pytest.raises(BadParameter):
            system_from_dict({"energies": [0.0, 1.0]})

    @pytest.mark.parametrize(
        "state, field",
        [
            ({"matrix": [[0.5, 0.0], [0.0, 0.5]]}, "state.matrix"),
            ({"matrix": [[[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]] * 2}, "state.matrix"),
            ({"pure": [0.7, 0.7]}, "state.pure"),
            ({"pure": [[0.7, 0.0, 0.0], [0.7, 0.0, 0.0]]}, "state.pure"),
            ({"thermal": {"beta": 1.0}}, "state must contain"),
        ],
        ids=["matrix-2d", "matrix-triples", "pure-1d", "pure-triples", "unknown-kind"],
    )
    def test_state_of_the_wrong_shape_or_kind(self, state, field):
        with pytest.raises(BadParameter, match=f"^{field}"):
            system_from_dict({"energies": [0.0, 1.0], "state": state})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hamiltonian_refuses_non_finite_energies(bad):
    with pytest.raises(BadParameter, match="energies must be finite"):
        Hamiltonian(np.array([0.0, bad]))
