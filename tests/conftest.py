import mpmath as mp
import numpy as np
import pytest

from qrecur import Hamiltonian, validate_density


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return validate_density(m / m.trace().real)


def random_system(n, seed):
    rng = np.random.default_rng(seed)
    return Hamiltonian(np.sort(rng.uniform(0.0, 1.0, size=n))), random_state(n, seed + 1)


def bures_hp(w, energies, hbar, t):
    """Bures distance between rho = W W^dag / tr(W^dag W) and rho(t) from
    F = ||W^dag U(t) W||_1 / tr(W^dag W) at 40 working digits, the
    reference for search.bures_series: near F = 1, sqrt(2 - 2F) in
    float64 is off by ~1e-8. The exact trace removes the O(eps) trace
    defect of the float64 entries."""
    with mp.workdps(40):
        wm = mp.matrix([[mp.mpc(complex(z)) for z in row] for row in w])
        u = mp.diag([mp.expj(-mp.mpf(e) * mp.mpf(t) / mp.mpf(hbar)) for e in energies])
        sv = mp.svd_c(wm.H * u * wm, compute_uv=False)
        trace = mp.fsum(abs(z) ** 2 for z in wm)
        return float(mp.sqrt(max(2 - 2 * mp.fsum(sv) / trace, 0)))


@pytest.fixture
def qubit_superposition():
    from qrecur import pure_state
    from qrecur.states import qubit_hamiltonian

    return qubit_hamiltonian(1.0), pure_state(np.array([1.0, 1.0]) / np.sqrt(2.0))
