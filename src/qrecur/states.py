"""Density matrices, Hamiltonians and model builders.

All matrices live in the energy eigenbasis of the Hamiltonian, which by
convention is the computational basis (the Hamiltonian itself is diagonal).
Times are reported in units of hbar/energy; hbar defaults to 1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    BadParameter,
    BadTrace,
    DimensionMismatch,
    EigenFailure,
    NotHermitian,
    NotNormalized,
    NotPositive,
)

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_INPUT_TOL = 1e-6


def _validated_make(cls, fields):
    """_make, and so _replace, of a validated NamedTuple: through its
    constructor, where tuple.__new__ would skip the checks."""
    return cls(*fields)


class _HamiltonianFields(NamedTuple):
    energies: np.ndarray
    hbar: float


class Hamiltonian(_HamiltonianFields):
    """Discrete spectrum, diagonal in the computational basis.

    Degenerate energies are allowed and are not de-duplicated.
    """

    __slots__ = ()
    _make = classmethod(_validated_make)

    def __new__(cls, energies, hbar: float = 1.0):
        energies = np.asarray(energies, dtype=float)
        if energies.ndim != 1 or energies.size < 1:
            raise BadParameter("energies must be a non-empty 1-d array")
        if not np.all(np.isfinite(energies)):
            raise BadParameter("energies must be finite")
        if not (np.isfinite(hbar) and hbar > 0):
            raise BadParameter("hbar must be a positive finite real")
        energies.setflags(write=False)
        return super().__new__(cls, energies, hbar)

    @property
    def dim(self) -> int:
        return self.energies.size

    def shifted(self, lam: float) -> "Hamiltonian":
        """Zero-point rescaled Hamiltonian H - lam*I."""
        return Hamiltonian(self.energies - lam, self.hbar)


def _support_factor(vals: np.ndarray, vecs: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """W = vecs * sqrt(vals / scale) over the support of the ascending
    eigenpairs (vals, vecs) of a PSD n x n matrix m, so W W^dag = m / scale.

    The support is the eigenvalues above n * eps_mach * lambda_max; the
    ones below it are round-off, and dropping them (rather than clipping
    and square-rooting them) keeps their ~sqrt(eps) noise out of every
    fidelity.
    """
    keep = vals > vals.size * np.finfo(float).eps * vals[-1]
    return vecs[:, keep] * np.sqrt(vals[keep] / scale)


def gram_factor(m: np.ndarray) -> np.ndarray:
    """W with m = W W^dag over the support of the PSD matrix m: n x r, its
    columns the support eigenvectors scaled by the square roots of their
    eigenvalues (see _support_factor)."""
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    return _support_factor(vals, vecs)


class DensityMatrix:
    """Density matrix: Hermitian, PSD, unit trace. The constructor only
    stores the matrix read-only and checks none of these; build one from
    raw entries with validate_density, which does.

    factor is the Gram factor W of the matrix (see gram_factor), the one
    every fidelity is computed from. pure_state and validate_density pass
    it in as _factor from what they already hold; otherwise it is
    computed on first use.
    """

    __slots__ = ("_matrix", "_factor")

    def __init__(self, matrix: np.ndarray, _factor: np.ndarray | None = None):
        self._matrix = np.asarray(matrix, dtype=complex)
        self._matrix.setflags(write=False)
        if _factor is not None:
            _factor.setflags(write=False)
        self._factor = _factor

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def populations(self) -> np.ndarray:
        return self.matrix.diagonal().real

    @property
    def factor(self) -> np.ndarray:
        """n x r Gram factor W, matrix = W W^dag over its support."""
        if self._factor is None:
            self._factor = gram_factor(self.matrix)
            self._factor.setflags(write=False)
        return self._factor


def validate_density(entries) -> DensityMatrix:
    """Validate a raw matrix as a density matrix.

    Eigenvalues in [-1e-10, 0) are clipped to zero and the matrix is
    re-normalized to unit trace afterwards. The eigenpairs of the check
    also give the state its Gram factor.
    """
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):  # NaN would pass every check below
        raise BadParameter("density matrix entries must be finite")
    herm_dev = np.abs(m - m.conj().T).max()
    if herm_dev > HERMITICITY_TOL:
        raise NotHermitian(f"max |m - m^dag| = {herm_dev:.3e}")
    m = (m + m.conj().T) / 2.0
    tr = m.trace().real
    if abs(tr - 1.0) > TRACE_INPUT_TOL:
        raise BadTrace(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < -PSD_TOL:
        raise NotPositive(f"smallest eigenvalue {vals[0]:.3e}")
    if vals[0] < 0.0:
        vals = np.clip(vals, 0.0, None)
        m = (vecs * vals) @ vecs.conj().T
        m = (m + m.conj().T) / 2.0
    tr = m.trace().real
    return DensityMatrix(m / tr, _support_factor(vals, vecs, tr))


def pure_state(amplitudes) -> DensityMatrix:
    """Rank-1 projector |psi><psi| from a normalized amplitude vector."""
    psi = np.array(amplitudes, dtype=complex)  # a copy: it becomes the factor
    if psi.ndim != 1 or psi.size < 1 or not np.all(np.isfinite(psi)):
        raise BadParameter("amplitudes must be a non-empty vector of finite numbers")
    norm2 = np.vdot(psi, psi).real
    if abs(norm2 - 1.0) > 1e-12:
        raise NotNormalized(f"squared norm deviates from 1 by {abs(norm2 - 1.0):.3e}")
    return DensityMatrix(np.outer(psi, psi.conj()), psi[:, None])


def gibbs_state(H: Hamiltonian, beta: float) -> DensityMatrix:
    """Diagonal thermal state exp(-beta*E_k)/Z; stationary under H."""
    if not (np.isfinite(beta) and beta > 0):
        raise BadParameter("beta must be a positive finite real")
    # Shifted exponentials keep the largest weight at exp(0).
    w = np.exp(-beta * (H.energies - H.energies.min()))
    return DensityMatrix(np.diag(w / w.sum()).astype(complex))


def qubit_hamiltonian(gap: float) -> Hamiltonian:
    if not gap > 0:
        raise BadParameter("gap must be positive")
    return Hamiltonian(np.array([0.0, gap]))


def oscillator_hamiltonian(omega: float, n: int) -> Hamiltonian:
    if not (omega > 0 and n >= 1):
        raise BadParameter("need omega > 0 and n >= 1")
    return Hamiltonian(omega * (np.arange(n) + 0.5))


def box_hamiltonian(scale: float, n: int) -> Hamiltonian:
    if not (scale > 0 and n >= 1):
        raise BadParameter("need scale > 0 and n >= 1")
    return Hamiltonian(scale * np.arange(1, n + 1, dtype=float) ** 2)


def random_hamiltonian(n: int, seed) -> Hamiltonian:
    """n sorted energies uniform on [0, 1); seed is taken as in
    random_density, so a Generator's stream continues."""
    if n < 1:
        raise BadParameter("need n >= 1")
    rng = np.random.default_rng(seed)
    return Hamiltonian(np.sort(rng.uniform(0.0, 1.0, size=n)))


def random_density(n: int, seed) -> DensityMatrix:
    """Full-rank random state GG^dag / tr(GG^dag), G complex Gaussian.

    seed is anything np.random.default_rng accepts; a Generator is used
    as is, so the draw continues its stream."""
    if n < 1:
        raise BadParameter("need n >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return validate_density(m / m.trace().real)


def _number(name: str, value) -> float:
    """value as a float if it is a JSON number, else BadParameter naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadParameter(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a JSON integer past the float range
        raise BadParameter(
            f"{name} must lie within the float range, got an integer of {value.bit_length()} bits"
        ) from None


def _array(name: str, value, dtype=float) -> np.ndarray:
    """value as an array whose entries pass _number's test, else
    BadParameter naming the field."""
    entries = np.asarray(value, dtype=object)  # holds any JSON value, ragged lists too
    for v in entries.flat:  # a string, bool, null or sub-list of a ragged list fails
        _number(f"{name} entry", v)
    return entries.astype(dtype)


def system_from_dict(spec: dict) -> tuple[Hamiltonian, DensityMatrix]:
    """Parse the JSON system description consumed by the CLI.

    Schema: {"energies": [...], "hbar": 1.0, "state": one of
    {"matrix": [[[re, im], ...], ...]}, {"pure": [[re, im], ...]},
    {"diagonal": [p1, ...]}, {"gibbs": {"beta": ...}}}.
    """
    try:
        energies = spec["energies"]
        state = spec["state"]
    except (KeyError, TypeError) as exc:
        raise BadParameter(f"missing system field: {exc}") from None
    if not isinstance(state, dict) or not isinstance(state.get("gibbs", {}), dict):
        raise BadParameter(f"state is not one of matrix, pure, diagonal or gibbs: {state!r}")
    H = Hamiltonian(_array("energies", energies), _number("hbar", spec.get("hbar", 1.0)))
    if "matrix" in state:
        raw = _array("state.matrix", state["matrix"])
        if raw.ndim != 3 or raw.shape[2] != 2:
            raise BadParameter("state.matrix must be n x n x [re, im]")
        rho = validate_density(raw[..., 0] + 1j * raw[..., 1])
    elif "pure" in state:
        raw = _array("state.pure", state["pure"])
        if raw.ndim != 2 or raw.shape[1] != 2:
            raise BadParameter("state.pure must be n x [re, im]")
        rho = pure_state(raw[:, 0] + 1j * raw[:, 1])
    elif "diagonal" in state:
        rho = validate_density(np.diag(_array("state.diagonal", state["diagonal"], complex)))
    elif "gibbs" in state:
        rho = gibbs_state(H, _number("state.gibbs.beta", state["gibbs"].get("beta")))
    else:
        raise BadParameter("state must contain matrix, pure, diagonal or gibbs")
    if rho.dim != H.dim:
        raise DimensionMismatch(
            f"state dimension {rho.dim} != spectrum length {H.dim}"
        )
    return H, rho
