"""Density matrices, Hamiltonians and model builders.

All matrices live in the energy eigenbasis of the Hamiltonian, which by
convention is the computational basis (the Hamiltonian itself is diagonal).
Times are reported in units of hbar/energy; hbar defaults to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParameter,
    BadTrace,
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotPositive,
)

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_INPUT_TOL = 1e-6


@dataclass(frozen=True)
class Hamiltonian:
    """Discrete spectrum, diagonal in the computational basis.

    Degenerate energies are allowed and are not de-duplicated.
    """

    energies: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        energies = np.asarray(self.energies, dtype=float)
        if energies.ndim != 1 or energies.size < 1:
            raise BadParameter("energies must be a non-empty 1-d array")
        if not np.all(np.isfinite(energies)):
            raise BadParameter("energies must be finite")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise BadParameter("hbar must be a positive finite real")
        object.__setattr__(self, "energies", energies)
        energies.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.energies.size

    def shifted(self, lam: float) -> "Hamiltonian":
        """Zero-point rescaled Hamiltonian H - lam*I."""
        return Hamiltonian(self.energies - lam, self.hbar)


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix: Hermitian, PSD, unit trace. The constructor only
    stores the matrix read-only and checks none of these; build one from
    raw entries with validate_density, which does."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def populations(self) -> np.ndarray:
        return self.matrix.diagonal().real


def validate_density(entries) -> DensityMatrix:
    """Validate a raw matrix as a density matrix.

    Eigenvalues in [-1e-10, 0) are clipped to zero and the matrix is
    re-normalized to unit trace afterwards.
    """
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
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
    m = m / m.trace().real
    return DensityMatrix(m)


def pure_state(amplitudes) -> DensityMatrix:
    """Rank-1 projector |psi><psi| from a normalized amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.ndim != 1 or psi.size < 1:
        raise BadParameter("amplitudes must be a non-empty vector")
    norm2 = np.vdot(psi, psi).real
    if abs(norm2 - 1.0) > 1e-12:
        raise NotNormalized(f"squared norm deviates from 1 by {abs(norm2 - 1.0):.3e}")
    return DensityMatrix(np.outer(psi, psi.conj()))


def gibbs_state(H: Hamiltonian, beta: float) -> DensityMatrix:
    """Diagonal thermal state exp(-beta*E_k)/Z; stationary under H."""
    if not (np.isfinite(beta) and beta > 0):
        raise BadParameter("beta must be a positive finite real")
    # Shifted exponentials keep the largest weight at exp(0).
    w = np.exp(-beta * (H.energies - H.energies.min()))
    return DensityMatrix(np.diag(w / w.sum()).astype(complex))


def qubit_hamiltonian(gap: float, hbar: float = 1.0) -> Hamiltonian:
    if not gap > 0:
        raise BadParameter("gap must be positive")
    return Hamiltonian(np.array([0.0, gap]), hbar)


def oscillator_hamiltonian(omega: float, n: int, hbar: float = 1.0) -> Hamiltonian:
    if not (omega > 0 and n >= 1):
        raise BadParameter("need omega > 0 and n >= 1")
    return Hamiltonian(hbar * omega * (np.arange(n) + 0.5), hbar)


def box_hamiltonian(scale: float, n: int, hbar: float = 1.0) -> Hamiltonian:
    if not (scale > 0 and n >= 1):
        raise BadParameter("need scale > 0 and n >= 1")
    return Hamiltonian(scale * np.arange(1, n + 1, dtype=float) ** 2, hbar)


def random_hamiltonian(n: int, seed: int, hbar: float = 1.0) -> Hamiltonian:
    if n < 1:
        raise BadParameter("need n >= 1")
    rng = np.random.default_rng(seed)
    return Hamiltonian(np.sort(rng.uniform(0.0, 1.0, size=n)), hbar)


def model_hamiltonian(kind: str, hbar: float = 1.0, **params) -> Hamiltonian:
    """Dispatcher over the builders above; kinds: qubit, oscillator, box, random."""
    builders = {
        "qubit": qubit_hamiltonian,
        "oscillator": oscillator_hamiltonian,
        "box": box_hamiltonian,
        "random": random_hamiltonian,
    }
    try:
        builder = builders[kind]
    except KeyError:
        raise BadParameter(f"unknown Hamiltonian kind {kind!r}") from None
    return builder(hbar=hbar, **params)


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
    H = Hamiltonian(np.asarray(energies, dtype=float), float(spec.get("hbar", 1.0)))
    if "matrix" in state:
        raw = np.asarray(state["matrix"], dtype=float)
        if raw.ndim != 3 or raw.shape[2] != 2:
            raise BadParameter("state.matrix must be n x n x [re, im]")
        rho = validate_density(raw[..., 0] + 1j * raw[..., 1])
    elif "pure" in state:
        raw = np.asarray(state["pure"], dtype=float)
        if raw.ndim != 2 or raw.shape[1] != 2:
            raise BadParameter("state.pure must be n x [re, im]")
        rho = pure_state(raw[:, 0] + 1j * raw[:, 1])
    elif "diagonal" in state:
        rho = validate_density(np.diag(np.asarray(state["diagonal"], dtype=complex)))
    elif "gibbs" in state:
        rho = gibbs_state(H, float(state["gibbs"]["beta"]))
    else:
        raise BadParameter("state must contain matrix, pure, diagonal or gibbs")
    if rho.dim != H.dim:
        raise DimensionMismatch(
            f"state dimension {rho.dim} != spectrum length {H.dim}"
        )
    return H, rho
