"""40-digit reference fidelities, written independently of qrecur.

For rho0 = W W^dag and rho(t) = U(t) rho0 U(t)^dag with U diagonal, the
Uhlmann fidelity is the trace norm of W^dag U(t) W. For a pure state
(W a single column psi) that is |sum_k |psi_k|^2 exp(-i E_k t / hbar)|.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

DPS = 40


def _phases(energies, hbar, t):
    return [mp.expj(-mp.mpf(float(e)) * mp.mpf(float(t)) / mp.mpf(float(hbar))) for e in energies]


def pure_fidelity(psi: np.ndarray, energies, hbar: float, times) -> list[float]:
    """F(t) for rho0 = |psi><psi| at each time."""
    with mp.workdps(DPS):
        p = [mp.mpf(float(z.real)) ** 2 + mp.mpf(float(z.imag)) ** 2 for z in psi]
        norm = mp.fsum(p)
        out = []
        for t in times:
            amp = mp.fsum(pk * ph for pk, ph in zip(p, _phases(energies, hbar, t)))
            out.append(float(abs(amp) / norm))
        return out


def gram_fidelity(w: np.ndarray, energies, hbar: float, t: float) -> float:
    """F(t) for rho0 = W W^dag / tr(W W^dag), from the singular values of
    W^dag U(t) W."""
    with mp.workdps(DPS):
        wm = mp.matrix([[mp.mpc(complex(z)) for z in row] for row in w])
        norm = mp.fsum(abs(wm[i, j]) ** 2 for i in range(wm.rows) for j in range(wm.cols))
        uw = wm.copy()
        for i, ph in enumerate(_phases(energies, hbar, t)):
            for j in range(wm.cols):
                uw[i, j] *= ph
        sv = mp.svd_c(wm.H * uw, compute_uv=False)
        return float(mp.fsum(sv) / norm)
