"""Sparse midpoint stepper for a two-tone drive that stays time dependent.

With a tone on a sideband (k + k' > 0) the drive is static in a rotating
frame and dynamics.BichromaticAction solves it exactly.  With both tones on
the carrier (k = k' = 0) no such frame exists in general, and
dynamics.propagate_bichromatic steps the drive here.  Its Hamiltonian is
extremely sparse (a few entries per row), so it is held in COO form whose
entries carry a "phase group" tag.  Both tones are the same matrix M, so
H(t) = c(t) M + conj(c(t)) M^dag: at a given midpoint time group 0 (the
entries of M) is multiplied by the coefficient

    c(t) = e^{+i delta t} + e^{-i delta' t}

and group 1 (the entries of M^dag) by its conjugate.  Each step applies
exp(-i H(t_mid) dt) through an adaptive Taylor series (dt * ||H|| is tiny
here, so a handful of sparse matvecs reaches machine precision).
"""

from __future__ import annotations

import numpy as np

MAX_TAYLOR_TERMS = 40


def propagate_coo(rows, cols, vals, groups, delta, delta_p, psi, dt, n_steps, m_sub, tol=1e-15):
    """psi after n_steps midpoint steps of length dt, each applied as m_sub Taylor sub-steps."""
    d = psi.shape[0]
    out = np.array(psi, dtype=np.complex128)
    dtau = dt / m_sub
    for s in range(n_steps):
        tm = (s + 0.5) * dt
        tone = np.exp(1j * delta * tm) + np.exp(-1j * delta_p * tm)
        coefs = np.array([tone, np.conj(tone)])
        w = vals * coefs[groups]
        for _ in range(m_sub):
            term = out.copy()
            thresh = tol * tol * float(np.real(np.vdot(out, out)))
            j = 0
            while True:
                j += 1
                contrib = w * term[cols]
                term = (-1j * dtau / j) * (
                    np.bincount(rows, weights=contrib.real, minlength=d)
                    + 1j * np.bincount(rows, weights=contrib.imag, minlength=d)
                )
                out = out + term
                if float(np.real(np.vdot(term, term))) <= thresh or j >= MAX_TAYLOR_TERMS:
                    break
    return out
