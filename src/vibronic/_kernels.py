"""Sparse midpoint stepper for a two-tone drive held in COO form.

No run path calls this stepper: every two-tone drive the package runs has
a sideband tone and is solved exactly by dynamics.BichromaticAction, and
two carrier tones (k = k' = 0) are rejected.  The benchmark's tracer still
names this function, so the file stays until that name is dropped there.
Entries carry a "phase group" tag: at midpoint time t group 0 is multiplied
by c(t) = e^{+i delta t} + e^{-i delta' t} and group 1 by its conjugate, and
each step applies exp(-i H(t_mid) dt) through an adaptive Taylor series.
dynamics._expm_apply_dense shares MAX_TAYLOR_TERMS.
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
