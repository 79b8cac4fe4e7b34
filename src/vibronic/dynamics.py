"""Drive Hamiltonians and propagators for the two-ion vibronic model.

Two laser configurations are covered:

* a bichromatic drive detuned by +delta from the k-th upper motional
  sideband of the centre-of-mass mode and by -delta' from the k'-th lower
  one.  Kept time dependent, it reads

      H(t) = M1 e^{i delta t} + M2 e^{-i delta' t} + h.c.

  with M1 = Omega e^{i phi} W (i eta)^k  adag^k F_k  and
  M2 = Omega e^{i phi} W (i eta)^{k'} F_{k'} a^{k'}, where
  W = S+_1 e^{i phi0/2} + S+_2 e^{-i phi0/2} acts on the electronic pair
  and F_k is the diagonal vibrational coupling (see fockspace.coupling_f).
  The stretch mode enters only through f_k(n_c, n_r) = f_k(n_c, 0) s(n_r),
  s(n_r) = L_{n_r}(eta_r^2), so M1 and M2 are kron(M_cm, diag s) with M_cm
  on the electronic x c.m. space, and n_r is conserved.  With a sideband
  tone (k + k' > 0) propagate_bichromatic solves the drive exactly
  (BichromaticAction): it is static in the frame rotating with
  eps N_e + theta N_c, and its generator splits into sector blocks
  s(n_r) (B + B^dag) - G cut from the c.m. matrices.  Two carrier tones
  (k = k' = 0) have no static frame in general, and propagate_bichromatic
  rejects them.  No run path forms a joint-space matrix;
  build_bichromatic_H with propagate_timedep, a dense midpoint integrator
  of any H(t), is the independent oracle.

* the same pair of beams tuned on the carrier (no sideband), giving the
  time-independent H = kron(C + C^dag, diag(|Omega| f_0)) with
  C = |Omega| e^{i phi_eff} W.

For the symmetric dispersive case (k = k', delta = delta', |delta| large
against the sideband couplings) the second-order effective Hamiltonian
couples |dd> <-> |uu> and |du> <-> |ud| with vibrational-state-dependent
rates Omega^k_{n_c,n_r}; both the effective generator and the resulting
closed-form amplitudes are provided and are exact for either sign of delta.

Both static generators have the form kron(M4, diag a), with M4 a 4x4
electronic matrix and a the per-level rates (effective_factors,
carrier_factors).  FactoredPropagator applies e^{-i H t} from one 4x4
eigh, in O(dim) per step, without forming H.  The dense builders
build_effective_H and build_carrier_H, applied with HermitianPropagator,
stay as the reference that acceptance checks 1 and 2 and the tests hold
the factored path to.

Complex Omega is allowed everywhere: only |Omega| and the effective phase
phi_eff = phi + arg(Omega) enter the physics.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .fockspace import (
    HilbertConfig,
    JointState,
    ModeParams,
    coupling_f,
    coupling_f_grid,
    destroy,
    laguerre_seq,
)


class RotatingWaveWarning(UserWarning):
    """Drive detuning large enough to strain the single-sideband picture."""


class AdiabaticityWarning(UserWarning):
    """Dispersive-elimination premise |delta| >> coupling is marginal."""


_RW_FRACTION = 0.2  # |delta| / nu beyond which the sideband picture degrades


def _check_int(name: str, value) -> int:
    if value != int(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _check_finite(record, *names: str) -> None:
    for name in names:
        value = getattr(record, name)
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class BichromaticParams:
    """Two-beam drive: k-th upper sideband at +delta, k'-th lower at -delta'.

    Frequencies are in units of the c.m. trap frequency ``modes.nu`` and the
    drive strength ``omega`` may be complex.
    """

    k: int
    k_prime: int
    delta: float
    delta_prime: float
    omega: complex
    phi: float
    phi0: float
    modes: ModeParams

    def __post_init__(self):
        object.__setattr__(self, "k", _check_int("k", self.k))
        object.__setattr__(self, "k_prime", _check_int("k_prime", self.k_prime))
        object.__setattr__(self, "omega", complex(self.omega))
        _check_finite(self, "delta", "delta_prime", "omega", "phi", "phi0")
        worst = max(abs(self.delta), abs(self.delta_prime))
        if worst > _RW_FRACTION * self.modes.nu:
            warnings.warn(
                f"detuning {worst:g} exceeds {_RW_FRACTION:g} nu; the "
                "single-sideband rotating-wave form is getting inaccurate",
                RotatingWaveWarning,
                stacklevel=2,
            )

    @classmethod
    def symmetric(cls, k, delta, omega, phi=0.0, phi0=0.0, *, modes):
        """Same sideband order and detuning on both beams (the Bell-state case)."""
        return cls(k=k, k_prime=k, delta=delta, delta_prime=delta, omega=omega, phi=phi, phi0=phi0, modes=modes)

    @property
    def symmetric_drive(self) -> bool:
        return self.k == self.k_prime and self.delta == self.delta_prime

    @property
    def phi_eff(self) -> float:
        """phi + arg(omega): the only phase combination the dynamics sees."""
        return self.phi + float(np.angle(self.omega))


@dataclass(frozen=True)
class CarrierParams:
    """Carrier pulse of the same beam pair: strength, common and relative phase."""

    omega: complex
    varphi: float
    varphi0: float
    modes: ModeParams

    def __post_init__(self):
        object.__setattr__(self, "omega", complex(self.omega))
        _check_finite(self, "omega", "varphi", "varphi0")

    @property
    def phi_eff(self) -> float:
        return self.varphi + float(np.angle(self.omega))


# ---------------------------------------------------------------------------
# electronic-pair building blocks (basis order dd, du, ud, uu)
# ---------------------------------------------------------------------------

_SP1 = np.zeros((4, 4))  # raise ion 1: dd->ud, du->uu
_SP1[2, 0] = 1.0
_SP1[3, 1] = 1.0
_SP2 = np.zeros((4, 4))  # raise ion 2: dd->du, ud->uu
_SP2[1, 0] = 1.0
_SP2[3, 2] = 1.0


def _pair_raise(phi0: float) -> np.ndarray:
    return _SP1 * np.exp(0.5j * phi0) + _SP2 * np.exp(-0.5j * phi0)


def omega_k_scale(k: int, omega: complex, delta: float, eta: float) -> float:
    """Overall dispersive Rabi scale 2 |omega|^2 (i eta)^{2k} / delta (real).

    The (i eta)^{2k} factor is folded to (-1)^k eta^{2k}, so the result is a
    signed real number; delta = 0 is singular and rejected, as is a delta
    so small (a subnormal float, say) that the scale overflows to infinity.
    """
    if delta == 0:
        raise ValueError("delta = 0: the dispersive scale 2|omega|^2 eta^2k / delta diverges")
    k = _check_int("k", k)
    with np.errstate(over="ignore"):
        scale = 2.0 * abs(omega) ** 2 * (-1.0) ** k * eta ** (2 * k) / delta
    if not math.isfinite(scale):
        raise ValueError(f"delta = {delta!r}: the dispersive scale 2|omega|^2 eta^2k / delta overflows")
    return scale


def _number_bracket(n: int, k: int) -> float:
    """n!/(n-k)! - (n+k)!/n!  (first term absent when n < k)."""
    first = 0.0 if n < k else float(math.perm(n, k))
    return first - float(math.perm(n + k, k))


def min_gaps(freqs: np.ndarray) -> tuple[float, float]:
    """Smallest absolute and smallest relative spacing of the sorted values.

    Adjacent sorted values are compared, so an exact tie gives 0 for both;
    the relative spacing divides by the larger of the pair (by 1 where that
    is 0).  Fewer than two values give (0, 0).
    """
    srt = np.sort(np.ravel(freqs))
    if srt.size < 2:
        return 0.0, 0.0
    gaps = np.diff(srt)
    ref = np.where(srt[1:] > 0, srt[1:], 1.0)
    return float(gaps.min()), float((gaps / ref).min())


@dataclass(frozen=True)
class RabiSpectrum:
    """Grid of dispersive rates Omega^k_{n_c, n_r} over a truncated Fock box."""

    values: np.ndarray  # (n_max_c + 1, n_max_r + 1), signed reals
    params: BichromaticParams

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def min_relative_gap(self) -> float:
        """Smallest relative spacing of the sorted |Omega^k| values (see min_gaps).

        Drives how well populations can be told apart from a time signal:
        near-degenerate rates make the inversion ill-conditioned, and two
        cells with the same |Omega^k| count as a gap of 0.
        """
        return min_gaps(self.magnitudes())[1]


def rabi_spectrum(p: BichromaticParams, n_max_c: int, n_max_r: int) -> RabiSpectrum:
    """Dispersive rates Omega^k_{n_c, n_r} = scale f_k^2 [n_c!/(n_c-k)! - (n_c+k)!/n_c!] over the grid.

    This is the one implementation of the rate formula; `rabi_effective`
    reads a single cell of it.  Rejects asymmetric drives and rates that
    overflow.
    """
    if not p.symmetric_drive:
        raise ValueError("effective rates assume k == k' and delta == delta'")
    scale = omega_k_scale(p.k, p.omega, p.delta, p.modes.eta)
    f = coupling_f_grid(n_max_c, n_max_r, p.k, p.modes)
    bracket = np.array([_number_bracket(n_c, p.k) for n_c in range(n_max_c + 1)])
    with np.errstate(over="ignore"):
        values = scale * f * f * bracket[:, None]
    if not np.all(np.isfinite(values)):
        raise ValueError(f"delta = {p.delta!r}: the dispersive rates overflow")
    return RabiSpectrum(values=values, params=p)


def rabi_effective(n_c: int, n_r: int, p: BichromaticParams) -> float:
    """Vibrational-state-dependent dispersive rate Omega^k_{n_c, n_r} (signed): cell (n_c, n_r) of `rabi_spectrum`."""
    return rabi_spectrum(p, n_c, n_r).values[n_c, n_r]


# ---------------------------------------------------------------------------
# Hamiltonian builders
# ---------------------------------------------------------------------------


def _drive_blocks(p: BichromaticParams, config: HilbertConfig):
    """M1 (upper-sideband term) and M2 (lower) on the electronic x c.m. space,
    and the stretch factor s: the joint-space terms are kron(M, diag s)."""
    eta = p.modes.eta
    wmat = p.omega * np.exp(1j * p.phi) * _pair_raise(p.phi0)
    a_c = destroy(config.dim_c)
    up_k = np.linalg.matrix_power(a_c.conj().T, p.k)
    dn_k = np.linalg.matrix_power(a_c, p.k_prime)
    f_up = coupling_f_grid(config.n_max_c, 0, p.k, p.modes)[:, 0]
    f_dn = coupling_f_grid(config.n_max_c, 0, p.k_prime, p.modes)[:, 0]
    g1 = (1j * eta) ** p.k * up_k * f_up
    g2 = (1j * eta) ** p.k_prime * f_dn[:, None] * dn_k
    s = laguerre_seq(config.n_max_r, 0, p.modes.eta_r**2)
    return np.kron(wmat, g1), np.kron(wmat, g2), s


def build_bichromatic_H(t: float, p: BichromaticParams, config: HilbertConfig) -> np.ndarray:
    """Instantaneous dense H(t) of the bichromatic drive (for checks and
    the dense oracle propagate_timedep)."""
    m1, m2, s = _drive_blocks(p, config)
    h = m1 * np.exp(1j * p.delta * t) + m2 * np.exp(-1j * p.delta_prime * t)
    return np.kron(h + h.conj().T, np.diag(s))


def effective_factors(p: BichromaticParams, config: HilbertConfig) -> tuple[np.ndarray, np.ndarray]:
    """Factors (E + E^dag, A) of the dispersive generator kron(E + E^dag, diag(A)).

    E = e^{2i phi_eff} |uu><dd| + (-1)^k (e^{i phi0} |ud><du| + 1/2) and
    A_{n_c,n_r} = Omega_k f_k(n_c,n_r)^2 [n_c!/(n_c-k)! - (n_c+k)!/n_c!].
    Valid when |delta| dominates every sideband coupling in the truncated
    box; a marginal ratio triggers AdiabaticityWarning.
    """
    avals = rabi_spectrum(p, config.n_max_c, config.n_max_r).values.ravel()
    fgrid = coupling_f_grid(config.n_max_c, config.n_max_r, p.k, p.modes)

    couple = (p.modes.eta ** p.k) * abs(p.omega) * np.abs(fgrid)
    worst = float(couple.max())
    if worst > 0 and abs(p.delta) < 10.0 * worst:
        warnings.warn(
            f"|delta| = {abs(p.delta):.3g} is only {abs(p.delta) / worst:.2f}x the "
            "largest sideband coupling; dispersive elimination is marginal",
            AdiabaticityWarning,
            stacklevel=2,
        )

    sgn = (-1.0) ** p.k
    e4 = np.zeros((4, 4), dtype=complex)
    e4[3, 0] = np.exp(2j * p.phi_eff)
    e4[2, 1] = sgn * np.exp(1j * p.phi0)
    e4 += sgn * 0.5 * np.eye(4)
    return e4 + e4.conj().T, avals


def carrier_factors(p: CarrierParams, config: HilbertConfig) -> tuple[np.ndarray, np.ndarray]:
    """Factors (C + C^dag, |omega| f_0) of the carrier generator."""
    c4 = np.exp(1j * p.phi_eff) * _pair_raise(p.varphi0)
    f0 = abs(p.omega) * coupling_f_grid(config.n_max_c, config.n_max_r, 0, p.modes).ravel()
    return c4 + c4.conj().T, f0


def build_effective_H(p: BichromaticParams, config: HilbertConfig) -> np.ndarray:
    """Dense dispersive Hamiltonian kron(E + E^dag, diag(A)) (see effective_factors)."""
    m4, a = effective_factors(p, config)
    return np.kron(m4, np.diag(a))


def build_carrier_H(p: CarrierParams, config: HilbertConfig) -> np.ndarray:
    """Dense carrier Hamiltonian kron(C + C^dag, diag(|omega| f_0))."""
    m4, a = carrier_factors(p, config)
    return np.kron(m4, np.diag(a))


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


def _check_hermitian(h: np.ndarray) -> None:
    defect = np.abs(h - h.conj().T).max()
    scale = max(1.0, np.abs(h).max())
    if defect > 1e-10 * scale:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3g})")


class HermitianPropagator:
    """exp(-i H t) applier with the eigendecomposition done once.

    Rejects visibly non-Hermitian input (defect above 1e-10 relative).
    """

    def __init__(self, h: np.ndarray):
        _check_hermitian(h)
        self.eigvals, self.eigvecs = np.linalg.eigh(h)

    def apply(self, state: JointState, t: float) -> JointState:
        phases = np.exp(-1j * self.eigvals * t)
        amps = self.eigvecs @ (phases * (self.eigvecs.conj().T @ state.amps))
        return JointState(amps=amps, config=state.config)


class FactoredPropagator:
    """exp(-i H t) applier for H = kron(M4, diag(a)), from one eigh of M4.

    With M4 = V diag(lam) V^dag, e^{-i H t} = kron(V, 1) diag(e^{-i lam_j a_n t})
    kron(V^dag, 1), so a step costs O(dim) and H is never formed.  Rejects a
    visibly non-Hermitian M4 (the rule of HermitianPropagator), an a with
    a nonzero imaginary part, and levels lam_j a_n, or phases lam_j a_n t,
    that are not finite (e^{-i inf} is nan).
    """

    def __init__(self, m4: np.ndarray, a: np.ndarray):
        _check_hermitian(m4)
        if np.iscomplexobj(a) and np.any(np.imag(a)):
            raise ValueError("the level rates a must be real")
        self.rates = np.real(a)
        self.eigvals, self.eigvecs = np.linalg.eigh(m4)
        with np.errstate(over="ignore", invalid="ignore"):
            self.levels = np.outer(self.eigvals, self.rates)
        if not np.all(np.isfinite(self.levels)):
            raise ValueError("the generator's levels lam_j a_n overflow or are not finite")
        self._top = float(np.abs(self.levels).max(initial=0.0))

    def apply(self, state: JointState, t: float) -> JointState:
        if not math.isfinite(self._top * t):
            raise ValueError(f"t = {t!r}: the phases lam_j a_n t overflow")
        x = state.amps.reshape(self.levels.shape)
        phases = np.exp(-1j * t * self.levels)
        amps = self.eigvecs @ (phases * (self.eigvecs.conj().T @ x))
        return JointState(amps=amps.ravel(), config=state.config)


def _expm_apply_dense(h: np.ndarray, psi: np.ndarray, dt: float, tol: float = 1e-15) -> np.ndarray:
    """exp(-i h dt) @ psi by scaled adaptive Taylor (dense helper)."""
    bound = float(np.abs(h).sum(axis=0).max()) * abs(dt)
    m = max(1, int(math.ceil(bound / 0.9)))
    dtau = dt / m
    out = psi.astype(np.complex128, copy=True)
    for _ in range(m):
        term = out.copy()
        thresh = tol * np.linalg.norm(out)
        j = 0
        while True:
            j += 1
            term = (-1j * dtau / j) * (h @ term)
            out = out + term
            if np.linalg.norm(term) <= thresh or j >= _kernels.MAX_TAYLOR_TERMS:
                break
    return out


def propagate_timedep(builder, state: JointState, t: float, dt_max: float) -> JointState:
    """Midpoint-sampled evolution under H(t) = builder(t) (dense, generic)."""
    if dt_max <= 0:
        raise ValueError("dt_max must be positive")
    psi = state.amps.astype(np.complex128, copy=True)
    if t:
        n = max(1, int(math.ceil(abs(t) / dt_max)))
        dt = t / n
        for i in range(n):
            psi = _expm_apply_dense(builder((i + 0.5) * dt), psi, dt)
    return JointState(amps=psi, config=state.config)


class BichromaticAction:
    """Exact propagator of a two-tone drive with a sideband tone (k + k' > 0).

    In the frame V = exp(i t G), G = eps N_e + theta N_c, the drive is
    static: M1 raises N_e by 1 and n_c by k, M2 raises N_e by 1 and lowers
    n_c by k', so conjugating with V multiplies them by e^{i (eps + k theta) t}
    and e^{i (eps - k' theta) t}, and theta = -(delta + delta') / (k + k'),
    eps = delta' + k' theta cancel both tones' time dependence.  The static
    generator H' = kron(B + B^dag, diag s) - G, B = M1 + M2 on the
    electronic x c.m. space, keeps n_r and (k' N_e + n_c) mod (k + k')
    fixed.  So each residue's block of B is cut once, and at every n_r the
    block s(n_r) (B + B^dag) - G is diagonalised (one stacked eigh per
    residue); no joint-space matrix is formed.
    """

    def __init__(self, p: BichromaticParams, config: HilbertConfig):
        order = p.k + p.k_prime
        if order == 0:
            raise ValueError("two carrier tones (k = k' = 0) have no static frame")
        theta = -(p.delta + p.delta_prime) / order
        eps = p.delta_prime + p.k_prime * theta
        n_e, n_c = np.indices((4, config.dim_c)).reshape(2, -1)
        n_e = np.array([0, 1, 1, 2])[n_e]
        self.frame = eps * n_e + theta * n_c  # diagonal of G on the electronic x c.m. space
        m1, m2, s = _drive_blocks(p, config)
        raising = m1 + m2
        label = (p.k_prime * n_e + n_c) % order
        self.sectors = []  # (c.m. indices, eigenvalues, eigenvectors) per residue, stacked over n_r
        for value in np.unique(label):
            idx = np.flatnonzero(label == value)
            block = raising[np.ix_(idx, idx)]
            block = s[:, None, None] * (block + block.conj().T) - np.diag(self.frame[idx])
            self.sectors.append((idx, *np.linalg.eigh(block)))

    def propagate(self, psi: np.ndarray, t: float) -> np.ndarray:
        """e^{-i G t} e^{-i H' t} psi, the state at time t in the lab frame."""
        x = psi.reshape(self.frame.size, -1)
        out = np.empty(x.shape, dtype=np.complex128)
        for idx, evals, evecs in self.sectors:
            coef = evecs.conj().swapaxes(1, 2) @ x[idx].T[:, :, None]
            out[idx] = (evecs @ (np.exp(-1j * evals * t)[:, :, None] * coef))[:, :, 0].T
        return (np.exp(-1j * self.frame * t)[:, None] * out).ravel()


@functools.lru_cache(maxsize=1)
def _action(p: BichromaticParams, config: HilbertConfig) -> BichromaticAction:
    """The last drive's action, shared by the evolve samples and pulses that repeat it."""
    return BichromaticAction(p, config)


def propagate_bichromatic(p: BichromaticParams, config: HilbertConfig, state: JointState, t: float) -> JointState:
    """Evolve under the full time-dependent two-beam drive, exactly.

    Needs a sideband tone (k + k' > 0): BichromaticAction solves the drive
    in its static frame, and the last drive's decomposition is cached, so
    repeated calls with one drive cost a few small matrix products each.
    Two carrier tones (k = k' = 0) have no static frame and raise ValueError.
    """
    return JointState(amps=_action(p, config).propagate(state.amps, t), config=state.config)


# ---------------------------------------------------------------------------
# closed forms (exact solutions of the effective / carrier generators)
# ---------------------------------------------------------------------------


def closed_form_dispersive(n_c: int, n_r: int, p: BichromaticParams, t: float):
    """Amplitudes (a_dd, a_uu) of the dispersive two-photon flop from |dd>.

    Starting in |dd> x |n_c, n_r>:

        a_dd = e^{-i (-1)^k W t} cos(|W| t)
        a_uu = -i sgn(W) e^{2 i phi_eff} e^{-i (-1)^k W t} sin(|W| t)

    with W = Omega^k_{n_c, n_r} (signed).  Exact for the effective
    generator at either sign of delta.
    """
    w = rabi_effective(n_c, n_r, p)
    pref = np.exp(-1j * (-1.0) ** p.k * w * t)
    a_dd = pref * np.cos(abs(w) * t)
    a_uu = pref * (-1j) * np.sign(w) * np.exp(2j * p.phi_eff) * np.sin(abs(w) * t)
    return complex(a_dd), complex(a_uu)


def closed_form_carrier(sign: int, p: CarrierParams, n_c: int, n_r: int, t0: float) -> np.ndarray:
    """Electronic amplitudes after a carrier pulse of duration t0 applied to
    (|dd> + sign |uu>)/sqrt(2) sitting in the vibrational level |n_c, n_r>.

    Returns the length-4 vector (a_dd, a_du, a_ud, a_uu).  Exact: the
    carrier generator splits into independent rotations of the two spins.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    theta = abs(p.omega) * coupling_f(n_c, n_r, 0, p.modes) * t0
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    s_dbl = math.sin(2.0 * theta)
    ph = np.exp(1j * p.phi_eff)
    rt2 = math.sqrt(2.0)
    a_dd = (c2 - sign * s2 / ph**2) / rt2
    a_uu = (sign * c2 - s2 * ph**2) / rt2
    mid = (-0.5j) * s_dbl * (ph + sign / ph) / rt2
    a_ud = mid * np.exp(0.5j * p.varphi0)
    a_du = mid * np.exp(-0.5j * p.varphi0)
    return np.array([a_dd, a_du, a_ud, a_uu])


# ---------------------------------------------------------------------------
# sanity diagnostics
# ---------------------------------------------------------------------------


def resonance_guard(p: BichromaticParams) -> list[str]:
    """Warnings-as-text about parameter regimes that undermine the model.

    Checks the dispersive premise |delta| >> eta^k |Omega| f_k(0,0) and, for
    higher sidebands (k outside {0, 1}), accidental co-resonance of the
    drive with stretch-mode combination lines k nu - m sqrt(3) nu.
    """
    msgs: list[str] = []
    nu = p.modes.nu
    g00 = (p.modes.eta ** p.k) * abs(p.omega) * abs(coupling_f(0, 0, p.k, p.modes))
    if abs(p.delta) < 10.0 * g00:
        msgs.append(
            f"dispersive regime marginal: |delta| = {abs(p.delta):.4g} < 10 x "
            f"eta^k |Omega| f_k(0,0) = {10.0 * g00:.4g}"
        )
    if p.k not in (0, 1):
        w00 = abs(rabi_effective(0, 0, p)) if p.symmetric_drive else g00
        tol = 10.0 * w00
        for m in range(1, 2 * p.k + 1):
            miss = abs(p.k * nu - p.delta - m * math.sqrt(3.0) * nu)
            if miss < tol:
                msgs.append(
                    f"k={p.k} drive sits within {miss:.3g} of the stretch "
                    f"combination line m={m} (tolerance {tol:.3g})"
                )
    return msgs
