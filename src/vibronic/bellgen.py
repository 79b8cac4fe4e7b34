"""Pulse protocols that prepare the four electronic Bell states.

A single far-detuned bichromatic pulse of duration

    t+ = pi  / (4 |Omega^k_{n_c n_r}|)   or   t- = 3 pi / (4 |Omega^k_{n_c n_r}|)

drives |dd; n_c, n_r> onto the Phi-type pair

    Phi(+/-) = (|dd> + /- i (-1)^k e^{2 i phi} |uu>) / sqrt(2),

with phi the effective drive phase (common beam phase plus arg of the
complex strength) and delta > 0 assumed; a negative detuning swaps which
sign is reached at t+/t-.  A subsequent carrier pulse of duration
t0 = pi / (4 |Omega_0|) converts either Phi state into the Psi-type pair

    Psi = (|ud> + e^{-i varphi0} |du>) / sqrt(2)   (partner: varphi0 + pi)

provided the carrier phase satisfies e^{2 i phi_c} = (uu amplitude ratio)
of the incoming state; helpers compute and validate that choice.  All
pulses leave the vibrational state untouched, which is what makes the
scheme robust against imperfect ground-state cooling: thermal_bell_scan
scores the Phi(+) fidelity block by block over a two-mode thermal mixture.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    AdiabaticityWarning,
    BichromaticParams,
    CarrierParams,
    FactoredPropagator,
    carrier_factors,
    effective_factors,
    propagate_bichromatic,
    rabi_effective,
    rabi_spectrum,
    resonance_guard,
)
from .fockspace import (
    HilbertConfig,
    JointState,
    basis_state,
    coupling_f,
    fidelity,
    thermal_weights,
)

_PHASE_TOL = 1e-9


@dataclass(frozen=True)
class BellTarget:
    """One of the four Bell states, phases pinned by the generating pulses.

    family "phi": (|dd> + sign * i (-1)^k e^{2 i phi} |uu>) / sqrt(2)
    family "psi": (|ud> + sign * e^{i phi0} |du>) / sqrt(2)
    """

    family: str
    sign: int
    k: int = 0
    phi: float = 0.0
    phi0: float = 0.0

    def __post_init__(self):
        if self.family not in ("phi", "psi"):
            raise ValueError(f"family must be 'phi' or 'psi', got {self.family!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def electronic_vector(self) -> np.ndarray:
        v = np.zeros(4, dtype=complex)
        if self.family == "phi":
            v[0] = 1.0
            v[3] = self.sign * 1j * (-1.0) ** self.k * np.exp(2j * self.phi)
        else:
            v[2] = 1.0
            v[1] = self.sign * np.exp(1j * self.phi0)
        return v / math.sqrt(2.0)

    def joint_state(self, config: HilbertConfig, n_c: int = 0, n_r: int = 0) -> JointState:
        amps = np.zeros(config.dim, dtype=complex)
        vec = self.electronic_vector()
        for e in range(4):
            amps[config.joint_index(e, n_c, n_r)] = vec[e]
        return JointState(amps=amps, config=config)


@dataclass(frozen=True)
class Pulse:
    kind: str  # "dispersive" | "carrier"
    params: BichromaticParams | CarrierParams
    duration: float

    def __post_init__(self):
        if self.kind not in ("dispersive", "carrier"):
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if not self.duration > 0:
            raise ValueError("pulse durations must be positive")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses plus the accumulated closed-form global phase.

    ``prefactor_phase`` is the phase theta of the overall e^{i theta}
    factor the dispersive pulses put in front of the state at the input
    vibrational level; composition steps that interfere amplitudes need it
    even though single-state fidelities do not.
    """

    pulses: tuple[Pulse, ...]
    prefactor_phase: float = 0.0


def run_sequence(
    seq: PulseSequence,
    config: HilbertConfig,
    state: JointState,
    engine: str = "effective",
) -> JointState:
    """Apply the pulses of ``seq`` in order to ``state``.

    engine "effective" evolves dispersive pulses under the eliminated
    generator (exact within that model); "exact" propagates the full
    time-dependent two-beam drive in its rotating frame
    (propagate_bichromatic, which needs a sideband tone).  Carrier pulses
    are always exact.
    """
    if engine not in ("effective", "exact"):
        raise ValueError(f"unknown engine {engine!r}")
    for pulse in seq.pulses:
        if pulse.kind == "carrier":
            state = FactoredPropagator(*carrier_factors(pulse.params, config)).apply(state, pulse.duration)
        elif engine == "effective":
            state = FactoredPropagator(*effective_factors(pulse.params, config)).apply(state, pulse.duration)
        else:
            state = propagate_bichromatic(pulse.params, config, state, pulse.duration)
    return state


def _dispersive_pulse(sign: int, p: BichromaticParams, vib: tuple[int, int]) -> tuple[Pulse, float]:
    """The t+/t- pulse for the given start level, plus its prefactor phase."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n_c, n_r = vib
    w = rabi_effective(n_c, n_r, p)
    if w == 0.0:
        raise ValueError(
            f"Omega^k vanishes at (n_c, n_r) = {vib} (k = {p.k}); the pulse time is infinite"
        )
    quarter = math.pi / (4.0 * abs(w))
    duration = quarter if sign == 1 else 3.0 * quarter
    theta = -((-1.0) ** p.k) * w * duration
    return Pulse(kind="dispersive", params=p, duration=duration), theta


def phi_target_for(sign: int, p: BichromaticParams) -> BellTarget:
    """Phi-type target whose uu phase matches the drive convention."""
    return BellTarget(family="phi", sign=sign, k=p.k, phi=p.phi_eff)


def make_phi(
    sign: int,
    p: BichromaticParams,
    config: HilbertConfig,
    vib: tuple[int, int] = (0, 0),
    engine: str = "effective",
) -> tuple[JointState, float, PulseSequence]:
    """Prepare Phi(sign) from |dd; vib> with a single dispersive pulse.

    Returns the final state, its fidelity against the matching BellTarget,
    and the executed sequence.  The exact engine warns when the detuning
    is not comfortably dispersive.
    """
    pulse, theta = _dispersive_pulse(sign, p, vib)
    if engine == "exact":
        for msg in resonance_guard(p):
            warnings.warn(msg, AdiabaticityWarning, stacklevel=2)
    seq = PulseSequence(pulses=(pulse,), prefactor_phase=theta)
    out = run_sequence(seq, config, basis_state(config, "dd", *vib), engine=engine)
    target = phi_target_for(sign, p).joint_state(config, *vib)
    return out, fidelity(out, target), seq


def phase_alternative_phi(p: BichromaticParams, vib: tuple[int, int] = (0, 0)) -> PulseSequence:
    """The same t+ pulse with the common phase advanced by pi/2.

    Shifting phi by pi/2 flips e^{2 i phi} by -1, so this sequence prepares
    the opposite-sign Phi state without touching the pulse duration.
    """
    shifted = replace(p, phi=p.phi + math.pi / 2.0)
    pulse, theta = _dispersive_pulse(1, shifted, vib)
    return PulseSequence(pulses=(pulse,), prefactor_phase=theta)


def carrier_phase_for(start_sign: int, pd: BichromaticParams) -> float:
    """A carrier phase varphi satisfying the Psi-conversion condition.

    The carrier removes the dd and uu amplitudes of the incoming Phi state
    exactly when e^{2 i phi_c,eff} equals that state's uu/dd phase ratio
    chi = start_sign * i (-1)^k sgn(delta) e^{2 i phi_d,eff}.  For a real
    drive phased so that chi = +/-1 this reduces to varphi = 0 or pi/2
    (mod pi).  Assumes the carrier strength is real positive; fold arg of a
    complex strength into the returned angle yourself otherwise.
    """
    chi = _phi_uu_phase(start_sign, pd)
    return float(np.angle(chi) / 2.0)


def _phi_uu_phase(start_sign: int, pd: BichromaticParams) -> complex:
    if start_sign not in (1, -1):
        raise ValueError("start_sign must be +1 or -1")
    return start_sign * 1j * (-1.0) ** pd.k * math.copysign(1.0, pd.delta) * np.exp(2j * pd.phi_eff)


def make_psi(
    start_sign: int,
    pd: BichromaticParams,
    pc: CarrierParams,
    config: HilbertConfig,
    vib: tuple[int, int] = (0, 0),
    engine: str = "effective",
) -> tuple[JointState, float, PulseSequence]:
    """Prepare the Psi-type Bell state via Phi(start_sign) plus a carrier pulse.

    The carrier params must satisfy the phase condition (see
    carrier_phase_for); t0 = pi / (4 |omega_c| f_0) empties |dd> and |uu>
    and leaves (|ud> + e^{-i varphi0} |du>)/sqrt(2).  The orthogonal
    partner follows from varphi0 -> varphi0 + pi.
    """
    n_c, n_r = vib
    chi = _phi_uu_phase(start_sign, pd)
    have = np.exp(2j * pc.phi_eff)
    if abs(have - chi) > _PHASE_TOL:
        raise ValueError(
            "carrier phase does not match the incoming Phi state: need "
            f"e^(2i phi_c,eff) = {chi:.6f}, got {have:.6f}; see carrier_phase_for"
        )
    omega0 = abs(pc.omega) * coupling_f(n_c, n_r, 0, pc.modes)
    if omega0 == 0.0:
        raise ValueError(f"carrier Rabi frequency vanishes at (n_c, n_r) = {vib}")
    t0 = math.pi / (4.0 * abs(omega0))
    disp, theta = _dispersive_pulse(start_sign, pd, vib)
    seq = PulseSequence(pulses=(disp, Pulse(kind="carrier", params=pc, duration=t0)), prefactor_phase=theta)
    out = run_sequence(seq, config, basis_state(config, "dd", *vib), engine=engine)
    target = BellTarget(family="psi", sign=1, phi0=-pc.varphi0).joint_state(config, *vib)
    return out, fidelity(out, target), seq


def thermal_bell_scan(
    nbar_c: float,
    nbar_r: float,
    p: BichromaticParams,
    t_pulse: float | None = None,
    n_max: tuple[int, int] | None = None,
) -> float:
    """Phi(+) fidelity of the dispersive pulse applied to a thermal mixture.

    The input is rho_thermal(nbar_c) x rho_thermal(nbar_r) x |dd><dd| and
    the pulse lasts t_pulse (default: the t+ of the (0, 0) block).  Each
    Fock block evolves independently under the closed form, so the reduced
    electronic state is a weighted mixture of pure block outcomes; its
    overlap with the Phi(+) target is returned.  The Fock box is sized so
    the neglected thermal tail is below 1e-9; an explicit n_max leaving
    more than 1e-6 outside the box is rejected.
    """
    if t_pulse is not None and not t_pulse > 0:
        raise ValueError("t_pulse must be positive")
    dims = []
    for nbar, given in zip((nbar_c, nbar_r), n_max or (None, None)):
        if not (math.isfinite(nbar) and nbar >= 0):
            raise ValueError(f"nbar must be a finite number >= 0, got {nbar}")
        if given is None:
            given = _auto_box(nbar)
        tail = (nbar / (1.0 + nbar)) ** (given + 1) if nbar > 0 else 0.0
        if tail > 1e-6:
            raise ValueError(
                f"thermal tail {tail:.3g} beyond n = {given} exceeds 1e-6; enlarge the box"
            )
        dims.append(given + 1)
    dim_c, dim_r = dims

    if t_pulse is None:
        w00 = rabi_effective(0, 0, p)
        if w00 == 0.0:
            raise ValueError("Omega^k vanishes at (0, 0); give t_pulse explicitly")
        t_pulse = math.pi / (4.0 * abs(w00))

    wgrid = rabi_spectrum(p, dim_c - 1, dim_r - 1).values
    a_dd = np.cos(np.abs(wgrid) * t_pulse)
    a_uu = -1j * np.sign(wgrid) * np.exp(2j * p.phi_eff) * np.sin(np.abs(wgrid) * t_pulse)
    tvec = phi_target_for(1, p).electronic_vector()
    overlap2 = np.abs(np.conj(tvec[0]) * a_dd + np.conj(tvec[3]) * a_uu) ** 2
    weights = np.outer(thermal_weights(nbar_c, dim_c), thermal_weights(nbar_r, dim_r))
    return float(np.sum(weights * overlap2))


def _auto_box(nbar: float, tail: float = 1e-9, cap: int = 400) -> int:
    """Smallest n with the thermal weight beyond it under ``tail``."""
    if nbar == 0:
        return 2
    ratio = nbar / (1.0 + nbar)
    n = max(2, int(math.ceil(math.log(tail) / math.log(ratio))) - 1)
    return min(n, cap)
