"""Pulse protocols that prepare the four electronic Bell states.

A single far-detuned bichromatic pulse of duration

    t+ = pi  / (4 |Omega^k_{n_c n_r}|)   or   t- = 3 pi / (4 |Omega^k_{n_c n_r}|)

drives |dd; n_c, n_r> onto the Phi-type pair

    Phi(+/-) = (|dd> + /- i (-1)^k e^{2 i phi} |uu>) / sqrt(2),

with phi the effective drive phase (common beam phase plus arg of the
complex strength).  The sign names the same state at either sign of delta:
the rate Omega^k has the sign (-1)^{k+1} sgn(delta), so Phi(sign) takes t+
when sign * delta > 0 and t- otherwise (at delta < 0, Phi(+) takes the
three-quarter pulse).  A subsequent carrier pulse of duration
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
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BichromaticParams,
    CarrierParams,
    FactoredPropagator,
    _dispersive_amplitudes,
    _warn_resonance,
    carrier_factors,
    effective_factors,
    propagate_bichromatic,
    rabi_effective,
    rabi_spectrum,
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


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")


def _phi_ratio(sign: int, k: int, phi: float) -> complex:
    """The uu/dd amplitude ratio sign * i (-1)^k e^{2 i phi} of Phi(sign)."""
    _check_sign(sign)
    return sign * 1j * (-1.0) ** k * np.exp(2j * phi)


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
        _check_sign(self.sign)

    def electronic_vector(self) -> np.ndarray:
        v = np.zeros(4, dtype=complex)
        if self.family == "phi":
            v[0] = 1.0
            v[3] = _phi_ratio(self.sign, self.k, self.phi)
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
    """A drive held for ``duration``: BichromaticParams make it dispersive, CarrierParams a carrier pulse."""

    params: BichromaticParams | CarrierParams
    duration: float

    def __post_init__(self):
        if not isinstance(self.params, (BichromaticParams, CarrierParams)):
            raise TypeError(f"pulse params must be BichromaticParams or CarrierParams, not {type(self.params).__name__}")
        if not self.duration > 0:
            raise ValueError("pulse durations must be positive")

    @property
    def kind(self) -> str:
        return "carrier" if isinstance(self.params, CarrierParams) else "dispersive"


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
    (propagate_bichromatic, which needs a sideband tone).  On either engine
    each dispersive pulse warns resonance_guard's messages over the box.
    Carrier pulses are always exact.
    """
    if engine not in ("effective", "exact"):
        raise ValueError(f"unknown engine {engine!r}")
    for pulse in seq.pulses:
        if isinstance(pulse.params, CarrierParams):
            state = FactoredPropagator(*carrier_factors(pulse.params, config)).apply(state, pulse.duration)
            continue
        _warn_resonance(pulse.params, config)
        if engine == "effective":
            state = FactoredPropagator(*effective_factors(pulse.params, config)).apply(state, pulse.duration)
        else:
            state = propagate_bichromatic(pulse.params, config, state, pulse.duration)
    return state


def _dispersive_pulse(sign: int, p: BichromaticParams, vib: tuple[int, int]) -> tuple[Pulse, float]:
    """The pulse from |dd; vib> to Phi(sign), t+ if sign * delta > 0 else t-, plus its prefactor phase."""
    _check_sign(sign)
    n_c, n_r = vib
    w = rabi_effective(n_c, n_r, p)
    if w == 0.0:
        raise ValueError(
            f"Omega^k vanishes at (n_c, n_r) = {vib} (k = {p.k}); the pulse time is infinite"
        )
    quarter = math.pi / (4.0 * abs(w))
    duration = quarter if sign * p.delta > 0 else 3.0 * quarter
    theta = -((-1.0) ** p.k) * w * duration
    return Pulse(params=p, duration=duration), theta


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
    and the executed sequence.  Both engines warn when the detuning is not
    comfortably dispersive.
    """
    pulse, theta = _dispersive_pulse(sign, p, vib)
    seq = PulseSequence(pulses=(pulse,), prefactor_phase=theta)
    out = run_sequence(seq, config, basis_state(config, "dd", *vib), engine=engine)
    target = phi_target_for(sign, p).joint_state(config, *vib)
    return out, fidelity(out, target), seq


def carrier_phase_for(start_sign: int, pd: BichromaticParams) -> float:
    """A carrier phase varphi satisfying the Psi-conversion condition.

    The carrier removes the dd and uu amplitudes of the incoming Phi state
    exactly when e^{2 i phi_c,eff} equals that state's uu/dd phase ratio
    chi = start_sign * i (-1)^k e^{2 i phi_d,eff}, at either sign of delta.
    For a real drive phased so that chi = +/-1 this reduces to varphi = 0
    or pi/2 (mod pi).  Assumes the carrier strength is real positive; fold
    arg of a complex strength into the returned angle yourself otherwise.
    """
    return float(np.angle(_phi_ratio(start_sign, pd.k, pd.phi_eff)) / 2.0)


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
    chi = _phi_ratio(start_sign, pd.k, pd.phi_eff)
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
    seq = PulseSequence(pulses=(disp, Pulse(params=pc, duration=t0)), prefactor_phase=theta)
    out = run_sequence(seq, config, basis_state(config, "dd", *vib), engine=engine)
    target = BellTarget(family="psi", sign=1, phi0=-pc.varphi0).joint_state(config, *vib)
    return out, fidelity(out, target), seq


def thermal_bell_scan(
    nbar_c: float,
    nbar_r: float,
    p: BichromaticParams,
    n_max: tuple[int, int] | None = None,
) -> float:
    """Phi(+) fidelity of make_phi's Phi(+) pulse applied to a thermal mixture.

    The input is rho_thermal(nbar_c) x rho_thermal(nbar_r) x |dd><dd| and
    the pulse is the one that prepares Phi(+) from the (0, 0) block (t+ at
    delta > 0, t- at delta < 0), so a cold ion scores 1 at either sign.  Each
    Fock block evolves independently under closed_form_dispersive's formula, so
    the reduced electronic state is a weighted mixture of pure block outcomes;
    its overlap with the Phi(+) target is returned.  The Fock box is sized so
    the neglected thermal tail is below 1e-9; an explicit n_max leaving
    more than 1e-6 outside the box is rejected.
    """
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

    duration = _dispersive_pulse(1, p, (0, 0))[0].duration
    a_dd, a_uu = _dispersive_amplitudes(rabi_spectrum(p, dim_c - 1, dim_r - 1), p, duration)
    tvec = phi_target_for(1, p).electronic_vector()
    overlap2 = np.abs(np.conj(tvec[0]) * a_dd + np.conj(tvec[3]) * a_uu) ** 2
    weights = np.outer(thermal_weights(nbar_c, dim_c), thermal_weights(nbar_r, dim_r))
    return float(np.sum(weights * overlap2))


def _auto_box(nbar: float) -> int:
    """Smallest n with the thermal weight beyond it under 1e-9, capped at 400."""
    if nbar == 0:
        return 2
    ratio = nbar / (1.0 + nbar)
    n = max(2, int(math.ceil(math.log(1e-9) / math.log(ratio))) - 1)
    return min(n, 400)
