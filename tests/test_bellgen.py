"""Tests for the Bell-state pulse protocols and thermal robustness scan."""

import numpy as np
import pytest

from vibronic import (
    AdiabaticityWarning,
    BellTarget,
    BichromaticParams,
    CarrierParams,
    HilbertConfig,
    ModeParams,
    Pulse,
    basis_state,
    carrier_phase_for,
    fidelity,
    make_phi,
    make_psi,
    phase_alternative_phi,
    phi_target_for,
    rabi_effective,
    reduce_vibrational,
    run_sequence,
    thermal_bell_scan,
)

MODES = ModeParams(eta=0.13)
CONFIG = HilbertConfig(n_max_c=5, n_max_r=3)


def drive(k=1, delta=0.05, omega=0.02, phi=0.3, phi0=0.8, eta=0.13):
    return BichromaticParams.symmetric(k=k, delta=delta, omega=omega, phi=phi, phi0=phi0, modes=ModeParams(eta=eta))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("vib", [(0, 0), (2, 1), (4, 3)])
def test_make_phi_effective_reaches_target(k, sign, vib):
    p = drive(k=k)
    state, fid, seq = make_phi(sign, p, CONFIG, vib=vib)
    assert fid == pytest.approx(1.0, abs=1e-10)
    w = abs(rabi_effective(*vib, p))
    want = np.pi / (4 * w) if sign == 1 else 3 * np.pi / (4 * w)
    assert seq.pulses[0].duration == pytest.approx(want, rel=1e-12)


def test_make_phi_signs_give_orthogonal_states():
    p = drive()
    plus, _, _ = make_phi(1, p, CONFIG)
    minus, _, _ = make_phi(-1, p, CONFIG)
    assert abs(np.vdot(plus.amps, minus.amps)) < 1e-10


def test_make_phi_refuses_vanishing_rate():
    with pytest.raises(ValueError):
        make_phi(1, drive(k=0), CONFIG)
    with pytest.raises(ValueError):
        make_phi(1, drive(omega=0.0), CONFIG)


def test_make_phi_effective_warns_on_marginal_detuning():
    with pytest.warns(AdiabaticityWarning):
        make_phi(1, drive(delta=0.004, eta=0.1), HilbertConfig(n_max_c=4, n_max_r=1), engine="effective")


def test_make_phi_exact_warns_on_marginal_detuning():
    # the exact engine forwards resonance_guard's messages: here |delta| < 10 g_00
    with pytest.warns(AdiabaticityWarning, match="dispersive regime marginal"):
        make_phi(1, drive(delta=0.004, eta=0.1), HilbertConfig(n_max_c=4, n_max_r=1), engine="exact")


def test_pulse_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        Pulse(kind="dispersive", params=drive(), duration=0.0)
    with pytest.raises(ValueError):
        Pulse(kind="squeeze", params=drive(), duration=1.0)


def test_phase_alternative_reaches_opposite_sign():
    p = drive()
    seq = phase_alternative_phi(p, vib=(1, 0))
    out = run_sequence(seq, CONFIG, basis_state(CONFIG, "dd", 1, 0))
    assert fidelity(out, phi_target_for(-1, p).joint_state(CONFIG, 1, 0)) == pytest.approx(1.0, abs=1e-10)
    # same duration as the plain t+ pulse
    _, _, plain = make_phi(1, p, CONFIG, vib=(1, 0))
    assert seq.pulses[0].duration == pytest.approx(plain.pulses[0].duration, rel=1e-12)


def test_phase_alternative_twice_restores_original():
    p = drive()
    shifted_once = phase_alternative_phi(p).pulses[0].params
    shifted_twice = phase_alternative_phi(shifted_once).pulses[0].params
    # a full pi shift of phi leaves e^{2 i phi} unchanged
    assert np.exp(2j * shifted_twice.phi_eff) == pytest.approx(np.exp(2j * p.phi_eff), abs=1e-12)
    out = run_sequence(phase_alternative_phi(shifted_once), CONFIG, basis_state(CONFIG, "dd", 0, 0))
    assert fidelity(out, phi_target_for(1, p).joint_state(CONFIG, 0, 0)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("start_sign", [1, -1])
def test_make_psi_from_either_phi(start_sign):
    p = drive()
    pc = CarrierParams(omega=0.03, varphi=carrier_phase_for(start_sign, p), varphi0=0.8, modes=MODES)
    state, fid, seq = make_psi(start_sign, p, pc, CONFIG, vib=(1, 0))
    assert fid == pytest.approx(1.0, abs=1e-10)
    tens = state.tensor()
    assert abs(tens[0, 1, 0]) < 1e-10  # dd emptied
    assert abs(tens[3, 1, 0]) < 1e-10  # uu emptied
    assert [pl.kind for pl in seq.pulses] == ["dispersive", "carrier"]


def test_make_psi_rejects_wrong_carrier_phase():
    p = drive()
    bad = CarrierParams(omega=0.03, varphi=carrier_phase_for(1, p) + 0.3, varphi0=0.8, modes=MODES)
    with pytest.raises(ValueError):
        make_psi(1, p, bad, CONFIG)


def test_psi_partner_orthogonal():
    p = drive()
    phic = carrier_phase_for(1, p)
    out = {}
    for shift in (0.0, np.pi):
        pc = CarrierParams(omega=0.03, varphi=phic, varphi0=0.8 + shift, modes=MODES)
        out[shift], fid, _ = make_psi(1, p, pc, CONFIG)
        assert fid == pytest.approx(1.0, abs=1e-10)
    assert abs(np.vdot(out[0.0].amps, out[np.pi].amps)) < 1e-10


def test_four_bell_outputs_pairwise_orthogonal():
    p = drive()
    phic = carrier_phase_for(1, p)
    states = [make_phi(1, p, CONFIG)[0], make_phi(-1, p, CONFIG)[0]]
    for shift in (0.0, np.pi):
        pc = CarrierParams(omega=0.03, varphi=phic, varphi0=0.8 + shift, modes=MODES)
        states.append(make_psi(1, p, pc, CONFIG)[0])
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.vdot(states[i].amps, states[j].amps)) < 1e-8


@pytest.mark.parametrize("vib", [(0, 0), (3, 2)])
def test_pulses_leave_vibrational_state_unchanged(vib):
    p = drive()
    pc = CarrierParams(omega=0.03, varphi=carrier_phase_for(1, p), varphi0=0.8, modes=MODES)
    for state in (make_phi(1, p, CONFIG, vib=vib)[0], make_psi(1, p, pc, CONFIG, vib=vib)[0]):
        rho = reduce_vibrational(state).matrix
        want = np.zeros_like(rho)
        want[CONFIG.vib_index(*vib), CONFIG.vib_index(*vib)] = 1.0
        # trace distance to the input Fock projector
        dist = 0.5 * np.abs(np.linalg.eigvalsh(rho - want)).sum()
        assert dist < 1e-9


def test_exact_engine_fidelity_improves_with_detuning():
    # 4-point detuning ladder at fixed eta * omega; chosen clear of the
    # leakage-echo nulls so the trend is strictly monotone
    config = HilbertConfig(n_max_c=3, n_max_r=0)
    eta, omega = 0.1, 0.03
    fids = []
    for mult in (10, 14, 20, 40):
        p = BichromaticParams.symmetric(k=1, delta=mult * eta * omega, omega=omega, modes=ModeParams(eta=eta))
        fids.append(make_phi(1, p, config, engine="exact")[1])
    assert all(b > a for a, b in zip(fids, fids[1:]))
    assert fids[-1] > 0.99


def test_bell_target_validation():
    with pytest.raises(ValueError):
        BellTarget(family="chi", sign=1)
    with pytest.raises(ValueError):
        BellTarget(family="phi", sign=0)


def test_thermal_scan_matches_pure_case_at_zero_nbar():
    p = drive()
    assert thermal_bell_scan(0.0, 0.0, p) == pytest.approx(make_phi(1, p, CONFIG)[1], abs=1e-10)


def test_thermal_scan_lamb_dicke_robustness():
    cold = BichromaticParams.symmetric(k=1, delta=0.05, omega=0.02, modes=ModeParams(eta=0.02))
    warm = BichromaticParams.symmetric(k=1, delta=0.05, omega=0.02, modes=ModeParams(eta=0.2))
    f_cold = thermal_bell_scan(0.5, 0.5, cold)
    f_warm = thermal_bell_scan(0.5, 0.5, warm)
    assert f_cold >= 0.999
    assert f_warm < f_cold


@pytest.mark.parametrize("nbar", [float("nan"), float("inf"), -0.5])
def test_thermal_scan_rejects_bad_nbar(nbar):
    with pytest.raises(ValueError, match="nbar must be a finite number >= 0"):
        thermal_bell_scan(nbar, 0.0, drive())
    with pytest.raises(ValueError, match="nbar must be a finite number >= 0"):
        thermal_bell_scan(0.0, nbar, drive(), n_max=(3, 3))


def test_thermal_scan_rejects_heavy_tail_box():
    p = drive()
    with pytest.raises(ValueError):
        thermal_bell_scan(5.0, 0.0, p, n_max=(3, 2))
