"""Tests for the Bell-state pulse protocols and thermal robustness scan."""

import cmath

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
    phi_target_for,
    rabi_effective,
    reduce_vibrational,
    resonance_guard,
    run_sequence,
    thermal_bell_scan,
    thermal_weights,
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
    # the effective engine warns resonance_guard's messages, as the exact one does
    p, config = drive(delta=0.004, eta=0.1), HilbertConfig(n_max_c=4, n_max_r=1)
    with pytest.warns(AdiabaticityWarning) as caught:
        make_phi(1, p, config, engine="effective")
    assert [str(w.message) for w in caught] == resonance_guard(p, config) != []


def test_make_phi_exact_warns_on_marginal_detuning():
    # the exact engine forwards resonance_guard's messages: here |delta| < 10 g_00
    with pytest.warns(AdiabaticityWarning, match="dispersive regime marginal"):
        make_phi(1, drive(delta=0.004, eta=0.1), HilbertConfig(n_max_c=4, n_max_r=1), engine="exact")


def test_make_psi_exact_warns_on_marginal_detuning():
    # make_psi runs the same dispersive pulse on the full drive, then a carrier pulse
    p = drive(delta=0.004, eta=0.1)
    pc = CarrierParams(omega=0.03, varphi=carrier_phase_for(1, p), varphi0=0.8, modes=p.modes)
    with pytest.warns(AdiabaticityWarning, match="dispersive regime marginal"):
        make_psi(1, p, pc, HilbertConfig(n_max_c=4, n_max_r=1), engine="exact")


def test_pulse_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        Pulse(params=drive(), duration=0.0)
    # the params type is the pulse type, so params of any other type are refused
    with pytest.raises(TypeError):
        Pulse(params=MODES, duration=1.0)


def test_pulse_kind_follows_its_params():
    carrier = CarrierParams(omega=0.03, varphi=0.0, varphi0=0.0, modes=MODES)
    assert Pulse(params=carrier, duration=1.0).kind == "carrier"
    assert Pulse(params=drive(), duration=1.0).kind == "dispersive"


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("sign", [1, -1])
def test_make_phi_names_the_same_state_at_negative_detuning(k, sign):
    # Omega^k has the sign (-1)^{k+1} sgn(delta), so at delta < 0 Phi(+) takes the t- pulse
    p = drive(k=k, delta=-0.05)
    _, fid, seq = make_phi(sign, p, CONFIG)
    assert fid == pytest.approx(1.0, abs=1e-10)
    w = abs(rabi_effective(0, 0, p))
    want = 3 * np.pi / (4 * w) if sign == 1 else np.pi / (4 * w)
    assert seq.pulses[0].duration == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("delta", [0.05, -0.05])
def test_thermal_scan_of_a_cold_ion_is_one_at_either_detuning(k, delta):
    assert thermal_bell_scan(0.0, 0.0, drive(k=k, delta=delta)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("start_sign", [1, -1])
def test_make_psi_at_negative_detuning(k, start_sign):
    p = drive(k=k, delta=-0.05)
    pc = CarrierParams(omega=0.03, varphi=carrier_phase_for(start_sign, p), varphi0=0.8, modes=MODES)
    assert make_psi(start_sign, p, pc, CONFIG)[1] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("k, eta", [(1, 0.1), (2, 0.2)])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("vib", [(0, 0), (1, 1)])
def test_exact_engine_negative_detuning_mirrors_the_opposite_sign(k, eta, sign, vib):
    """1 - F(Phi(s); -delta) = 1 - F(Phi(-s); +delta) on the full drive, for the same pulse.

    The drive matrices are real up to their phases, so the conjugate of the
    drive at (delta, Omega, phi, phi0) is the drive at -delta with conjugated
    phases (Omega*, -phi, -phi0), up to an overall sign of the coupling.
    Conjugating the Schroedinger equation therefore maps the state prepared
    from the real input |dd; vib> at +delta onto the state prepared at -delta
    with conjugated phases; the coupling's sign is one more phase.
    Conjugation also maps the target Phi(-s) onto Phi(s) of the conjugated
    phases.  The fidelity does not depend on the phases (an electronic gauge
    transformation removes them), so the two infidelities agree to rounding.
    Both runs take the t- pulse of the same |Omega^k|.
    """
    config = HilbertConfig(n_max_c=8, n_max_r=2)

    def infidelity(s, delta):
        p = BichromaticParams.symmetric(
            k=k, delta=delta, omega=0.03 * cmath.exp(0.7j), phi=0.4, phi0=1.3, modes=ModeParams(eta=eta)
        )
        _, fid, seq = make_phi(s, p, config, vib=vib, engine="exact")
        return 1.0 - fid, seq.pulses[0].duration

    (mirror, t_mirror), (direct, t_direct) = infidelity(sign, -0.15), infidelity(-sign, 0.15)
    assert t_mirror == t_direct
    assert direct > 1e-5  # the full drive leaks, so the identity is not 0 = 0
    assert mirror == pytest.approx(direct, abs=1e-12)


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
        rho = reduce_vibrational(state).matrix()
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
    # one sign check serves the target, the pulse and the carrier phase
    for call in (lambda: BellTarget("phi", 2), lambda: make_phi(0, drive(), CONFIG), lambda: carrier_phase_for(0, drive())):
        with pytest.raises(ValueError, match="sign must be"):
            call()


def test_thermal_scan_matches_pure_case_at_zero_nbar():
    p = drive()
    assert thermal_bell_scan(0.0, 0.0, p) == pytest.approx(make_phi(1, p, CONFIG)[1], abs=1e-10)


def test_thermal_scan_matches_the_engine_over_a_thermal_box():
    # sum over an explicit box of the thermal weight times the effective engine's Phi(+) fidelity
    # for the t+ pulse of (0, 0), started in |dd; n>
    p = drive(delta=0.15, omega=0.05, eta=0.2)
    nbar, n_max = (0.5, 0.2), (14, 10)
    config = HilbertConfig(*n_max)
    seq = make_phi(1, p, config)[2]
    target = phi_target_for(1, p)
    total = 0.0
    weights = np.outer(thermal_weights(nbar[0], n_max[0] + 1), thermal_weights(nbar[1], n_max[1] + 1))
    for (n_c, n_r), weight in np.ndenumerate(weights):
        out = run_sequence(seq, config, basis_state(config, "dd", n_c, n_r))
        total += weight * fidelity(out, target.joint_state(config, n_c, n_r))
    assert thermal_bell_scan(*nbar, p, n_max=n_max) == pytest.approx(total, abs=1e-12)
    assert total < 0.9999  # the rates spread over the box, so the thermal fidelity is not trivially 1


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
