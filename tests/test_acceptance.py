"""End-to-end acceptance battery, one test per numbered check.

Each test runs its check and asserts the recorded verdict, so a failure
message carries the measured numbers.  Check 4 drives the full two-tone
Hamiltonian at a detuning of 20.16 times the sideband coupling g00 and
holds the quarter-period Bell infidelity to the leakage budget
L(delta) = 8 (g00/delta)^2 sin^2(delta t/2): the exact rotating-frame
engine gives 1 - F = 0.01766 against L = 0.01771, and 0.00448 against
0.00454 at the doubled detuning.  The same pulses on the effective engine, which has no
leakage, fail it; see the module docstring of ``vibronic.acceptance``.
"""

import vibronic.acceptance as acceptance
from vibronic.acceptance import (
    check_bell_effective,
    check_bell_exact,
    check_closed_forms,
    check_decoupling,
    check_determinism,
    check_lamb_dicke,
    check_roundtrip_noiseless,
    check_roundtrip_shot_noise,
    check_spectrum_grid,
    check_wigner_oracle,
)


def test_check_1_closed_forms():
    res = check_closed_forms()
    assert res.passed, res.details


def test_check_2_decoupling():
    res = check_decoupling()
    assert res.passed, res.details


def test_check_3_bell_effective():
    res = check_bell_effective()
    assert res.passed, res.details


def test_check_4_bell_exact():
    res = check_bell_exact()
    assert res.passed, res.details


def test_check_4_rejects_effective_dynamics(monkeypatch):
    make_phi = acceptance.make_phi

    def effective_phi(*args, **kwargs):
        kwargs["engine"] = "effective"
        return make_phi(*args, **kwargs)

    monkeypatch.setattr(acceptance, "make_phi", effective_phi)
    res = check_bell_exact()
    assert not res.passed, res.details


def test_check_5_spectrum_grid():
    res = check_spectrum_grid()
    assert res.passed, res.details


def test_check_6_lamb_dicke():
    res = check_lamb_dicke()
    assert res.passed, res.details


def test_check_7_wigner_oracle():
    res = check_wigner_oracle()
    assert res.passed, res.details


def test_check_8_roundtrip_noiseless():
    res = check_roundtrip_noiseless()
    assert res.passed, res.details


def test_check_9_roundtrip_shot_noise():
    res = check_roundtrip_shot_noise()
    assert res.passed, res.details


def test_check_10_determinism():
    res = check_determinism()
    assert res.passed, res.details
