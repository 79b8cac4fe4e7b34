"""Property tests: propagate_bichromatic against the dense oracle on random
drives, and the SignalRecord text format on random records."""

import struct

import numpy as np
import pytest

from vibronic import (
    BichromaticParams,
    HilbertConfig,
    JointState,
    ModeParams,
    build_bichromatic_H,
    propagate_bichromatic,
    propagate_timedep,
)
from vibronic.tomography import SignalRecord

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

DT = 0.02


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(
    k=st.integers(0, 2),
    k_prime=st.integers(0, 2),
    delta=st.floats(-0.2, 0.2),
    delta_prime=st.floats(-0.2, 0.2),
    omega_abs=st.floats(0.0, 0.05),
    omega_arg=st.floats(-np.pi, np.pi),
    phi=st.floats(-np.pi, np.pi),
    phi0=st.floats(-np.pi, np.pi),
    eta=st.floats(0.05, 0.3),
    n_max_c=st.integers(0, 3),
    n_max_r=st.integers(0, 1),
    t=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**16),
)
def test_engine_matches_oracle_on_random_drives(
    k, k_prime, delta, delta_prime, omega_abs, omega_arg, phi, phi0, eta, n_max_c, n_max_r, t, seed
):
    # k + k' > 0 is exact and the oracle's midpoint error stays below 1e-6;
    # k = k' = 0 takes the oracle's own midpoint steps at the same dt
    config = HilbertConfig(n_max_c=n_max_c, n_max_r=n_max_r)
    p = BichromaticParams(
        k=k, k_prime=k_prime, delta=delta, delta_prime=delta_prime,
        omega=omega_abs * np.exp(1j * omega_arg), phi=phi, phi0=phi0, modes=ModeParams(eta=eta),
    )
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=config.dim) + 1j * rng.normal(size=config.dim)
    psi0 = JointState(amps=amps / np.linalg.norm(amps), config=config)
    out = propagate_bichromatic(p, config, psi0, t, dt_max=DT)
    ref = propagate_timedep(lambda s: build_bichromatic_H(s, p, config), psi0, t, dt_max=DT)
    assert abs(out.norm() - 1.0) < 1e-12
    assert np.abs(out.amps - ref.amps).max() < (1e-6 if k + k_prime else 1e-11)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _param_bits(p: BichromaticParams) -> tuple:
    m = p.modes
    floats = (p.delta, p.delta_prime, p.omega.real, p.omega.imag, p.phi, p.phi0, m.eta, m.eta_r, m.nu)
    return (p.k, p.k_prime) + tuple(_bits(x) for x in floats)


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_positive = st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    k=st.integers(0, 4),
    k_prime=st.integers(0, 4),
    delta=st.floats(-0.2, 0.2),
    delta_prime=st.floats(-0.2, 0.2),
    omega_re=_finite,
    omega_im=_finite,
    phi=_finite,
    phi0=_finite,
    eta=_positive,
    eta_r=_positive,
    nu=st.floats(1.0, 1e3),
    seed=st.integers(0, 2**63),
    taus=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12, unique=True).map(sorted),
    noisy=st.booleans(),
    data=st.data(),
)
def test_signal_record_text_round_trip_is_exact(
    k, k_prime, delta, delta_prime, omega_re, omega_im, phi, phi0, eta, eta_r, nu, seed, taus, noisy, data
):
    p = BichromaticParams(
        k=k, k_prime=k_prime, delta=delta, delta_prime=delta_prime, omega=complex(omega_re, omega_im),
        phi=phi, phi0=phi0, modes=ModeParams(eta=eta, eta_r=eta_r, nu=nu),
    )
    n = len(taus)
    if noisy:
        shots = data.draw(st.integers(1, 10**6))
        counts = data.draw(st.lists(st.integers(0, shots), min_size=n, max_size=n))
        p_dd, shots = np.array(counts) / shots, np.full(n, shots)
    else:
        p_dd, shots = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))), np.zeros(n, int)
    rec = SignalRecord(taus=np.array(taus), p_dd=p_dd, shots=shots, params=p, seed=seed)
    back = SignalRecord.from_text(rec.to_text())
    for name in ("taus", "p_dd", "shots"):
        a, b = getattr(rec, name), getattr(back, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert _param_bits(back.params) == _param_bits(rec.params)
    assert back.seed == rec.seed
