"""Property test: propagate_bichromatic against the dense oracle on random drives."""

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
