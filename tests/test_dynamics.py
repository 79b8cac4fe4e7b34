"""Tests for drive Hamiltonians, propagators and closed-form evolutions."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from vibronic import (
    AdiabaticityWarning,
    BichromaticAction,
    BichromaticParams,
    CarrierParams,
    FactoredPropagator,
    HermitianPropagator,
    HilbertConfig,
    JointState,
    ModeParams,
    RotatingWaveWarning,
    StateSpec,
    TruncationWarning,
    basis_state,
    build_bichromatic_H,
    build_carrier_H,
    build_effective_H,
    carrier_factors,
    carrier_phase_for,
    closed_form_carrier,
    closed_form_dispersive,
    coupling_f,
    coupling_f_grid,
    effective_factors,
    make_phi,
    make_psi,
    make_vib_state,
    make_vib_vector,
    omega_k_scale,
    propagate_bichromatic,
    propagate_timedep,
    rabi_effective,
    rabi_spectrum,
    resonance_guard,
    wigner_direct,
)
from vibronic.dynamics import _drive_blocks
from vibronic.tomography import min_gaps


def bell_dd_uu(config, sign, n_c=0, n_r=0):
    dd = basis_state(config, "dd", n_c, n_r)
    uu = basis_state(config, "uu", n_c, n_r)
    return JointState(amps=(dd.amps + sign * uu.amps) / np.sqrt(2.0), config=config)


def test_omega_k_scale_zero_delta_raises():
    with pytest.raises(ValueError):
        omega_k_scale(1, 0.01, 0.0, 0.1)


def test_omega_k_scale_overflow_raises():
    # a subnormal detuning makes 2|omega|^2 eta^2k / delta overflow to inf,
    # which would turn every effective rate (0 * inf at k = 0) into nan
    with pytest.raises(ValueError, match="overflows"):
        omega_k_scale(0, 0.03125, 2.2250738585e-313, 0.25)
    assert omega_k_scale(0, 0.0, 2.2250738585e-313, 0.25) == 0.0


def test_overflowing_dispersive_rates_raise():
    # the scale itself is finite here, but the rates times the bracket are not
    p = BichromaticParams.symmetric(k=2, delta=2.2250738585e-313, omega=0.05, modes=ModeParams(eta=0.25))
    assert math.isfinite(omega_k_scale(p.k, p.omega, p.delta, p.modes.eta))
    with pytest.raises(ValueError, match="overflow"):
        rabi_spectrum(p, 2, 1)
    with pytest.raises(ValueError, match="overflow"):
        rabi_effective(2, 0, p)
    with pytest.raises(ValueError, match="overflow"):
        FactoredPropagator(np.eye(4), np.array([1.0, np.inf]))
    # finite levels whose phases overflow at this t
    prop = FactoredPropagator(np.eye(4), np.array([1.0, 1e308]))
    psi = basis_state(HilbertConfig(n_max_c=0, n_max_r=1), "dd", 0, 0)
    assert abs(prop.apply(psi, 1.0).norm() - 1.0) < 1e-12
    with pytest.raises(ValueError, match="overflow"):
        prop.apply(psi, 10.0)


def test_omega_k_scale_sign_alternates():
    # (i eta)^{2k} brings a factor (-1)^k
    assert omega_k_scale(1, 0.01, 0.01, 0.1) < 0
    assert omega_k_scale(2, 0.01, 0.01, 0.1) > 0
    assert omega_k_scale(1, 0.01, -0.01, 0.1) > 0


def test_rabi_effective_frozen_values():
    p = BichromaticParams.symmetric(k=1, delta=0.01, omega=0.01, modes=ModeParams(eta=0.1))
    assert rabi_effective(0, 0, p) == pytest.approx(0.00019687004949787762, rel=1e-13)
    p2 = BichromaticParams.symmetric(k=1, delta=0.02, omega=0.05, modes=ModeParams(eta=0.23))
    # hand value: 2 |O|^2 (-1) eta^2 / delta * f^2 * (2!/1! - 3!/2!)
    assert rabi_effective(2, 1, p2) == pytest.approx(0.010266793145223376, rel=1e-13)


def test_rabi_effective_ignores_drive_phases():
    rng = np.random.default_rng(7)
    for _ in range(5):
        phase = rng.uniform(-np.pi, np.pi)
        base = BichromaticParams.symmetric(k=2, delta=0.05, omega=0.02, modes=ModeParams(eta=0.2))
        rot = BichromaticParams.symmetric(
            k=2, delta=0.05, omega=0.02 * np.exp(1j * phase), phi=rng.uniform(-3, 3), modes=ModeParams(eta=0.2)
        )
        assert rabi_effective(3, 2, rot) == pytest.approx(rabi_effective(3, 2, base), rel=1e-13)


@pytest.mark.parametrize("eta", [0.02, 0.23, 1.0, 2.0])
@pytest.mark.parametrize("k", range(7))
def test_grids_equal_per_cell_formulas(eta, k):
    # the grid builders are one array expression each; they must reproduce the
    # per-cell reference functions bit for bit, up to the largest CLI grid
    modes = ModeParams(eta=eta)
    p = BichromaticParams.symmetric(k=k, delta=0.03, omega=0.02, modes=modes)
    for n_max_c, n_max_r in [(0, 0), (1, 3), (7, 2), (40, 40)]:
        cells = [(n_c, n_r) for n_c in range(n_max_c + 1) for n_r in range(n_max_r + 1)]
        shape = (n_max_c + 1, n_max_r + 1)
        f_cells = np.array([coupling_f(n_c, n_r, k, modes) for n_c, n_r in cells]).reshape(shape)
        w_cells = np.array([rabi_effective(n_c, n_r, p) for n_c, n_r in cells]).reshape(shape)
        assert np.array_equal(coupling_f_grid(n_max_c, n_max_r, k, modes), f_cells)
        assert np.array_equal(rabi_spectrum(p, n_max_c, n_max_r), w_cells)
        if n_max_c < 40:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AdiabaticityWarning)
                h = build_effective_H(p, HilbertConfig(n_max_c=n_max_c, n_max_r=n_max_r))
            # the |dd> block is (-1)^k diag(Omega^k); the sign flip is exact
            assert np.array_equal((-1.0) ** k * np.diag(h)[: len(cells)].real, w_cells.ravel())


def test_rabi_spectrum_k0_vanishes():
    p = BichromaticParams.symmetric(k=0, delta=0.05, omega=0.02, modes=ModeParams(eta=0.2))
    assert np.all(rabi_spectrum(p, 6, 3) == 0.0)


def test_rabi_spectrum_min_relative_gap_positive():
    p = BichromaticParams.symmetric(k=1, delta=0.02, omega=0.05, modes=ModeParams(eta=0.23))
    gap = min_gaps(np.abs(rabi_spectrum(p, 5, 2)))[1]
    assert 0.0 < gap < 1.0


def test_effective_evolution_matches_closed_form():
    # pure math check of the generator vs its closed form, so regime
    # warnings (detuning size, adiabaticity) are expected and silenced
    config = HilbertConfig(n_max_c=5, n_max_r=3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(1, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = BichromaticParams.symmetric(
                k=k,
                delta=float(rng.uniform(0.5, 1.5)) * (1 if rng.random() < 0.5 else -1),
                omega=float(rng.uniform(0.01, 0.05)) * np.exp(1j * rng.uniform(-np.pi, np.pi)),
                phi=float(rng.uniform(-np.pi, np.pi)),
                phi0=float(rng.uniform(-np.pi, np.pi)),
                modes=ModeParams(eta=float(rng.uniform(0.05, 0.3))),
            )
            h = build_effective_H(p, config)
        n_c = int(rng.integers(0, config.n_max_c + 1))
        n_r = int(rng.integers(0, config.n_max_r + 1))
        t = float(rng.uniform(0, 3.0) / max(abs(rabi_effective(n_c, n_r, p)), 1e-6))
        out = HermitianPropagator(h).apply(basis_state(config, "dd", n_c, n_r), t)
        a_dd, a_uu = closed_form_dispersive(n_c, n_r, p, t)
        tensor = out.tensor()
        assert abs(tensor[0, n_c, n_r] - a_dd) < 1e-12
        assert abs(tensor[3, n_c, n_r] - a_uu) < 1e-12
        # nothing leaves the {dd, uu} pair at this vibrational level
        mask = np.zeros_like(tensor, dtype=bool)
        mask[0, n_c, n_r] = mask[3, n_c, n_r] = True
        assert np.abs(tensor[~mask]).max() < 1e-12


def test_effective_H_detuning_warning():
    # the builder warns nothing at a marginal detuning: the premise is resonance_guard's, which the runs warn
    config = HilbertConfig(n_max_c=4, n_max_r=1)
    p = BichromaticParams.symmetric(k=1, delta=0.004, omega=0.02, modes=ModeParams(eta=0.1))
    assert resonance_guard(p, config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_effective_H(p, config)
        effective_factors(p, config)


def test_effective_H_rejects_asymmetric_drive():
    config = HilbertConfig(n_max_c=2, n_max_r=1)
    p = BichromaticParams(k=1, k_prime=2, delta=0.1, delta_prime=0.1, omega=0.01, phi=0.0, phi0=0.0, modes=ModeParams(eta=0.1))
    with pytest.raises(ValueError):
        build_effective_H(p, config)


def test_carrier_evolution_matches_closed_form():
    config = HilbertConfig(n_max_c=4, n_max_r=2)
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = CarrierParams(
            omega=float(rng.uniform(0.02, 0.3)) * np.exp(1j * rng.uniform(-np.pi, np.pi)),
            varphi=float(rng.uniform(-np.pi, np.pi)),
            varphi0=float(rng.uniform(-np.pi, np.pi)),
            modes=ModeParams(eta=float(rng.uniform(0.05, 0.3))),
        )
        sign = 1 if rng.random() < 0.5 else -1
        n_c = int(rng.integers(0, config.n_max_c + 1))
        n_r = int(rng.integers(0, config.n_max_r + 1))
        t0 = float(rng.uniform(0, 40.0))
        out = HermitianPropagator(build_carrier_H(p, config)).apply(bell_dd_uu(config, sign, n_c, n_r), t0)
        want = closed_form_carrier(sign, p, n_c, n_r, t0)
        assert np.abs(out.tensor()[:, n_c, n_r] - want).max() < 1e-12
        assert abs(np.linalg.norm(want) - 1.0) < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2])
def test_factored_propagator_matches_dense_generators(k):
    # the factored path against the dense kron generators it replaces
    rng = np.random.default_rng(31 + k)
    for n_max_c, n_max_r in ((5, 2), (1, 4), (3, 0)):
        config = HilbertConfig(n_max_c=n_max_c, n_max_r=n_max_r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = BichromaticParams.symmetric(
                k=k,
                delta=float(rng.uniform(0.02, 1.5)) * (1 if rng.random() < 0.5 else -1),
                omega=float(rng.uniform(0.01, 0.3)) * np.exp(1j * rng.uniform(-np.pi, np.pi)),
                phi=float(rng.uniform(-np.pi, np.pi)),
                phi0=float(rng.uniform(-np.pi, np.pi)),
                modes=ModeParams(eta=float(rng.uniform(0.05, 0.3))),
            )
            effective = (effective_factors(p, config), build_effective_H(p, config))
        pc = CarrierParams(
            omega=float(rng.uniform(0.02, 0.3)) * np.exp(1j * rng.uniform(-np.pi, np.pi)),
            varphi=float(rng.uniform(-np.pi, np.pi)),
            varphi0=float(rng.uniform(-np.pi, np.pi)),
            modes=p.modes,
        )
        carrier = (carrier_factors(pc, config), build_carrier_H(pc, config))
        amps = rng.normal(size=config.dim) + 1j * rng.normal(size=config.dim)
        psi0 = JointState(amps=amps / np.linalg.norm(amps), config=config)
        for (m4, a), h in (effective, carrier):
            prop = FactoredPropagator(m4, a)
            scale = max(float(np.abs(a).max()), 1e-6)
            for t in np.array([-2.3, 0.7, 2.9]) / scale:
                out = prop.apply(psi0, float(t))
                assert np.abs(out.amps - HermitianPropagator(h).apply(psi0, float(t)).amps).max() < 1e-12
                assert abs(out.norm() - 1.0) < 1e-12


def test_factored_propagator_rejects_nonhermitian():
    config = HilbertConfig(n_max_c=1, n_max_r=0)
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        FactoredPropagator(bad, np.ones(config.dim_vib))
    with pytest.raises(ValueError):
        FactoredPropagator(np.eye(4), np.array([1.0, 1.0 + 1e-3j]))
    # the same relative rule as HermitianPropagator: a rounding-size defect passes
    near = np.eye(4, dtype=complex)
    near[0, 1] = 1e-12
    out = FactoredPropagator(near, np.ones(config.dim_vib)).apply(basis_state(config, "dd", 0, 0), 1.0)
    assert abs(out.norm() - 1.0) < 1e-12


def test_carrier_eigenvalues_on_single_level():
    # one vibrational level: the 4x4 carrier block has eigenvalues 0, 0, +/- 2|omega| f_0
    config = HilbertConfig(n_max_c=0, n_max_r=0)
    p = CarrierParams(omega=0.07, varphi=0.3, varphi0=1.1, modes=ModeParams(eta=0.1))
    evals = np.linalg.eigvalsh(build_carrier_H(p, config))
    f0 = coupling_f(0, 0, 0, p.modes)
    want = np.sort([-2 * 0.07 * f0, 0.0, 0.0, 2 * 0.07 * f0])
    assert np.abs(evals - want).max() < 1e-12


def test_bichromatic_H_hermitian_and_stretch_conserving():
    config = HilbertConfig(n_max_c=3, n_max_r=2)
    n_r = np.kron(np.eye(4 * config.dim_c), np.diag(np.arange(float(config.dim_r))))  # stretch number operator
    p = BichromaticParams(
        k=1, k_prime=2, delta=0.07, delta_prime=0.05, omega=0.03 * np.exp(0.4j),
        phi=0.2, phi0=0.9, modes=ModeParams(eta=0.17),
    )
    for t in (0.0, 1.3, -2.7):
        h = build_bichromatic_H(t, p, config)
        assert np.abs(h - h.conj().T).max() < 1e-15
        # no stretch-mode ladder operators anywhere in the drive
        assert np.abs(h @ n_r - n_r @ h).max() < 1e-15


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("k_prime", [0, 1, 2])
def test_bichromatic_H_matches_operator_algebra(k, k_prime):
    config = HilbertConfig(n_max_c=4, n_max_r=3)
    p = BichromaticParams(
        k=k, k_prime=k_prime, delta=0.07, delta_prime=-0.04, omega=0.05 * np.exp(-1.2j),
        phi=0.6, phi0=-1.1, modes=ModeParams(eta=0.2, eta_r=0.3),
    )
    # the engine's blocks, assembled into H(t), equal the oracle's operator-algebra H(t)
    m1, m2, s = _drive_blocks(p, config)
    for t in (2.3, -7.9):
        h = m1 * np.exp(1j * p.delta * t) + m2 * np.exp(-1j * p.delta_prime * t)
        assert np.abs(np.kron(h + h.conj().T, np.diag(s)) - build_bichromatic_H(t, p, config)).max() < 1e-14


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sector_build_forms_no_joint_space_matrix():
    # grid (20, 20) is dim 1764: one dense joint-space matrix alone is 50 MB
    config = HilbertConfig(n_max_c=20, n_max_r=20)
    p = BichromaticParams.symmetric(k=1, delta=0.06, omega=0.03, modes=ModeParams(eta=0.1))
    assert _traced_peak(lambda: BichromaticAction(p, config)) < 8e6


@pytest.mark.parametrize(
    "build",
    [
        lambda: BichromaticParams(k=1, k_prime=1, delta=0.05, delta_prime=0.05, omega=0.02, phi=0.0, phi0=0.0),
        lambda: BichromaticParams.symmetric(k=1, delta=0.05, omega=0.02),
        lambda: CarrierParams(omega=0.02, varphi=0.0, varphi0=0.0),
    ],
    ids=["bichromatic", "symmetric", "carrier"],
)
def test_drive_records_require_modes(build):
    with pytest.raises(TypeError, match="'modes'"):
        build()


def test_kernel_constant_drive_matches_eigh():
    # delta = delta' = 0 makes H time independent, so the rotating-frame
    # engine must reproduce the exact eigendecomposition result, t < 0 included.
    config = HilbertConfig(n_max_c=3, n_max_r=1)
    p = BichromaticParams(
        k=1, k_prime=1, delta=0.0, delta_prime=0.0, omega=0.04 * np.exp(1.1j),
        phi=-0.3, phi0=0.6, modes=ModeParams(eta=0.2),
    )
    psi0 = bell_dd_uu(config, +1, n_c=1, n_r=1)
    h = build_bichromatic_H(0.0, p, config)
    for t in (37.0, -24.0):
        exact = HermitianPropagator(h).apply(psi0, t)
        out = propagate_bichromatic(p, config, psi0, t)
        assert np.abs(out.amps - exact.amps).max() < 1e-10
        assert abs(out.norm() - 1.0) < 1e-12


def _oracle(p, config, psi0, t, dt):
    return propagate_timedep(lambda s: build_bichromatic_H(s, p, config), psi0, t, dt_max=dt)


def test_kernel_matches_dense_generic_integrator():
    # the dense midpoint oracle converges on the exact engine at second order
    config = HilbertConfig(n_max_c=3, n_max_r=1)
    p = BichromaticParams.symmetric(
        k=1, delta=0.07, omega=0.03, phi=0.4, phi0=0.9, modes=ModeParams(eta=0.17)
    )
    psi0 = basis_state(config, "dd", 0, 0)
    t = 40.0
    exact = propagate_bichromatic(p, config, psi0, t)
    err = {dt: np.abs(exact.amps - _oracle(p, config, psi0, t, dt).amps).max() for dt in (0.02, 0.01)}
    assert 3.9 <= err[0.02] / err[0.01] <= 4.1
    assert err[0.01] < 1e-8
    assert abs(exact.norm() - 1.0) < 1e-12


def test_engine_matches_oracle_on_asymmetric_drive():
    # different sideband orders and detunings on the two tones, complex omega
    config = HilbertConfig(n_max_c=4, n_max_r=2)
    p = BichromaticParams(
        k=2, k_prime=1, delta=0.11, delta_prime=0.06, omega=0.05 * np.exp(0.7j),
        phi=0.1, phi0=-0.4, modes=ModeParams(eta=0.21),
    )
    psi0 = bell_dd_uu(config, -1, n_c=2, n_r=1)
    out = propagate_bichromatic(p, config, psi0, 25.0)
    ref = _oracle(p, config, psi0, 25.0, 0.025)
    assert np.abs(out.amps - ref.amps).max() < 1e-7
    assert abs(out.norm() - 1.0) < 1e-12


def test_propagate_bichromatic_rejects_two_carrier_tones():
    # k = k' = 0 has no static frame in general, and no engine steps the drive in time
    config = HilbertConfig(n_max_c=2, n_max_r=0)
    p = BichromaticParams(
        k=0, k_prime=0, delta=0.05, delta_prime=0.02, omega=0.02, phi=0.0, phi0=0.0, modes=ModeParams(eta=0.1),
    )
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"two carrier tones \(k = k' = 0\) have no static frame"):
            propagate_bichromatic(p, config, basis_state(config, "dd", 0, 0), t)


@pytest.mark.parametrize("dt_max", [0.0, -0.05])
@pytest.mark.parametrize("k", [0, 1])
def test_propagate_bichromatic_rejects_nonpositive_step(k, dt_max):
    # propagate_bichromatic takes no step; its stepped reference, the dense
    # oracle, is the one bichromatic propagation that does, and it needs dt_max > 0
    config = HilbertConfig(n_max_c=2, n_max_r=0)
    p = BichromaticParams.symmetric(k=k, delta=0.05, omega=0.02, modes=ModeParams(eta=0.1))
    with pytest.raises(ValueError, match="dt_max must be positive"):
        _oracle(p, config, basis_state(config, "dd", 0, 0), 1.0, dt_max)


def test_dispersive_leakage_stays_perturbative():
    # far-detuned drive: intermediate |du>, |ud> populations stay at the
    # (coupling / delta)^2 scale instead of order one
    config = HilbertConfig(n_max_c=4, n_max_r=0)
    modes = ModeParams(eta=0.1)
    omega, delta = 0.02, 0.04
    p = BichromaticParams.symmetric(k=1, delta=delta, omega=omega, modes=modes)
    g = modes.eta * omega * coupling_f(0, 0, 1, modes)
    quarter = np.pi / (4 * abs(rabi_effective(0, 0, p)))
    out = propagate_bichromatic(p, config, basis_state(config, "dd", 0, 0), quarter / 4)
    pops = out.tensor()
    leak = float(np.abs(pops[1]).max() ** 2 + np.abs(pops[2]).max() ** 2)
    assert leak < 20.0 * (g / delta) ** 2
    assert leak > 0.0


def test_hermitian_propagator_rejects_nonhermitian():
    config = HilbertConfig(n_max_c=1, n_max_r=0)
    bad = np.zeros((config.dim, config.dim), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        HermitianPropagator(bad)


_BICHROMATIC = dict(k=1, k_prime=1, delta=0.05, delta_prime=0.05, omega=0.02, phi=0.0, phi0=0.0)
_CARRIER = dict(omega=0.02, varphi=0.0, varphi0=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "record, fields, name",
    [(BichromaticParams, _BICHROMATIC, name) for name in ("delta", "delta_prime", "omega", "phi", "phi0")]
    + [(CarrierParams, _CARRIER, name) for name in ("omega", "varphi", "varphi0")],
)
def test_drive_records_reject_non_finite_fields(record, fields, name, bad):
    # a non-finite field is named, not blamed on delta or left to fail inside eigh
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        record(**{**fields, name: bad, "modes": ModeParams(eta=0.1)})
    if name == "omega":  # complex: a non-finite imaginary part alone is caught too
        with pytest.raises(ValueError, match=r"^omega must be finite"):
            record(**{**fields, "omega": complex(0.02, bad), "modes": ModeParams(eta=0.1)})


def test_rotating_wave_warning():
    with pytest.warns(RotatingWaveWarning):
        BichromaticParams.symmetric(k=1, delta=0.3, omega=0.01, modes=ModeParams(eta=0.1))


MARGINAL = dict(k=1, delta=0.004, omega=0.05, modes=ModeParams(eta=0.1))


def _marginal_psi(engine):
    p = BichromaticParams.symmetric(**MARGINAL)
    pc = CarrierParams(omega=0.03, varphi=carrier_phase_for(1, p), varphi0=0.0, modes=p.modes)
    return make_psi(1, p, pc, HilbertConfig(4, 1), engine=engine)


@pytest.mark.parametrize(
    "category, call",
    [
        (RotatingWaveWarning, lambda: BichromaticParams.symmetric(k=1, delta=0.3, omega=0.01, modes=ModeParams(eta=0.1))),
        (AdiabaticityWarning, lambda: make_phi(1, BichromaticParams.symmetric(**MARGINAL), HilbertConfig(4, 1))),
        (AdiabaticityWarning, lambda: make_phi(1, BichromaticParams.symmetric(**MARGINAL), HilbertConfig(4, 1), engine="exact")),
        (AdiabaticityWarning, lambda: _marginal_psi("effective")),
        (AdiabaticityWarning, lambda: _marginal_psi("exact")),
        (TruncationWarning, lambda: make_vib_state(StateSpec.coherent(0.9, 0.1), HilbertConfig(4, 2))),
        (TruncationWarning, lambda: make_vib_vector(StateSpec.coherent(0.9, 0.1), HilbertConfig(4, 2))),
        (TruncationWarning, lambda: wigner_direct(make_vib_state(StateSpec.fock(0, 0), HilbertConfig(4, 2)), 1.5, 0.0)),
    ],
    ids=["rotating-wave", "make_phi-effective", "make_phi-exact", "make_psi-effective", "make_psi-exact", "make_vib_state", "make_vib_vector", "wigner_direct"],
)
def test_warnings_name_the_callers_line(category, call):
    # the package's own frames, dataclass __init__ included, are skipped
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    ours = [w for w in caught if w.category is category]
    assert ours and all(w.filename == __file__ for w in ours)


def test_resonance_guard_messages():
    modes = ModeParams(eta=0.1)
    box = HilbertConfig(n_max_c=4, n_max_r=1)
    clean = BichromaticParams.symmetric(k=1, delta=0.05, omega=0.001, modes=modes)
    assert resonance_guard(clean, box) == []

    marginal = BichromaticParams.symmetric(k=1, delta=0.002, omega=0.02, modes=modes)
    msgs = resonance_guard(marginal, box)
    assert len(msgs) == 1 and "marginal" in msgs[0]

    # k = 2 with delta placed right on the m = 1 stretch combination line
    hit_delta = 2.0 - np.sqrt(3.0)
    with pytest.warns(RotatingWaveWarning):
        hot = BichromaticParams.symmetric(k=2, delta=hit_delta, omega=0.05, modes=ModeParams(eta=0.2))
    msgs = resonance_guard(hot, box)
    assert any("combination line" in m for m in msgs)

    # with eta_r = 2 the stretch factor |L_1(4)| = 3 lifts the coupling at n_r = 1 to 3 g_00:
    # |delta| = 20 g_00 clears a (0, 0) rule but is marginal in a box that holds n_r = 1
    modes = ModeParams(eta=0.1, eta_r=2.0)
    g00 = 0.1 * 0.02 * abs(coupling_f(0, 0, 1, modes))
    p = BichromaticParams.symmetric(k=1, delta=20.0 * g00, omega=0.02, modes=modes)
    assert resonance_guard(p, HilbertConfig(n_max_c=4, n_max_r=0)) == []
    msgs = resonance_guard(p, HilbertConfig(n_max_c=4, n_max_r=1))
    assert len(msgs) == 1 and msgs[0].startswith("dispersive regime marginal")


@pytest.mark.parametrize("delta", [0.0, 5e-324])
def test_resonance_guard_without_a_finite_rate(delta):
    # a symmetric k = 2 drive at delta = 0, or at a delta whose rate overflows, has no
    # dispersive rate: the co-resonance tolerance falls back to the coupling, and nothing raises
    p = BichromaticParams.symmetric(k=2, delta=delta, omega=0.02, modes=ModeParams(eta=0.1))
    with pytest.raises(ValueError):
        rabi_effective(0, 0, p)
    msgs = resonance_guard(p, HilbertConfig(n_max_c=6, n_max_r=1))
    assert [m.split(":")[0] for m in msgs] == ["dispersive regime marginal"]


def test_lamb_dicke_flattening_of_coupling():
    # halving eta shrinks the spread of f_k across Fock levels by ~eta^2
    for k in (0, 1):
        spreads = []
        for eta in (0.2, 0.1):
            grid = coupling_f_grid(5, 3, k, ModeParams(eta=eta))
            spreads.append(float(grid.max() - grid.min()))
        assert spreads[1] <= 0.3 * spreads[0]
