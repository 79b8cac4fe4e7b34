import tracemalloc
import warnings
from math import comb, factorial, inf, nan

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import eval_genlaguerre

from vibronic.fockspace import (
    HilbertConfig,
    ModeParams,
    StateSpec,
    TruncationWarning,
    VibDensity,
    basis_state,
    coupling_f,
    coupling_f_grid,
    destroy,
    displacement,
    fidelity,
    laguerre,
    laguerre_seq,
    make_vib_state,
    make_vib_vector,
    reduce_electronic,
    reduce_vibrational,
    thermal_weights,
    truncation_guard,
)


def lag_series(n, k, x):
    # independent oracle: finite series sum for L_n^k(x)
    return sum((-1) ** i * comb(n + k, n - i) * x**i / factorial(i) for i in range(n + 1))


def test_laguerre_frozen_value():
    # series oracle at n=2, k=1, x = 0.23^2
    assert laguerre(2, 1, 0.0529) == pytest.approx(2.8426992049999997, abs=1e-12)


def test_laguerre_against_series_oracle():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(0, 30))
        k = int(rng.integers(0, 4))
        x = float(rng.uniform(0.0, 1.5))
        ref = lag_series(n, k, x)
        # the series oracle itself cancels ~5 digits at n ~ 30; the
        # recurrence is the stable route, so compare loosely
        assert laguerre(n, k, x) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_laguerre_against_scipy():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(0, 40))
        k = int(rng.integers(0, 5))
        x = float(rng.uniform(0.0, 2.0))
        assert laguerre(n, k, x) == pytest.approx(
            float(eval_genlaguerre(n, k, x)), rel=1e-10, abs=1e-10
        )


def test_laguerre_seq_matches_scalar():
    seq = laguerre_seq(25, 2, 0.0529)
    for n in range(26):
        assert seq[n] == laguerre(n, 2, 0.0529)


def test_laguerre_rejects_negative():
    with pytest.raises(ValueError):
        laguerre(-1, 0, 0.1)
    with pytest.raises(ValueError):
        laguerre(2, -1, 0.1)


def test_mode_params_stretch_default():
    m = ModeParams(eta=0.23)
    assert m.eta_r == pytest.approx(0.23 * 3 ** (-0.25), abs=1e-15)
    assert m.nu == 1.0
    m2 = ModeParams(eta=0.1, eta_r=0.05)
    assert m2.eta_r == 0.05


def test_mode_params_validation():
    with pytest.raises(ValueError):
        ModeParams(eta=-0.1)
    with pytest.raises(ValueError):
        ModeParams(eta=0.1, nu=0.0)


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"eta": nan}, "eta"),
        ({"eta": inf}, "eta"),
        ({"eta": 0.1, "eta_r": nan}, "eta_r"),
        ({"eta": 0.1, "eta_r": inf}, "eta_r"),
        ({"eta": 0.1, "nu": nan}, "nu"),
        ({"eta": 0.1, "nu": inf}, "nu"),
    ],
)
def test_mode_params_reject_non_finite_fields(fields, name):
    # nan slips past every `<= 0` test, and a derived eta_r must not take the blame for eta
    with pytest.raises(ValueError, match=rf"^{name} must be a finite number"):
        ModeParams(**fields)


def test_coupling_frozen_value():
    # independent series-sum oracle:
    # exp(-(eta^2+eta_r^2)/2) * 2!/3! * L_2^1(eta^2) * L_1^0(eta_r^2)
    m = ModeParams(eta=0.23)
    assert coupling_f(2, 1, 1, m) == pytest.approx(0.881088566502069, abs=1e-14)


def test_coupling_k0_is_debye_waller_times_laguerres():
    m = ModeParams(eta=0.1)
    env = np.exp(-(m.eta**2 + m.eta_r**2) / 2)
    assert coupling_f(0, 0, 0, m) == pytest.approx(env, abs=1e-15)
    assert coupling_f(0, 0, 0, m) == pytest.approx(0.992144267477965, abs=1e-14)
    # k=0 keeps the plain product of both zeroth-order Laguerre factors
    assert coupling_f(3, 2, 0, m) == pytest.approx(
        env * lag_series(3, 0, m.eta**2) * lag_series(2, 0, m.eta_r**2), rel=1e-12
    )


def test_coupling_large_n_no_overflow():
    # factorial ratio as running product must survive n ~ 150
    m = ModeParams(eta=0.1)
    val = coupling_f(150, 0, 2, m)
    assert np.isfinite(val)


def test_coupling_grid_matches_scalar():
    m = ModeParams(eta=0.23)
    g = coupling_f_grid(5, 4, 1, m)
    assert g.shape == (6, 5)
    for n_c in range(6):
        for n_r in range(5):
            assert g[n_c, n_r] == coupling_f(n_c, n_r, 1, m)


def test_joint_index_ordering():
    # electronic slowest, then n_c, then n_r fastest
    cfg = HilbertConfig(n_max_c=2, n_max_r=1)
    assert cfg.dim == 4 * 3 * 2
    assert cfg.joint_index("dd", 0, 0) == 0
    assert cfg.joint_index("dd", 0, 1) == 1
    assert cfg.joint_index("dd", 1, 0) == 2
    assert cfg.joint_index("du", 0, 0) == cfg.dim_vib
    assert cfg.joint_index("ud", 0, 0) == 2 * cfg.dim_vib
    assert cfg.joint_index("uu", 2, 1) == cfg.dim - 1
    with pytest.raises(ValueError):
        cfg.joint_index("dd", 3, 0)
    with pytest.raises(ValueError):
        cfg.joint_index("xx", 0, 0)


def test_ladder_commutator_truncation_defect():
    for dim in (6, 4):
        a = destroy(dim)
        a_dag = a.conj().T
        # [a, a^dag] is the identity except for -n_max in the top level
        expected = np.diag([1.0] * (dim - 1) + [-(dim - 1.0)])
        assert np.max(np.abs(a @ a_dag - a_dag @ a - expected)) < 1e-12
        # number operator consistent with a^dag a
        assert np.max(np.abs(a_dag @ a - np.diag(np.arange(float(dim))))) < 1e-12


def disp_element(m, n, alpha):
    # analytic matrix-element oracle in terms of Laguerre polynomials;
    # the m < n block follows from D(alpha)^dag = D(-alpha)
    if m < n:
        return np.conj(disp_element(n, m, -alpha))
    return (
        np.sqrt(factorial(n) / factorial(m))
        * alpha ** (m - n)
        * np.exp(-abs(alpha) ** 2 / 2)
        * lag_series(n, m - n, abs(alpha) ** 2)
    )


def test_displacement_vacuum_amplitude():
    cfg = HilbertConfig(n_max_c=20, n_max_r=20)
    for alpha in (0.3, 0.7 - 0.2j, 1.0):
        d = displacement(alpha, "c", cfg)
        assert abs(d[0, 0] - np.exp(-abs(alpha) ** 2 / 2)) < 1e-10
    d = displacement(1.0, "r", cfg)
    assert abs(d[0, 0] - 0.6065306597126334) < 1e-10


def test_displacement_matrix_elements_against_analytic_oracle():
    cfg = HilbertConfig(n_max_c=30, n_max_r=0)
    rng = np.random.default_rng(21)
    for _ in range(5):
        alpha = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        d = displacement(alpha, "c", cfg)
        # far from the cutoff the truncated exponential reproduces the
        # analytic elements
        for m in range(8):
            for n in range(8):
                assert abs(d[m, n] - disp_element(m, n, alpha)) < 1e-9


def test_displacement_unitary_and_inverse():
    cfg = HilbertConfig(n_max_c=20, n_max_r=5)
    d = displacement(0.8 + 0.1j, "c", cfg)
    assert np.max(np.abs(d @ d.conj().T - np.eye(cfg.dim_c))) < 1e-12
    dm = displacement(-(0.8 + 0.1j), "c", cfg)
    assert np.max(np.abs(d @ dm - np.eye(cfg.dim_c))) < 1e-9


@pytest.mark.parametrize("dim", [1, 2, 5, 21])
def test_displacement_equals_expm_on_whole_grid(dim):
    # the phase-rotated cached eigenbasis against scipy's expm of the
    # truncated generator, every entry up to and including the cutoff
    cfg = HilbertConfig(n_max_c=dim - 1, n_max_r=0)
    a = destroy(dim)
    for alpha in (0.0, 0.7 + 0.4j, -0.3 + 1.1j, -0.9 - 0.2j, 0.5 - 0.8j, 1.3, -0.6j):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            d = displacement(alpha, "c", cfg)
        want = expm(alpha * a.T - np.conj(alpha) * a)
        assert np.abs(d - want).max() < 1e-12
        assert np.abs(d @ d.conj().T - np.eye(dim)).max() < 1e-12


def test_displacement_truncation_warning():
    cfg = HilbertConfig(n_max_c=4, n_max_r=4)
    with pytest.warns(TruncationWarning):
        displacement(1.5, "c", cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        displacement(0.2, "c", cfg)  # |alpha|^2 = 0.04 < 1: silent


STACK_ALPHAS = (0.0, 0.7 + 0.4j, -0.3 + 1.1j, -0.9 - 0.2j, 0.5 - 0.8j, 1.3, -0.6j, 2.5 + 0.1j)


@pytest.mark.parametrize("dim", [1, 2, 5, 21])
@pytest.mark.parametrize("mode", ["c", "r"])
def test_stacked_displacement_equals_per_alpha_calls(dim, mode):
    # alpha = 0, all four quadrants, both axes; the large ones warn on small grids
    cfg = HilbertConfig(n_max_c=dim - 1, n_max_r=dim - 1)
    with warnings.catch_warnings(record=True) as per_alpha:
        warnings.simplefilter("always")
        singles = [displacement(alpha, mode, cfg) for alpha in STACK_ALPHAS]
    with warnings.catch_warnings(record=True) as stacked:
        warnings.simplefilter("always")
        stack = displacement(np.array(STACK_ALPHAS), mode, cfg)
    assert stack.shape == (len(STACK_ALPHAS), dim, dim)
    for single, entry in zip(singles, stack):
        assert single.shape == (dim, dim)
        assert np.array_equal(single, entry)
    assert [str(w.message) for w in stacked] == [str(w.message) for w in per_alpha]
    assert all(w.category is TruncationWarning for w in stacked)
    assert len(stacked) >= 1
    assert displacement(np.array([], complex), mode, cfg).shape == (0, dim, dim)


@pytest.mark.parametrize("bad", [float("nan"), complex(0.3, float("nan")), float("inf"), complex(float("-inf"), 0.0)])
def test_displacement_rejects_non_finite_alpha(bad):
    cfg = HilbertConfig(n_max_c=6, n_max_r=2)
    with pytest.raises(ValueError, match="finite"):
        displacement(bad, "c", cfg)
    with pytest.raises(ValueError, match="finite"):
        displacement(np.array([0.2, bad, 0.1j]), "r", cfg)


def test_thermal_weights_geometric():
    w = thermal_weights(0.5, 40)
    # frozen from nbar^n/(nbar+1)^(n+1); renormalization on 40 levels is ~1e-8
    ref = np.array(
        [0.6666666666666666, 0.2222222222222222, 0.07407407407407407,
         0.024691358024691357, 0.00823045267489712]
    )
    assert np.allclose(w[:5], ref, rtol=1e-7)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    w0 = thermal_weights(0.0, 7)
    assert w0[0] == 1.0 and w0[1:].max() == 0.0
    with pytest.raises(ValueError):
        thermal_weights(-0.1, 5)


@pytest.mark.parametrize("nbar", [nan, inf])
def test_non_finite_nbar_is_rejected(nbar):
    with pytest.raises(ValueError, match="nbar must be a finite number"):
        thermal_weights(nbar, 4)
    with pytest.raises(ValueError, match="nbar must be a finite number"):
        make_vib_state(StateSpec.thermal(0.1, nbar), HilbertConfig(n_max_c=3, n_max_r=3))


def test_make_vib_state_fock_and_validity():
    cfg = HilbertConfig(n_max_c=6, n_max_r=4)
    rho = make_vib_state(StateSpec.fock(2, 1), cfg)
    pops = rho.populations()
    assert pops[2, 1] == 1.0
    assert pops.sum() == pytest.approx(1.0)
    m = rho.matrix()
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    assert abs(np.trace(m) - 1.0) < 1e-9
    assert np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)) > -1e-10


def test_make_vib_state_thermal_product():
    cfg = HilbertConfig(n_max_c=14, n_max_r=14)
    rho = make_vib_state(StateSpec.thermal(0.5, 0.2), cfg)
    pops = rho.populations()
    assert pops[0, 0] == pytest.approx((2 / 3) * (1 / 1.2), rel=1e-6)
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    m = rho.matrix()
    assert np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)) > -1e-12


def test_make_vib_state_coherent_poisson_populations():
    cfg = HilbertConfig(n_max_c=20, n_max_r=3)
    alpha = 0.8
    rho = make_vib_state(StateSpec.coherent(alpha, 0.0), cfg)
    pops = rho.populations()
    n = np.arange(6)
    poisson = np.exp(-(alpha**2)) * alpha ** (2 * n) / np.array([factorial(i) for i in n])
    assert np.allclose(pops[:6, 0], poisson, atol=1e-9)
    assert np.max(pops[:, 1:]) < 1e-15  # stretch mode stays in vacuum


def test_make_vib_state_superposition():
    cfg = HilbertConfig(n_max_c=6, n_max_r=2)
    rho = make_vib_state(
        StateSpec.superposition([(0, 0, 1.0), (2, 0, 1.0)]), cfg
    )
    pops = rho.populations()
    assert pops[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert pops[2, 0] == pytest.approx(0.5, abs=1e-12)
    # coherence survives
    i00 = cfg.vib_index(0, 0)
    i20 = cfg.vib_index(2, 0)
    assert abs(rho.matrix()[i00, i20]) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        make_vib_state(StateSpec.superposition([(0, 0, 0.0)]), cfg)
    with pytest.raises(ValueError):
        make_vib_state(StateSpec.superposition([(9, 0, 1.0)]), cfg)


@pytest.mark.parametrize("weights", [[1.5, -0.5], [nan, 1.0]], ids=["negative", "nan"])
def test_vib_density_rejects_weights_that_are_not_finite_and_nonnegative(weights):
    # diag(1.5, -0.5) is not positive semidefinite: its Wigner origin would read twice the bound 4/pi^2
    cfg = HilbertConfig(n_max_c=4, n_max_r=2)
    with pytest.raises(ValueError, match="weights must be finite numbers >= 0"):
        VibDensity(np.array(weights), np.eye(cfg.dim_vib, dtype=complex)[:2], cfg)


def test_make_vib_state_memory_is_one_vector():
    # a coherent state is one vector of dim_vib amplitudes, built from one displacement matrix per mode
    # and the cached eigh basis of i(a^dag - a) (two dim x dim matrices per mode): O(dim_vib + dim_c^2 +
    # dim_r^2) complex entries, and a factor 8 covers the temporaries of the displacement formula;
    # a dim_vib x dim_vib density matrix alone would take 45 MB at this grid
    cfg = HilbertConfig(n_max_c=40, n_max_r=40)
    bound = 8 * np.dtype(complex).itemsize * (cfg.dim_vib + cfg.dim_c**2 + cfg.dim_r**2)
    tracemalloc.start()
    try:
        rho = make_vib_state(StateSpec.coherent(0.8, 0.3), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.vectors.shape == (1, cfg.dim_vib)
    assert peak < bound


def test_fidelity_and_mismatch():
    cfg = HilbertConfig(n_max_c=3, n_max_r=2)
    s = basis_state(cfg, "dd", 1, 0)
    t = basis_state(cfg, "dd", 1, 0)
    assert fidelity(s, t) == 1.0
    u = basis_state(cfg, "uu", 1, 0)
    assert fidelity(s, u) == 0.0
    other = basis_state(HilbertConfig(n_max_c=4, n_max_r=2), "dd", 1, 0)
    with pytest.raises(ValueError):
        fidelity(s, other)


def test_partial_traces():
    cfg = HilbertConfig(n_max_c=2, n_max_r=1)
    amps = np.zeros(cfg.dim, complex)
    amps[cfg.joint_index("dd", 0, 0)] = 1 / np.sqrt(2)
    amps[cfg.joint_index("uu", 1, 1)] = 1j / np.sqrt(2)
    from vibronic.fockspace import JointState

    st = JointState(amps, cfg)
    rho_e = reduce_electronic(st)
    assert rho_e[0, 0] == pytest.approx(0.5)
    assert rho_e[3, 3] == pytest.approx(0.5)
    assert abs(rho_e[0, 3]) < 1e-15  # vibrational parts orthogonal -> no coherence
    rho_v = reduce_vibrational(st)
    assert rho_v.trace() == pytest.approx(1.0)
    pops = rho_v.populations()
    assert pops[0, 0] == pytest.approx(0.5)
    assert pops[1, 1] == pytest.approx(0.5)


def test_truncation_guard():
    cfg = HilbertConfig(n_max_c=6, n_max_r=6)
    with pytest.warns(TruncationWarning):
        make_vib_state(StateSpec.fock(6, 0), cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = make_vib_state(StateSpec.fock(1, 0), cfg)
    assert truncation_guard(rho) < 1e-12


def test_make_vib_vector_matches_density():
    cfg = HilbertConfig(n_max_c=8, n_max_r=7)
    for spec in (
        StateSpec.fock(2, 1),
        StateSpec.coherent(0.5, -0.3j),
        StateSpec.superposition([(0, 0, 1.0), (2, 0, 1.0j)]),
    ):
        vec = make_vib_vector(spec, cfg)
        rho = make_vib_state(spec, cfg)
        assert np.abs(np.outer(vec, vec.conj()) - rho.matrix()).max() < 1e-12
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_make_vib_vector_phase_and_guard():
    cfg = HilbertConfig(n_max_c=8, n_max_r=7)
    vec = make_vib_vector(StateSpec.superposition([(0, 0, 0.6j), (2, 1, -0.8j)]), cfg)
    dominant = vec[cfg.vib_index(2, 1)]
    assert dominant.imag == 0.0 and dominant.real == pytest.approx(0.8, abs=1e-15)
    assert vec[0] == pytest.approx(-0.6, abs=1e-15)
    with pytest.warns(TruncationWarning):
        make_vib_vector(StateSpec.fock(8, 0), cfg)
    with pytest.warns(TruncationWarning):
        make_vib_vector(StateSpec.coherent(0.0, 1.6), cfg)


def test_make_vib_vector_rejects_thermal():
    cfg = HilbertConfig(n_max_c=4, n_max_r=3)
    with pytest.raises(ValueError):
        make_vib_vector(StateSpec.thermal(0.2, 0.1), cfg)
