"""Property tests: propagate_bichromatic against the dense oracle on random
drives, norm conservation of every propagator, the config parser on fuzzed
text, the SignalRecord text format on random records, and the batched
shot-noise substreams against per-sample SeedSequence draws."""

import struct
import warnings

import numpy as np
import pytest

from vibronic import (
    BichromaticParams,
    CarrierParams,
    FactoredPropagator,
    HermitianPropagator,
    HilbertConfig,
    JointState,
    ModeParams,
    build_bichromatic_H,
    carrier_factors,
    effective_factors,
    propagate_bichromatic,
    propagate_timedep,
)
from vibronic.cli import MODES, ConfigError, parse_config
from vibronic import tomography
from vibronic.tomography import SignalRecord

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

DT = 0.02


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(
    orders=st.sampled_from([(0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]),
    delta=st.floats(-0.2, 0.2),
    delta_prime=st.floats(-0.2, 0.2),
    omega_abs=st.floats(0.0, 0.05),
    omega_arg=st.floats(-np.pi, np.pi),
    phi=st.floats(-np.pi, np.pi),
    phi0=st.floats(-np.pi, np.pi),
    eta=st.floats(0.05, 0.3),
    n_max_c=st.integers(0, 3),
    n_max_r=st.integers(0, 2),
    t=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**16),
)
def test_engine_matches_oracle_on_random_drives(
    orders, delta, delta_prime, omega_abs, omega_arg, phi, phi0, eta, n_max_c, n_max_r, t, seed
):
    # every drive has a sideband tone (k + k' > 0): the engine is exact and
    # the oracle's midpoint error stays below 1e-6
    config = HilbertConfig(n_max_c=n_max_c, n_max_r=n_max_r)
    p = BichromaticParams(
        k=orders[0], k_prime=orders[1], delta=delta, delta_prime=delta_prime,
        omega=omega_abs * np.exp(1j * omega_arg), phi=phi, phi0=phi0, modes=ModeParams(eta=eta),
    )
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=config.dim) + 1j * rng.normal(size=config.dim)
    psi0 = JointState(amps=amps / np.linalg.norm(amps), config=config)
    out = propagate_bichromatic(p, config, psi0, t)
    ref = propagate_timedep(lambda s: build_bichromatic_H(s, p, config), psi0, t, dt_max=DT)
    assert abs(out.norm() - 1.0) < 1e-12
    assert np.abs(out.amps - ref.amps).max() < 1e-6


def _random_state(config, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=config.dim) + 1j * rng.normal(size=config.dim)
    return JointState(amps=amps / np.linalg.norm(amps), config=config)


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(
    orders=st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2)]),
    delta=st.floats(-0.2, 0.2),
    delta_prime=st.floats(-0.2, 0.2),
    omega_abs=st.floats(0.0, 0.05),
    omega_arg=st.floats(-np.pi, np.pi),
    phi=st.floats(-np.pi, np.pi),
    phi0=st.floats(-np.pi, np.pi),
    eta=st.floats(0.05, 0.3),
    n_max_c=st.integers(0, 4),
    n_max_r=st.integers(1, 3),
    t=st.floats(-20.0, 20.0),
    seed=st.integers(0, 2**16),
)
def test_every_propagator_conserves_the_norm(
    orders, delta, delta_prime, omega_abs, omega_arg, phi, phi0, eta, n_max_c, n_max_r, t, seed
):
    config = HilbertConfig(n_max_c=n_max_c, n_max_r=n_max_r)
    modes = ModeParams(eta=eta)
    omega = omega_abs * np.exp(1j * omega_arg)
    p = BichromaticParams(
        k=orders[0], k_prime=orders[1], delta=delta, delta_prime=delta_prime,
        omega=omega, phi=phi, phi0=phi0, modes=modes,
    )
    psi0 = _random_state(config, seed)
    outs = [
        HermitianPropagator(build_bichromatic_H(t, p, config)).apply(psi0, t),
        FactoredPropagator(*carrier_factors(CarrierParams(omega=omega, varphi=phi, varphi0=phi0, modes=modes), config)).apply(psi0, t),
    ]
    if sum(orders):  # two carrier tones have no exact engine; the other propagators still run at k = 0
        outs.append(propagate_bichromatic(p, config, psi0, t))
    if delta != 0:
        sym = BichromaticParams.symmetric(k=orders[0], delta=delta, omega=omega, phi=phi, phi0=phi0, modes=modes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a marginal AdiabaticityWarning does not matter to the norm
            try:
                outs.append(FactoredPropagator(*effective_factors(sym, config)).apply(psi0, t))
            except ValueError:  # the dispersive generator overflows only for a subnormal delta
                assert abs(delta) < 1e-300
    for out in outs:
        assert abs(out.norm() - 1.0) < 1e-12


# every key parse_config reads, by section ("" is the top level)
_CONFIG_KEYS = {
    "": ("seed", "threads"),
    "hilbert": ("n_max_c", "n_max_r"),
    "modes": ("eta", "eta_r", "nu"),
    "drive": ("k", "k_prime", "delta", "delta_prime", "omega", "phi", "phi0"),
    "state": ("kind", "n_c", "n_r", "nbar_c", "nbar_r", "alpha_c_re", "alpha_c_im", "alpha_r_re", "alpha_r_im", "terms"),
    "bell": ("sign", "start_sign", "engine", "n_c", "n_r", "dt_max"),
    "carrier": ("omega", "varphi", "varphi0"),
    "tomo": ("shots", "n_fit_c", "n_fit_r", "ridge", "tau_count", "tau_max", "signal_file"),
    "wigner": ("alphas", "alpha_c_line"),
    "evolve": ("t", "samples", "engine", "dt_max"),
}
# a valid config of each mode, and the sections it reads; the fuzz damages
# the config key by key, mostly within those sections
_DRIVE = {
    ("hilbert", "n_max_c"): "6", ("hilbert", "n_max_r"): "3", ("modes", "eta"): "0.1",
    ("drive", "k"): "1", ("drive", "delta"): "0.05", ("drive", "omega"): "0.02",
}
_BASE = ("", "hilbert", "modes", "drive")
_VALID = {
    "spectrum": (_DRIVE, _BASE),
    "evolve": ({**_DRIVE, ("state", "kind"): "fock", ("evolve", "t"): "10"}, _BASE + ("state", "evolve")),
    "bell-phi": (_DRIVE, _BASE + ("bell",)),
    "bell-psi": (_DRIVE, _BASE + ("bell", "carrier")),
    "tomo-synth": ({**_DRIVE, ("state", "kind"): "thermal"}, _BASE + ("state", "tomo")),
    "tomo-invert": ({**_DRIVE, ("state", "kind"): "fock"}, _BASE + ("state", "tomo")),
    "wigner": ({**_DRIVE, ("state", "kind"): "fock", ("wigner", "alpha_c_line"): "0, 0.5, 3"}, _BASE + ("state", "tomo", "wigner")),
    "validate": ({}, ("",)),
}
_TOKENS = (
    "", "+", "-", "nan", "inf", "-inf", "1e400", "0x1f", "1_0", "abc", "exact", "effective",
    "fock", "thermal", "coherent", "superposition", "signal.csv",
) + MODES
# counts stay at most 1e4: a legitimately large count allocates gigabytes
_number = st.one_of(st.integers(-3, 45).map(str), st.integers(-3, 10**4).map(str), st.floats(-2.0, 2.0).map(repr))
_group = st.lists(_number, min_size=1, max_size=5).map(", ".join)
_value = st.one_of(_number, st.sampled_from(_TOKENS), st.lists(_group, min_size=1, max_size=3).map("; ".join))


def _keys(sections):
    return st.sampled_from([(section, key) for section in sections for key in _CONFIG_KEYS[section]])


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(
    mode=st.sampled_from(MODES + ("", "tomo")),
    dropped=st.sets(st.sampled_from(sorted(_DRIVE)), max_size=1),
    stray=st.dictionaries(_keys(_CONFIG_KEYS), _value, max_size=1),
    junk=st.lists(st.text(max_size=12), max_size=1),
    data=st.data(),
)
def test_parse_config_raises_only_config_error(mode, dropped, stray, junk, data):
    valid, sections = _VALID.get(mode, (_DRIVE, _BASE))
    entries = {key: value for key, value in valid.items() if key not in dropped}
    entries.update(data.draw(st.dictionaries(_keys(sections), _value, max_size=3)))
    entries.update(stray)
    lines = [f"mode = {mode}"]
    for section in _CONFIG_KEYS:
        keys = [(key, value) for (sec, key), value in entries.items() if sec == section]
        if keys:
            lines += ([f"[{section}]"] if section else []) + [f"{key} = {value}" for key, value in keys]
    text = "\n".join(lines + junk) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # parameter-regime warnings are not parse errors
        try:
            parse_config(text)
        except ConfigError:
            pass


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


# values that clip to the endpoints 0 and 1, the endpoints themselves, and any probability
_raw_probability = st.one_of(st.sampled_from([0.0, 1.0, -1e-12, 1.0 + 1e-12]), st.floats(0.0, 1.0))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**160 - 1)),
    shots=st.sampled_from([1, 3000, 10**4]),
    raw=st.lists(_raw_probability, min_size=1, max_size=24),
    repeats=st.integers(0, 8),
)
def test_batched_substreams_equal_per_sample_draws(seed, shots, raw, repeats):
    raw = np.array(raw + raw[:repeats])  # repeated probabilities
    n = raw.size
    p = BichromaticParams.symmetric(k=1, delta=0.02, omega=0.05, modes=ModeParams(eta=0.23))
    record = tomography._draw(np.eye(n), raw, np.arange(float(n)), p, shots, seed)
    per_sample = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, j)))).binomial(shots, prob) / shots
        for j, prob in enumerate(np.clip(raw, 0.0, 1.0))
    ]
    assert record.p_dd.tobytes() == np.array(per_sample).tobytes()
