"""Tests for displaced-population tomography and Wigner reconstruction."""

import contextlib
import math
import signal
import tracemalloc
import warnings

import numpy as np
import pytest

import vibronic.tomography as tomography
from vibronic import (
    WIGNER_BOUND,
    BichromaticParams,
    DegeneracyError,
    HilbertConfig,
    JointState,
    ModeParams,
    PopulationEstimate,
    SignalRecord,
    StateSpec,
    WignerPoint,
    build_effective_H,
    condition_report,
    default_tau_grid,
    displace_vib,
    displaced_populations,
    invert_populations,
    make_phi,
    make_vib_state,
    make_vib_vector,
    protocol_run,
    rabi_effective,
    rabi_spectrum,
    reduce_vibrational,
    run_sequence,
    synth_signal,
    wigner_direct,
    wigner_from_populations,
)
from vibronic.dynamics import HermitianPropagator
from vibronic.fockspace import TruncationWarning, VibDensity, basis_state, displacement

MODES = ModeParams(eta=0.23)
DRIVE = BichromaticParams.symmetric(k=1, delta=0.02, omega=0.05, modes=MODES)


def vacuum(n_max_c=12, n_max_r=4):
    return make_vib_state(StateSpec.fock(0, 0), HilbertConfig(n_max_c=n_max_c, n_max_r=n_max_r))


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


def test_record_requires_increasing_taus():
    with pytest.raises(DegeneracyError):
        SignalRecord(taus=np.array([0.0, 1.0, 1.0]), p_dd=np.zeros(3), shots=np.zeros(3, int), params=DRIVE, seed=0)


def test_record_validates_probability_range():
    with pytest.raises(ValueError):
        SignalRecord(taus=np.array([0.0, 1.0]), p_dd=np.array([0.5, 1.2]), shots=np.zeros(2, int), params=DRIVE, seed=0)


@pytest.mark.parametrize("column, value", [(0, "nan"), (0, "inf"), (1, "nan"), (1, "-inf")])
def test_record_rejects_non_finite_samples(column, value):
    text = synth_signal(vacuum(6, 3), np.linspace(0.0, 40.0, 5), DRIVE).to_text()
    lines = text.splitlines()
    cells = lines[-2].split(",")
    cells[column] = value
    lines[-2] = ",".join(cells)
    name = ("taus", "p_dd")[column]
    with pytest.raises(ValueError, match=f"^{name} values must be finite$"):
        SignalRecord.from_text("\n".join(lines))


def test_record_text_round_trip():
    rho = vacuum(6, 3)
    taus = np.linspace(0.0, 40.0, 9)
    rec = synth_signal(rho, taus, DRIVE, shots=200, seed=42)
    back = SignalRecord.from_text(rec.to_text())
    assert np.array_equal(back.taus, rec.taus)
    assert np.array_equal(back.p_dd, rec.p_dd)
    assert np.array_equal(back.shots, rec.shots)
    assert back.seed == 42
    assert back.params.k == DRIVE.k
    assert back.params.delta == DRIVE.delta
    assert back.params.omega == DRIVE.omega
    assert back.params.modes.eta == DRIVE.modes.eta
    assert back.params.modes.eta_r == DRIVE.modes.eta_r


# ---------------------------------------------------------------------------
# displacement
# ---------------------------------------------------------------------------


def test_displace_zero_is_identity():
    rho = make_vib_state(StateSpec.thermal(0.3, 0.1), HilbertConfig(n_max_c=13, n_max_r=8))
    out = displace_vib(rho, 0.0, 0.0)
    assert np.abs(out.matrix() - rho.matrix()).max() < 1e-14


def test_displaced_vacuum_is_poissonian():
    alpha = 0.8
    pops = displace_vib(vacuum(), alpha, 0.0).populations()
    n = np.arange(pops.shape[0])
    want = np.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n) / [math.factorial(i) for i in n]
    assert np.abs(pops[:, 0] - want).max() < 1e-9
    assert np.abs(pops[:, 1:]).max() < 1e-12  # stretch mode untouched


def test_displace_then_inverse_restores_input():
    rho = make_vib_state(StateSpec.superposition([(0, 0, 1.0), (2, 1, 1.0j)]), HilbertConfig(n_max_c=9, n_max_r=6))
    mid = displace_vib(rho, 0.6, -0.3j)
    u = np.kron(displacement(0.6, "c", rho.config), displacement(-0.3j, "r", rho.config))
    assert np.abs(mid.matrix() - u.conj().T @ rho.matrix() @ u).max() < 1e-12  # D^dag rho D, the order the docstring states
    out = displace_vib(mid, -0.6, 0.3j)
    assert np.abs(out.matrix() - rho.matrix()).max() < 1e-8
    assert abs(out.trace() - 1.0) < 1e-8


def _random_density(config, seed):
    """A full-rank random state: dim_vib random unit vectors with positive weights summing to 1."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(config.dim_vib, config.dim_vib)) + 1j * rng.normal(size=(config.dim_vib, config.dim_vib))
    weights = rng.uniform(0.1, 1.0, config.dim_vib)
    return VibDensity(weights / weights.sum(), g / np.linalg.norm(g, axis=1, keepdims=True), config)


def _bell_sequence_density(config):
    """reduce_vibrational after the Phi pulse on |dd> x a superposition: the dd and uu components differ, so it is mixed."""
    top = (min(2, config.n_max_c), min(1, config.n_max_r))
    vib = make_vib_vector(StateSpec.superposition([(0, 0, 1.0), (*top, 0.6 + 0.8j)]), config)
    seq = make_phi(1, DRIVE, config)[2]
    return reduce_vibrational(run_sequence(seq, config, JointState(np.kron([1.0, 0.0, 0.0, 0.0], vib), config)))


def _ensemble_states(config):
    """One state of each constructor's ensemble, and one full-rank random ensemble."""
    top = (min(2, config.n_max_c), min(1, config.n_max_r))
    return {
        "fock": make_vib_state(StateSpec.fock(*top), config),
        "coherent": make_vib_state(StateSpec.coherent(0.3 - 0.2j, 0.1 + 0.2j), config),
        "superposition": make_vib_state(StateSpec.superposition([(0, 0, 1.0), (*top, 0.5 - 1.0j)]), config),
        "thermal, nbar_r = 0": make_vib_state(StateSpec.thermal(0.4, 0.0), config),
        "thermal, nbar_r > 0": make_vib_state(StateSpec.thermal(0.4, 0.2), config),
        "bell sequence": _bell_sequence_density(config),
        "random full rank": _random_density(config, config.n_max_c + config.n_max_r),
    }


@pytest.mark.parametrize("grid", [(9, 3), (3, 9), (12, 0), (0, 5), (6, 6), (30, 10)])
def test_displaced_populations_match_displace_vib(grid):
    config = HilbertConfig(*grid)
    # first-order rounding of a length-n inner product of unit-norm factors is n u = n eps / 2; the dense
    # reference takes a product of length dim_vib per vector, the contraction two of length <= dim_vib,
    # and the weighted sum over up to dim_vib vectors adds O(dim_vib eps); populations are at most 1
    tol = 4 * config.dim_vib * np.finfo(float).eps
    points = [(0.0, 0.0), (0.4 + 0.3j, -0.2 + 0.5j), (-0.7j, 0.3), (-0.5 - 0.1j, -0.4 - 0.4j), (1.1 - 0.6j, 0.8 + 0.9j)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncation and adiabaticity do not bear on the comparison
        states = _ensemble_states(config)
        for name, rho in states.items():
            for ac, ar in points:
                pops = displaced_populations(rho, ac, ar)
                assert pops.shape == (config.dim_c, config.dim_r)
                assert np.abs(pops - displace_vib(rho, ac, ar).populations()).max() <= tol, (name, ac, ar)
    assert states["thermal, nbar_r = 0"].weights.size == config.dim_c
    assert states["thermal, nbar_r > 0"].weights.size == config.dim_vib
    assert states["random full rank"].weights.size == config.dim_vib


@pytest.mark.parametrize("grid", [(9, 3), (0, 5), (6, 6)])
def test_array_displaced_populations_equal_per_point_calls(grid):
    # a full-rank ensemble contracts one point at a time, a pure state all five at once,
    # and thermal with nbar_r = 0 (dim_c members) in chunks of dim_r points
    config = HilbertConfig(*grid)
    rho = _random_density(config, 7)
    points = [(0.0, 0.0), (0.4 + 0.3j, -0.2 + 0.5j), (-0.7j, 0.3), (-0.5 - 0.1j, -0.4 - 0.4j), (0.2, 0.0)]
    alpha_c, alpha_r = (np.array(col, complex) for col in zip(*points))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        pure = make_vib_state(StateSpec.coherent(0.3 - 0.2j, 0.1 + 0.2j), config)
        thermal = make_vib_state(StateSpec.thermal(0.4, 0.0), config)
        for state in (rho, pure, thermal):
            stack = displaced_populations(state, alpha_c, alpha_r)
            assert stack.shape == (len(points), config.dim_c, config.dim_r)
            for pops, (ac, ar) in zip(stack, points):
                assert np.array_equal(pops, displaced_populations(state, ac, ar))
    assert displaced_populations(rho, alpha_c[:0], alpha_r[:0]).shape == (0, config.dim_c, config.dim_r)
    with pytest.raises(ValueError, match="equal length"):
        displaced_populations(rho, alpha_c, alpha_r[:-1])


# ---------------------------------------------------------------------------
# signal synthesis
# ---------------------------------------------------------------------------


def test_synth_fock_signal_is_cos_squared():
    rho = make_vib_state(StateSpec.fock(0, 0), HilbertConfig(n_max_c=5, n_max_r=3))
    taus = np.linspace(0.0, 300.0, 40)
    rec = synth_signal(rho, taus, DRIVE, shots=0)
    want = np.cos(abs(rabi_effective(0, 0, DRIVE)) * taus) ** 2
    assert np.abs(rec.p_dd - want).max() < 1e-12


def test_synth_starts_at_one_for_any_state():
    for spec in (StateSpec.thermal(0.4, 0.2), StateSpec.coherent(0.5, 0.3), StateSpec.fock(2, 1)):
        rho = make_vib_state(spec, HilbertConfig(n_max_c=14, n_max_r=10))
        rec = synth_signal(rho, np.array([0.0, 10.0]), DRIVE, shots=0)
        assert rec.p_dd[0] == pytest.approx(1.0, abs=1e-12)


def test_synth_shot_noise_deterministic_per_seed():
    rho = vacuum(6, 3)
    taus = np.linspace(0.0, 200.0, 25)
    a = synth_signal(rho, taus, DRIVE, shots=500, seed=9)
    b = synth_signal(rho, taus, DRIVE, shots=500, seed=9)
    c = synth_signal(rho, taus, DRIVE, shots=500, seed=10)
    assert np.array_equal(a.p_dd, b.p_dd)
    assert not np.array_equal(a.p_dd, c.p_dd)
    assert np.all((a.p_dd >= 0) & (a.p_dd <= 1))


# seeds of 1 to 5 uint32 words: SeedSequence((seed, j)) hashes 2 to 6 entropy words
SUBSTREAM_SEEDS = [0, 1, 7, 12345, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 2**130 + 17]


def _record_state_words(monkeypatch) -> list:
    """Every array the PCG64 seed holder hands numpy, in draw order."""
    handed, holder = [], tomography._state_words_type()
    real = holder.generate_state

    def recording(self, n_words, dtype=np.uint32):
        handed.append(real(self, n_words, dtype))
        return handed[-1]

    monkeypatch.setattr(holder, "generate_state", recording)
    return handed


@pytest.mark.parametrize("seed", SUBSTREAM_SEEDS)
def test_batched_substreams_equal_per_sample_seed_sequences(seed, monkeypatch):
    taus = np.linspace(0.0, 200.0, 40)
    handed = _record_state_words(monkeypatch)
    synth_signal(vacuum(6, 3), taus, DRIVE, shots=3000, seed=seed)
    assert len(handed) == taus.size
    for j, words in enumerate(handed):
        assert words.tolist() == np.random.SeedSequence((seed, j)).generate_state(4, np.uint64).tolist()
    rho = vacuum(6, 3)
    exact = synth_signal(rho, taus, DRIVE, shots=0).p_dd
    per_sample = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, j)))).binomial(3000, prob) / 3000
        for j, prob in enumerate(exact)
    ]
    assert synth_signal(rho, taus, DRIVE, shots=3000, seed=seed).p_dd.tobytes() == np.array(per_sample).tobytes()


@pytest.mark.parametrize("seed", SUBSTREAM_SEEDS)
def test_point_seeds_equal_generate_state(seed):
    expected = [int(np.random.SeedSequence((seed, idx)).generate_state(1)[0]) for idx in range(30)]
    assert tomography._point_seeds(seed, 30).tolist() == expected


def test_state_words_holder_serves_only_pcg64_seeding(monkeypatch):
    holder = tomography._state_words_type()(np.arange(4, dtype=np.uint64))
    assert holder.generate_state(4, np.uint64) is holder.words
    requests = [(4, np.uint32), (8, np.uint32), (1, np.uint32), (3, np.uint64), (8, np.uint64),
                (4, np.int64), (4, np.dtype(np.uint64).newbyteorder())]
    for n_words, dtype in requests:
        with pytest.raises(ValueError):
            holder.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        holder.generate_state(4)
    # PCG64 reads the buffer it is handed directly
    handed, taus = _record_state_words(monkeypatch), default_tau_grid(DRIVE, 10, 2)
    synth_signal(vacuum(6, 3), np.linspace(0.0, 200.0, 25), DRIVE, shots=500, seed=2**70 + 3)
    protocol_run(vacuum(), LINE[:3], taus, DRIVE, shots=300, seed=4, n_fit_c=10, n_fit_r=2)
    assert len(handed) == 25 + 3 * taus.size
    for words in handed:
        assert words.shape == (4,) and words.dtype == np.uint64 and words.dtype.isnative
        assert words.flags.c_contiguous


def test_noise_free_runs_hash_nothing(monkeypatch):
    rho, taus = vacuum(), default_tau_grid(DRIVE, 10, 2)
    expected = protocol_run(rho, LINE, taus, DRIVE, shots=0, seed=3, n_fit_c=10, n_fit_r=2)
    expected_signal = synth_signal(rho, taus, DRIVE, shots=0, seed=3)

    def refuse(*args):
        raise AssertionError("a noise-free run hashed a substream")

    monkeypatch.setattr(tomography, "_substream_words", refuse)
    points = protocol_run(rho, LINE, taus, DRIVE, shots=0, seed=3, n_fit_c=10, n_fit_r=2)
    for got, want in zip(points, expected, strict=True):
        assert got.wigner == want.wigner and got.w_exact == want.w_exact
        assert got.estimate.pi.tobytes() == want.estimate.pi.tobytes()
    assert synth_signal(rho, taus, DRIVE, shots=0, seed=3).p_dd.tobytes() == expected_signal.p_dd.tobytes()


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Turns a hang (a 32-bit word split that never ends on a negative seed) into a failure."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", [-1, -3, -(2**40), 1.5, 2.0, np.float64(3.0)])
def test_bad_seed_raises_as_numpy_does_before_any_point(seed, monkeypatch):
    with pytest.raises((TypeError, ValueError)) as expected:
        np.random.SeedSequence((seed, 0))
    displaced = []
    monkeypatch.setattr(tomography, "displaced_populations", lambda *args: displaced.append(args))
    taus = default_tau_grid(DRIVE, 10, 2)
    runs = [
        lambda: synth_signal(vacuum(6, 3), np.linspace(0.0, 200.0, 25), DRIVE, shots=500, seed=seed),
        lambda: synth_signal(vacuum(6, 3), np.linspace(0.0, 200.0, 25), DRIVE, shots=0, seed=seed),
        lambda: protocol_run(vacuum(), LINE, taus, DRIVE, shots=300, seed=seed, n_fit_c=10, n_fit_r=2),
        lambda: protocol_run(vacuum(), LINE, taus, DRIVE, shots=0, seed=seed, n_fit_c=10, n_fit_r=2),
    ]
    for run in runs:
        with _time_limit(5), pytest.raises(type(expected.value)) as got:
            run()
        assert str(got.value) == str(expected.value)
    assert displaced == []


def test_synth_thermal_matches_density_propagation_oracle():
    # independent check of the signal formula: evolve the full joint
    # density under the eliminated Hamiltonian and read the fluorescence
    # probability from the electronic trace
    config = HilbertConfig(n_max_c=10, n_max_r=8)
    rho = make_vib_state(StateSpec.thermal(0.25, 0.1), config)
    taus = np.array([0.0, 37.0, 118.0, 260.0, 555.0, 901.0])
    rec = synth_signal(rho, taus, DRIVE, shots=0)
    with warnings.catch_warnings():
        # the oracle reuses the eliminated generator itself, so the
        # adiabaticity advisory about the drive regime is beside the point
        warnings.simplefilter("ignore")
        prop = HermitianPropagator(build_effective_H(DRIVE, config))
    weights = rho.populations()
    for j, tau in enumerate(taus):
        p_dd = 0.0
        for n_c in range(config.dim_c):
            for n_r in range(config.dim_r):
                w = weights[n_c, n_r]
                if w == 0.0:
                    continue
                evolved = prop.apply(basis_state(config, "dd", n_c, n_r), tau)
                p_dd += w * float(np.sum(np.abs(evolved.tensor()[0]) ** 2))
        assert abs(rec.p_dd[j] - p_dd) < 1e-9


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def test_invert_noiseless_fock_round_trip():
    rho = make_vib_state(StateSpec.fock(1, 0), HilbertConfig(n_max_c=5, n_max_r=4))
    taus = default_tau_grid(DRIVE, 2, 2)
    est = invert_populations(synth_signal(rho, taus, DRIVE, shots=0), 2, 2)
    want = np.zeros((3, 3))
    want[1, 0] = 1.0
    assert np.abs(est.pi - want).max() < 1e-6
    assert est.residual_norm < 1e-9


def test_invert_requires_enough_samples():
    rho = vacuum(6, 3)
    rec = synth_signal(rho, np.linspace(0.0, 100.0, 5), DRIVE, shots=0)
    with pytest.raises(ValueError):
        invert_populations(rec, 2, 2)


def test_invert_degenerate_frequencies_rejected():
    # k = 0 collapses every flopping frequency to zero
    p0 = BichromaticParams.symmetric(k=0, delta=0.02, omega=0.05, modes=MODES)
    rho = vacuum(6, 3)
    rec = synth_signal(rho, np.linspace(0.0, 100.0, 30), p0, shots=0)
    with pytest.raises(DegeneracyError) as err:
        invert_populations(rec, 2, 2)
    assert "(0, 0)" in str(err.value)


def test_invert_thermal_monte_carlo_accuracy():
    config = HilbertConfig(n_max_c=10, n_max_r=7)
    rho = make_vib_state(StateSpec.thermal(0.2, 0.1), config)
    taus = np.linspace(0.0, default_tau_grid(DRIVE, 5, 2)[-1], 60)
    rec = synth_signal(rho, taus, DRIVE, shots=10**4, seed=1)
    est = invert_populations(rec, 5, 2)
    true = rho.populations()[:6, :3]
    assert np.abs(est.pi - true).max() <= 0.05
    assert est.pi.min() >= 0.0
    assert est.pi.sum() <= 1.0 + 1e-6


def test_population_estimate_validation():
    with pytest.raises(ValueError):
        PopulationEstimate(pi=np.array([[-0.1]]), residual_norm=0.0)
    with pytest.raises(ValueError):
        PopulationEstimate(pi=np.array([[0.7, 0.7]]), residual_norm=0.0)


# ---------------------------------------------------------------------------
# Wigner values
# ---------------------------------------------------------------------------


def test_wigner_from_populations_signs():
    def est(grid):
        return PopulationEstimate(pi=np.asarray(grid, float), residual_norm=0.0)

    assert wigner_from_populations(est([[1.0]])) == pytest.approx(WIGNER_BOUND)
    assert wigner_from_populations(est([[0.0], [1.0]])) == pytest.approx(-WIGNER_BOUND)
    assert wigner_from_populations(est([[0.25, 0.25], [0.25, 0.25]])) == pytest.approx(0.0, abs=1e-15)


def test_wigner_direct_vacuum_closed_form():
    rho = vacuum(12, 10)
    assert wigner_direct(rho, 0.0, 0.0) == pytest.approx(WIGNER_BOUND, abs=1e-12)
    for ac, ar in [(0.7, 0.3), (0.4 + 0.5j, -0.2j)]:
        want = WIGNER_BOUND * math.exp(-2 * abs(ac) ** 2 - 2 * abs(ar) ** 2)
        assert wigner_direct(rho, ac, ar) == pytest.approx(want, abs=1e-10)


def test_wigner_direct_vacuum_reaches_the_top_of_the_grid():
    # grid (40, 40): a joint-space unitary would be 1681 x 1681; the ensemble contraction takes two small products a point
    rho = vacuum(40, 40)
    tol = 4 * rho.config.dim_vib * np.finfo(float).eps * WIGNER_BOUND  # the rounding bound of the population test
    for ac, ar in [(0.0, 0.0), (0.6 - 0.3j, 0.2j), (-0.5j, 0.7 + 0.7j), (1.0, -1.0j)]:
        want = WIGNER_BOUND * math.exp(-2 * abs(ac) ** 2 - 2 * abs(ar) ** 2)
        assert abs(wigner_direct(rho, ac, ar) - want) <= tol


def test_wigner_direct_fock_one_origin():
    rho = make_vib_state(StateSpec.fock(1, 0), HilbertConfig(n_max_c=6, n_max_r=4))
    assert wigner_direct(rho, 0.0, 0.0) == pytest.approx(-WIGNER_BOUND, abs=1e-12)


def test_wigner_matches_population_path_exactly():
    rho = make_vib_state(StateSpec.coherent(0.4, 0.2), HilbertConfig(n_max_c=10, n_max_r=8))
    for ac, ar in [(0.0, 0.0), (0.3, -0.1), (0.2j, 0.4)]:
        pops = displace_vib(rho, ac, ar).populations()
        est = PopulationEstimate(pi=pops, residual_norm=0.0)
        assert abs(wigner_from_populations(est) - wigner_direct(rho, ac, ar)) < 1e-12


def test_nan_values_are_rejected():
    with pytest.raises(ValueError, match="nan is outside the two-mode bound"):
        WignerPoint(alpha_c=0.0, alpha_r=0.0, w=float("nan"))
    for grid in ([[float("nan")]], [[0.2, float("nan")]], [[0.1, float("inf")]]):
        with pytest.raises(ValueError, match="need a finite sum"):
            PopulationEstimate(pi=np.array(grid), residual_norm=0.0)


def test_wigner_point_bound_enforced():
    with pytest.raises(ValueError):
        WignerPoint(alpha_c=0.0, alpha_r=0.0, w=0.5)


# ---------------------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------------------

LINE = [(a, 0.0) for a in (0.0, 0.25, 0.5, 0.75, 1.0)]


def test_protocol_noiseless_matches_oracle():
    rho = vacuum()
    taus = default_tau_grid(DRIVE, 10, 2)
    points = protocol_run(rho, LINE, taus, DRIVE, shots=0, n_fit_c=10, n_fit_r=2)
    for pt, (ac, ar) in zip(points, LINE):
        assert abs(pt.wigner.w - wigner_direct(rho, ac, ar)) < 1e-6
        assert pt.estimate.pi.shape == (11, 3)


def test_protocol_with_shot_noise_tracks_oracle():
    rho = vacuum()
    taus = default_tau_grid(DRIVE, 10, 2)
    points = protocol_run(rho, LINE, taus, DRIVE, shots=10**4, seed=1, n_fit_c=10, n_fit_r=2)
    for pt, (ac, ar) in zip(points, LINE):
        assert abs(pt.wigner.w - wigner_direct(rho, ac, ar)) <= 0.08


def test_protocol_empty_points():
    assert protocol_run(vacuum(), [], np.linspace(0, 10, 40), DRIVE, n_fit_c=10, n_fit_r=2) == []


def test_protocol_rejects_fit_grid_near_truncation():
    with pytest.raises(ValueError):
        protocol_run(vacuum(6, 3), LINE, np.linspace(0, 10, 80), DRIVE, n_fit_c=5, n_fit_r=1)


@pytest.mark.parametrize("shots", [0, 300])
@pytest.mark.parametrize("ridge", [0.0, 1e-3])
def test_protocol_equals_per_point_public_path(shots, ridge):
    rho = vacuum()
    taus = default_tau_grid(DRIVE, 10, 2)
    points = protocol_run(rho, LINE, taus, DRIVE, shots=shots, seed=4, n_fit_c=10, n_fit_r=2, ridge=ridge)
    assert len(points) == len(LINE)
    for idx, (pt, (ac, ar)) in enumerate(zip(points, LINE)):
        point_seed = int(np.random.SeedSequence((4, idx)).generate_state(1)[0])
        record = synth_signal(displace_vib(rho, ac, ar), taus, DRIVE, shots=shots, seed=point_seed)
        est = invert_populations(record, 10, 2, ridge=ridge)
        assert np.array_equal(pt.estimate.pi, est.pi)
        assert pt.estimate.residual_norm == est.residual_norm
        assert pt.wigner.w == wigner_from_populations(est)


def test_protocol_computes_no_condition_number(monkeypatch):
    # identifiability is condition_report's to report; a scan runs no SVD for it
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cond was called")

    monkeypatch.setattr(np.linalg, "cond", refuse)
    points = protocol_run(vacuum(), LINE, default_tau_grid(DRIVE, 10, 2), DRIVE, shots=300, seed=4, n_fit_c=10, n_fit_r=2)
    assert len(points) == len(LINE)


def _per_point_reference(rho, grid, taus, shots, seed, n_fit, ridge):
    """protocol_run spelled out point by point from the module's own steps, one displaced_populations call each."""
    cfg = rho.config
    synth = tomography.design_matrix(tomography._fit_frequencies(DRIVE, cfg.n_max_c, cfg.n_max_r), taus)
    fit = tomography._fit_design(DRIVE, *n_fit, taus)
    out = []
    for idx, (ac, ar) in enumerate(grid):
        pops = displaced_populations(rho, ac, ar)
        point_seed = int(np.random.SeedSequence((seed, idx)).generate_state(1)[0])
        record = tomography._draw(synth, pops, taus, DRIVE, shots, point_seed)
        est = tomography._solve(fit, tomography._ridge_design(fit, ridge), record.p_dd, (n_fit[0] + 1, n_fit[1] + 1))
        out.append((est, tomography._parity_sum(est.pi), tomography._parity_sum(pops)))
    return out


PROTOCOL_STATES = {
    "thermal": StateSpec.thermal(0.3, 0.05),
    "coherent": StateSpec.coherent(0.35 - 0.2j, -0.1 + 0.25j),
    "superposition": StateSpec.superposition([(0, 0, 1.0), (2, 1, 0.4 - 0.7j), (1, 2, 0.3j)]),
}
PROTOCOL_GRID = [(0.0, 0.0), (0.3 - 0.2j, 0.1j), (-0.5 + 0.1j, 0.2 + 0.2j), (-0.2 - 0.4j, -0.3 - 0.1j), (0.6, -0.25j)]


@pytest.mark.parametrize("kind", sorted(PROTOCOL_STATES))
@pytest.mark.parametrize("shots", [0, 300])
@pytest.mark.parametrize("ridge", [0.0, 1e-3])
def test_protocol_equals_per_point_reference_bitwise(kind, shots, ridge):
    rho = make_vib_state(PROTOCOL_STATES[kind], HilbertConfig(n_max_c=12, n_max_r=6))
    taus = default_tau_grid(DRIVE, 10, 2)
    points = protocol_run(rho, PROTOCOL_GRID, taus, DRIVE, shots=shots, seed=6, n_fit_c=10, n_fit_r=2, ridge=ridge)
    reference = _per_point_reference(rho, PROTOCOL_GRID, taus, shots, 6, (10, 2), ridge)
    assert len(points) == len(reference)
    for pt, (ac, ar), (est, w, w_exact) in zip(points, PROTOCOL_GRID, reference):
        assert (pt.wigner.alpha_c, pt.wigner.alpha_r) == (ac, ar)
        assert np.array_equal(pt.estimate.pi, est.pi)
        assert pt.estimate.residual_norm == est.residual_norm
        assert pt.wigner.w == w
        assert pt.w_exact == w_exact


@pytest.mark.parametrize(
    "taus, error, message",
    [
        (np.array([0.0, 5.0, 5.0, 9.0] + list(np.linspace(10.0, 900.0, 40))), DegeneracyError, "strictly increasing"),
        (np.linspace(900.0, 0.0, 44), DegeneracyError, "strictly increasing"),
        (np.array([0.0, float("nan")] + list(np.linspace(10.0, 900.0, 42))), ValueError, "taus values must be finite"),
    ],
)
def test_protocol_checks_tau_grid_before_displacing(taus, error, message, monkeypatch):
    calls = []
    real = tomography.displacement

    def counting(alpha, mode, config):
        calls.append(mode)
        return real(alpha, mode, config)

    monkeypatch.setattr(tomography, "displacement", counting)
    for shots in (0, 300):
        with pytest.raises(error, match=message):
            protocol_run(vacuum(), LINE, taus, DRIVE, shots=shots, n_fit_c=10, n_fit_r=2)
    assert calls == []


@pytest.mark.parametrize("shots", [0, 300])
def test_protocol_rejects_nan_state(shots):
    rho = vacuum()
    vectors = rho.vectors.copy()
    vectors[0, 3] = np.nan
    with pytest.raises(ValueError, match="p_dd values must be finite"):
        protocol_run(VibDensity(rho.weights, vectors, rho.config), LINE, default_tau_grid(DRIVE, 10, 2), DRIVE, shots=shots, n_fit_c=10, n_fit_r=2)


def _scan_peak_bytes(rho):
    """tracemalloc peak of a 21-point shot-noise scan at grid (20, 4), after a warm-up run."""
    taus = default_tau_grid(DRIVE, 18, 2)
    grid = [(0.05 * i - 0.2j, 0.03 * i) for i in range(21)]
    protocol_run(rho, grid[:2], taus, DRIVE, shots=3000, seed=2, n_fit_c=18, n_fit_r=2)  # loads scipy, fills caches
    tracemalloc.start()
    try:
        points = protocol_run(rho, grid, taus, DRIVE, shots=3000, seed=2, n_fit_c=18, n_fit_r=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == len(grid)
    return peak


def test_protocol_scan_memory_stays_per_point():
    # a 21-point scan of the one-member vacuum at grid (20, 4) peaks near 2 MB;
    # stacking every point's 105 x 105 unitary at once would take it past 11 MB
    assert _scan_peak_bytes(vacuum(20, 4)) < 4e6


def test_protocol_scan_memory_stays_per_chunk_with_many_members():
    # every Fock pair of this thermal state is a member, so each chunk is one point
    rho = make_vib_state(StateSpec.thermal(0.1, 0.005), HilbertConfig(n_max_c=20, n_max_r=4))
    assert rho.weights.size == 105
    assert _scan_peak_bytes(rho) < 4e6


def test_protocol_builds_design_once_per_run(monkeypatch):
    calls = []
    real = tomography.design_matrix

    def counting(freqs, taus):
        calls.append(len(freqs))
        return real(freqs, taus)

    monkeypatch.setattr(tomography, "design_matrix", counting)
    taus = default_tau_grid(DRIVE, 10, 2)
    counts = []
    for n_points in (1, 7):
        calls.clear()
        grid = [(0.1 * i, 0.0) for i in range(n_points)]
        protocol_run(vacuum(), grid, taus, DRIVE, shots=100, n_fit_c=10, n_fit_r=2)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_protocol_returns_exact_parity_value():
    config = HilbertConfig(n_max_c=12, n_max_r=4)
    rho = make_vib_state(StateSpec.superposition([(0, 0, 1.0), (2, 1, 0.4 - 0.7j)]), config)
    grid = [(0.0, 0.0), (0.3 - 0.2j, 0.1j), (-0.5, 0.2 + 0.2j)]
    taus = default_tau_grid(DRIVE, 10, 2)
    for pt, (ac, ar) in zip(protocol_run(rho, grid, taus, DRIVE, shots=300, n_fit_c=10, n_fit_r=2), grid):
        assert abs(pt.w_exact - wigner_direct(rho, ac, ar)) <= 1e-15


def test_protocol_rms_error_halves_with_quadrupled_shots():
    rho = vacuum()
    taus = default_tau_grid(DRIVE, 10, 2)
    grid = [(0.12 * i, 0.0) for i in range(6)] + [
        (0.3, 0.2), (0.5, 0.4), (0.2 + 0.3j, 0.1), (0.6, -0.2), (0.8, 0.3), (0.4, 0.5),
    ]
    direct = [wigner_direct(rho, ac, ar) for ac, ar in grid]
    rms = {}
    for shots in (2500, 10000):
        pts = protocol_run(rho, grid, taus, DRIVE, shots=shots, seed=1, n_fit_c=10, n_fit_r=2)
        rms[shots] = math.sqrt(np.mean([(pt.wigner.w - d) ** 2 for pt, d in zip(pts, direct)]))
    assert 1.6 <= rms[2500] / rms[10000] <= 2.6


# ---------------------------------------------------------------------------
# planning diagnostics
# ---------------------------------------------------------------------------


def test_condition_report_large_grid_all_distinct():
    report = condition_report(DRIVE, 25, 25, np.linspace(0.0, 1e5, 50))
    assert report.min_relative_gap > 0.0


def test_condition_report_flags_degenerate_k0():
    p0 = BichromaticParams.symmetric(k=0, delta=0.02, omega=0.05, modes=MODES)
    report = condition_report(p0, 3, 3, np.linspace(0.0, 100.0, 40))
    assert report.min_abs_gap == 0.0
    assert any("not identifiable" in note for note in report.notes)


def test_tied_rates_count_as_a_zero_gap():
    # eta_r = 1 is the root of L_1(eta_r^2) = 1 - eta_r^2: every n_r = 1 cell has rate 0, a tie
    p = BichromaticParams.symmetric(k=1, delta=0.02, omega=0.05, modes=ModeParams(eta=0.23, eta_r=1.0))
    rates = rabi_spectrum(p, 3, 1)
    assert not np.any(rates[:, 1])
    assert tomography.min_gaps(np.abs(rates)) == (0.0, 0.0)
    assert condition_report(p, 3, 1, np.linspace(0.0, 100.0, 40)).min_relative_gap == 0.0
    assert tomography.min_gaps(np.array([[1.0, 1.0], [2.0, 3.0]])) == (0.0, 0.0)


def test_condition_report_recommends_wider_span():
    short = np.linspace(0.0, 5.0, 60)
    report = condition_report(DRIVE, 4, 2, short)
    assert report.recommended_span > 5.0
    assert any("widen the scan" in note for note in report.notes)
    assert report.condition_number > 1e8


def test_default_tau_grid_spans_recommended_range():
    taus = default_tau_grid(DRIVE, 3, 2)
    report = condition_report(DRIVE, 3, 2, taus)
    assert taus.size == 4 * 4 * 3
    assert taus[-1] == pytest.approx(report.recommended_span)
    assert not any("widen" in note for note in report.notes)


def test_default_tau_grid_degenerate_error():
    p0 = BichromaticParams.symmetric(k=0, delta=0.02, omega=0.05, modes=MODES)
    with pytest.raises(DegeneracyError):
        default_tau_grid(p0, 2, 2)
