"""Config parsing errors, mode outputs and determinism of the command line."""

import tracemalloc

import numpy as np
import pytest

from vibronic import AdiabaticityWarning, __version__
from vibronic.cli import ConfigError, main, parse_config

SPECTRUM_CFG = """\
mode = spectrum
[hilbert]
n_max_c = 25
n_max_r = 25
[modes]
eta = 0.23
[drive]
k = 1
delta = 0.02
omega = 0.05
"""

BELL_PHI_CFG = """\
mode = bell-phi
[hilbert]
n_max_c = 6
n_max_r = 2
[modes]
eta = 0.1
[drive]
k = 1
delta = 0.1
omega = 0.05
[bell]
sign = -
engine = effective
"""

SYNTH_CFG = """\
mode = tomo-synth
seed = 11
[hilbert]
n_max_c = 12
n_max_r = 3
[modes]
eta = 0.23
[drive]
k = 1
delta = 0.02
omega = 0.05
[state]
kind = thermal
nbar_c = 0.2
nbar_r = 0.0
[tomo]
shots = 2000
n_fit_c = 4
n_fit_r = 1
"""

WIGNER_CFG = """\
mode = wigner
[hilbert]
n_max_c = 10
n_max_r = 2
[modes]
eta = 0.23
[drive]
k = 1
delta = 0.02
omega = 0.05
[state]
kind = fock
n_c = 1
n_r = 0
[tomo]
n_fit_c = 8
n_fit_r = 0
[wigner]
alpha_c_line = 0.0, 0.6, 5
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _data_rows(path):
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        rows.append(line)
    return rows[1:]  # drop the column-name row


# -- parsing ---------------------------------------------------------------


def test_duplicate_key_reports_both_lines():
    text = "mode = spectrum\n[modes]\neta = 0.2\neta = 0.3\n"
    with pytest.raises(ConfigError, match=r"lines 3 and 4"):
        parse_config(text)


def test_range_error_names_key_and_line():
    text = SPECTRUM_CFG.replace("eta = 0.23", "eta = -0.1")
    with pytest.raises(ConfigError, match=r"'modes\.eta'.*line 6"):
        parse_config(text)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match=r"unknown key 'drive\.detuning'"):
        parse_config(SPECTRUM_CFG + "detuning = 0.5\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key 'drive.omega'"):
        parse_config(SPECTRUM_CFG.replace("omega = 0.05\n", ""))


def test_bad_mode_rejected():
    with pytest.raises(ConfigError, match="'mode' must be one of"):
        parse_config("mode = dance\n")


def test_bad_sign_token():
    text = BELL_PHI_CFG.replace("sign = -", "sign = down")
    with pytest.raises(ConfigError, match="must be '\\+' or '-'"):
        parse_config(text)


def test_evolve_rejects_thermal_state():
    text = (
        "mode = evolve\n[hilbert]\nn_max_c = 4\nn_max_r = 2\n"
        "[modes]\neta = 0.1\n[drive]\nk = 1\ndelta = 0.1\nomega = 0.05\n"
        "[state]\nkind = thermal\nnbar_c = 0.2\n[evolve]\nt = 10\n"
    )
    with pytest.raises(ConfigError, match="pure state"):
        parse_config(text)


def test_wigner_needs_exactly_one_grid():
    text = WIGNER_CFG + "alphas = 0,0,0,0\n"
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config(text)
    with pytest.raises(ConfigError, match="exactly one of"):
        parse_config(WIGNER_CFG.replace("alpha_c_line = 0.0, 0.6, 5\n", ""))


def test_echo_resolves_defaults():
    cfg = parse_config(SPECTRUM_CFG)
    echoed = dict(cfg.echo)
    assert echoed["drive.k_prime"] == "1"
    assert echoed["drive.delta_prime"] == "0.02"
    assert float(echoed["modes.eta_r"]) == pytest.approx(0.23 * 3 ** -0.25)


def test_seed_override_wins():
    cfg = parse_config(SYNTH_CFG, seed_override=99)
    assert cfg.seed == 99
    assert dict(cfg.echo)["seed"] == "99"


@pytest.mark.parametrize("text", [SYNTH_CFG, SPECTRUM_CFG], ids=["tomo-synth", "spectrum"])
@pytest.mark.parametrize("flag, value", [("--seed", "-3")])
def test_override_flags_are_range_checked(tmp_path, capsys, text, flag, value):
    assert main(["--config", _write(tmp_path, text), "--out", str(tmp_path / "out"), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"'{flag}'" in err
    assert not (tmp_path / "out").exists()


def test_main_calls_share_no_flag_state(tmp_path, capsys):
    cfg = _write(tmp_path, SYNTH_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path / "a"), "--seed", "5", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert "tomo-synth" in capsys.readouterr().out
    first = (tmp_path / "a" / "signal.csv").read_text().splitlines()
    second = (tmp_path / "b" / "signal.csv").read_text().splitlines()
    assert "# seed = 5" in first
    assert "# seed = 11" in second


@pytest.mark.parametrize(
    "seed_line, flags",
    [("", ["--seed", "5"]), ("seed = 3\n", ["--seed", "5"]), ("", ["--seed", "0x10"])],
    ids=["flag-only", "flag-over-key", "hex-flag"],
)
def test_seed_flag_writes_the_bytes_of_the_seed_key(tmp_path, seed_line, flags):
    # the flag takes the key's place in the header echo and reads integer literals as the key does
    def signal(name, line, extra):
        text = SYNTH_CFG.replace("seed = 11\n", line)
        assert main(["--config", _write(tmp_path, text, f"{name}.cfg"), "--out", str(tmp_path / name), "--quiet", *extra]) == 0
        return (tmp_path / name / "signal.csv").read_bytes()

    want = f"seed = {int(flags[1], 0)}\n"
    assert signal("flag", seed_line, flags) == signal("key", want, [])


# -- modes through main() --------------------------------------------------


def test_spectrum_writes_full_grid(tmp_path):
    code = main(["--config", _write(tmp_path, SPECTRUM_CFG), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    rows = _data_rows(tmp_path / "out" / "spectrum.csv")
    assert len(rows) == 26 * 26
    values = np.array([float(r.split(",")[2]) for r in rows])
    # rates across the grid are all distinct at this eta
    assert np.unique(values).size == values.size


def test_bell_phi_reports_unit_fidelity(tmp_path):
    code = main(["--config", _write(tmp_path, BELL_PHI_CFG), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    text = (tmp_path / "out" / "bell_phi.csv").read_text()
    fid = next(float(l.split("=")[1]) for l in text.splitlines() if l.startswith("# fidelity"))
    assert abs(fid - 1.0) < 1e-9
    assert "# vibronic" in text


def test_wigner_estimate_tracks_oracle(tmp_path):
    code = main(["--config", _write(tmp_path, WIGNER_CFG), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    est = np.array([float(r.split(",")[4]) for r in _data_rows(tmp_path / "out" / "wigner.csv")])
    ora = np.array([float(r.split(",")[4]) for r in _data_rows(tmp_path / "out" / "wigner_oracle.csv")])
    assert est.shape == (5,)
    assert np.max(np.abs(est - ora)) < 1e-6
    # Fock |1> at the origin sits at the negative parity bound
    assert est[0] == pytest.approx(-4.0 / np.pi**2, abs=1e-6)


def test_explicit_alphas_match_the_alpha_line(tmp_path):
    grids = {"line": "alpha_c_line = -0.3, 0.3, 2", "explicit": "alphas = -0.3,0,0,0; 0.3,0,0,0"}
    for name, grid in grids.items():
        text = WIGNER_CFG.replace("alpha_c_line = 0.0, 0.6, 5", grid)
        assert main(["--config", _write(tmp_path, text, f"{name}.cfg"), "--out", str(tmp_path / name), "--quiet"]) == 0
    for csv in ("wigner.csv", "wigner_oracle.csv"):
        rows = _data_rows(tmp_path / "line" / csv)
        assert len(rows) == 2 and rows == _data_rows(tmp_path / "explicit" / csv)


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, SYNTH_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert main(["--config", cfg, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    assert (tmp_path / "a" / "signal.csv").read_bytes() == (tmp_path / "b" / "signal.csv").read_bytes()


def test_synth_then_invert_roundtrip(tmp_path):
    cfg = _write(tmp_path, SYNTH_CFG.replace("shots = 2000", "shots = 0"))
    assert main(["--config", cfg, "--out", str(tmp_path / "sig"), "--quiet"]) == 0
    invert_cfg = (
        "mode = tomo-invert\n[hilbert]\nn_max_c = 12\nn_max_r = 3\n"
        "[modes]\neta = 0.23\n[drive]\nk = 1\ndelta = 0.02\nomega = 0.05\n"
        "[tomo]\nn_fit_c = 4\nn_fit_r = 1\n"
        f"signal_file = {tmp_path / 'sig' / 'signal.csv'}\n"
    )
    assert main(["--config", _write(tmp_path, invert_cfg, "inv.cfg"), "--out", str(tmp_path / "pop"), "--quiet"]) == 0
    rows = _data_rows(tmp_path / "pop" / "populations.csv")
    pops = {(int(r.split(",")[0]), int(r.split(",")[1])): float(r.split(",")[2]) for r in rows}
    # thermal nbar_c = 0.2: ground population (1/1.2) within the fit window
    assert pops[(0, 0)] == pytest.approx(1.0 / 1.2, abs=1e-3)
    assert pops[(1, 0)] == pytest.approx(0.2 / 1.2**2, abs=1e-3)


# -- exit codes ------------------------------------------------------------


def test_exit_code_config_error(tmp_path, capsys):
    bad = _write(tmp_path, SPECTRUM_CFG.replace("eta = 0.23", "eta = -1"))
    assert main(["--config", bad, "--out", str(tmp_path / "out")]) == 2
    assert "modes.eta" in capsys.readouterr().err


def test_exit_code_missing_config(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "out")]) == 4


def test_exit_code_degenerate_inversion(tmp_path, capsys):
    # carrier drive (k = 0) gives identical frequencies on the stretch axis:
    # inversion is not identifiable and must fail cleanly
    cfg = SYNTH_CFG.replace("mode = tomo-synth", "mode = tomo-invert").replace("k = 1", "k = 0")
    assert main(["--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 3
    assert "degenerate" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_number_is_config_error(tmp_path, capsys, value):
    bad = _write(tmp_path, SPECTRUM_CFG.replace("delta = 0.02", f"delta = {value}"))
    assert main(["--config", bad, "--out", str(tmp_path / "out")]) == 2
    assert "'drive.delta' must be finite" in capsys.readouterr().err


def test_non_finite_tuple_entry_is_config_error(tmp_path, capsys):
    # the same reader also names a group of the wrong arity and a non-numeric entry
    for value, message in [
        ("0.0, inf, 5", "'wigner.alpha_c_line' has a non-finite entry"),
        ("0.0, 0.6", "'wigner.alpha_c_line' expects groups of 3 numbers, got '0.0, 0.6'"),
        ("0.0, abc, 5", "'wigner.alpha_c_line' has a non-numeric entry in '0.0, abc, 5'"),
    ]:
        bad = _write(tmp_path, WIGNER_CFG.replace("alpha_c_line = 0.0, 0.6, 5", f"alpha_c_line = {value}"))
        assert main(["--config", bad, "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err


def test_missing_signal_file_is_io_error(tmp_path, capsys):
    cfg = SYNTH_CFG.replace("mode = tomo-synth", "mode = tomo-invert") + f"signal_file = {tmp_path / 'nope.csv'}\n"
    assert main(["--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith("i/o error: [Errno 2]")


def test_signal_without_eta_header_is_run_error(tmp_path, capsys):
    assert main(["--config", _write(tmp_path, SYNTH_CFG), "--out", str(tmp_path / "sig"), "--quiet"]) == 0
    signal = tmp_path / "sig" / "signal.csv"
    lines = signal.read_text().splitlines()
    assert sum(line.startswith("# eta =") for line in lines) == 1
    signal.write_text("\n".join(line for line in lines if not line.startswith("# eta =")) + "\n")
    invert_cfg = SYNTH_CFG.replace("mode = tomo-synth", "mode = tomo-invert") + f"signal_file = {signal}\n"
    assert main(["--config", _write(tmp_path, invert_cfg, "inv.cfg"), "--out", str(tmp_path / "pop")]) == 3
    assert capsys.readouterr().err == "error: header is missing key 'eta'\n"


@pytest.mark.parametrize("passed, code", [((True, True), 0), ((True, False), 3)], ids=["all-pass", "one-fail"])
def test_validate_writes_one_line_per_check(tmp_path, monkeypatch, passed, code):
    # the battery itself is slow and has its own tests; the CLI only reports it
    import vibronic.acceptance as acceptance

    results = [acceptance.AcceptanceResult(i + 1, f"check {i + 1}", ok, "detail") for i, ok in enumerate(passed)]
    monkeypatch.setattr(acceptance, "run_all", lambda: results)
    cfg = _write(tmp_path, "mode = validate\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == code
    lines = (tmp_path / "out" / "validate.txt").read_text().splitlines()
    assert lines[:4] == [f"# vibronic {__version__}", "# mode = validate", "# seed = 0", "# threads = 1"]
    assert lines[4:] == [r.report_line() for r in results]


@pytest.mark.parametrize("mode", ["wigner", "tomo-synth", "tomo-invert"])
@pytest.mark.parametrize("key", ["n_max_c", "n_max_r"])
def test_fit_modes_need_room_below_truncation(tmp_path, capsys, mode, key):
    text = WIGNER_CFG.replace("mode = wigner", f"mode = {mode}").replace("n_fit_c = 8\nn_fit_r = 0\n", "")
    if mode != "wigner":
        text = text.replace("[wigner]\nalpha_c_line = 0.0, 0.6, 5\n", "")
    text = text.replace(f"{key} = {10 if key == 'n_max_c' else 2}", f"{key} = 1")
    assert main(["--config", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    assert f"'hilbert.{key}' must be >= 2, got 1" in capsys.readouterr().err


def test_one_cell_fit_grid_needs_explicit_tau_span(tmp_path, capsys):
    # n_max = 2 leaves the single fit cell (0, 0): no frequency gap sets the default span
    text = WIGNER_CFG.replace("n_max_c = 10", "n_max_c = 2").replace("n_fit_c = 8\nn_fit_r = 0\n", "")
    assert main(["--config", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    assert "tomo.tau_max" in capsys.readouterr().err


def test_one_cell_fit_grid_runs_with_explicit_taus(tmp_path):
    text = (
        SYNTH_CFG.replace("n_max_c = 12\nn_max_r = 3", "n_max_c = 2\nn_max_r = 2")
        .replace("kind = thermal\nnbar_c = 0.2\nnbar_r = 0.0", "kind = fock")
        .replace("n_fit_c = 4\nn_fit_r = 1\n", "n_fit_c = 0\nn_fit_r = 0\ntau_max = 500\ntau_count = 20\n")
    )
    assert main(["--config", _write(tmp_path, text), "--out", str(tmp_path / "sig"), "--quiet"]) == 0
    assert len(_data_rows(tmp_path / "sig" / "signal.csv")) == 20
    # a record read from file sets its own taus, so inverting it needs no span
    invert_cfg = (
        "mode = tomo-invert\n[hilbert]\nn_max_c = 2\nn_max_r = 2\n"
        "[modes]\neta = 0.23\n[drive]\nk = 1\ndelta = 0.02\nomega = 0.05\n"
        f"[tomo]\nsignal_file = {tmp_path / 'sig' / 'signal.csv'}\n"
    )
    assert main(["--config", _write(tmp_path, invert_cfg, "inv.cfg"), "--out", str(tmp_path / "pop"), "--quiet"]) == 0


@pytest.fixture
def no_huge_linspace(monkeypatch):
    """np.linspace that fails as an oversized allocation would, without allocating."""
    real = np.linspace

    def guarded(start, stop, num=50, **kwargs):
        if num > 10**6:
            raise MemoryError(f"Unable to allocate an array with shape ({num},)")
        return real(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", guarded)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_signal_sample_is_run_error(tmp_path, capsys, value):
    assert main(["--config", _write(tmp_path, SYNTH_CFG), "--out", str(tmp_path / "sig"), "--quiet"]) == 0
    signal = tmp_path / "sig" / "signal.csv"
    lines = signal.read_text().splitlines()
    tau, _, shots = lines[-1].split(",")
    lines[-1] = f"{tau},{value},{shots}"
    signal.write_text("\n".join(lines) + "\n")
    invert_cfg = SYNTH_CFG.replace("mode = tomo-synth", "mode = tomo-invert") + f"signal_file = {signal}\n"
    assert main(["--config", _write(tmp_path, invert_cfg, "inv.cfg"), "--out", str(tmp_path / "pop")]) == 3
    assert capsys.readouterr().err == "error: p_dd values must be finite\n"


# 1e12 would be allocated, so the fixture stands in for numpy there; numpy
# rejects the larger counts itself (ValueError or IndexError) before allocating
@pytest.mark.parametrize("count", ["1e12", "1e19", "1e308", "9223372036854775808"])
def test_oversized_alpha_line_is_config_error(tmp_path, capsys, request, count):
    if count == "1e12":
        request.getfixturevalue("no_huge_linspace")
    text = WIGNER_CFG.replace("alpha_c_line = 0.0, 0.6, 5", f"alpha_c_line = -0.3, 0.3, {count}")
    assert main(["--config", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out of memory") and err.count("\n") == 1


@pytest.mark.parametrize("count", ["1000000000000", "9223372036854775807", "10000000000000000000"])
def test_oversized_tau_grid_is_run_error(tmp_path, capsys, request, count):
    if count == "1000000000000":
        request.getfixturevalue("no_huge_linspace")
    text = SYNTH_CFG + f"tau_count = {count}\n"
    assert main(["--config", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def _top_grid_cfg(mode, extra):
    return (
        f"mode = {mode}\n[hilbert]\nn_max_c = 40\nn_max_r = 40\n[modes]\neta = 0.05\n"
        "[drive]\nk = 1\ndelta = 0.1\nomega = 0.02\nphi = 0.3\nphi0 = 0.7\n" + extra
    )


@pytest.mark.parametrize(
    "mode, extra",
    [
        ("bell-psi", "[bell]\nstart_sign = +\nengine = effective\n[carrier]\nvarphi0 = 0.4\n"),
        ("evolve", "[state]\nkind = coherent\nalpha_c_re = 1.5\nalpha_r_im = 0.8\n"
                   "[evolve]\nt = 3000\nsamples = 20\nengine = effective\n"),
    ],
)
def test_effective_modes_run_at_the_top_of_the_grid(tmp_path, mode, extra):
    # grid (40, 40) is dim 6724: a dense generator alone would be 723 MB
    cfg = _write(tmp_path, _top_grid_cfg(mode, extra))
    tracemalloc.start()
    try:
        code = main(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64e6


def test_exact_bell_phi_runs_at_the_top_of_the_grid(tmp_path):
    # the sector eigenvectors alone take about 9 MB here; a joint-space matrix is 723 MB
    cfg = _write(tmp_path, _top_grid_cfg("bell-phi", "[bell]\nengine = exact\n"))
    tracemalloc.start()
    try:
        code = main(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 32e6


def test_effective_evolve_forms_no_density_matrix(tmp_path):
    # a dim_vib x dim_vib density matrix at grid (40, 40) alone is 45 MB
    extra = "[state]\nkind = coherent\nalpha_c_re = 1.5\nalpha_r_im = 0.8\n[evolve]\nt = 3000\nsamples = 20\nengine = effective\n"
    cfg = _write(tmp_path, _top_grid_cfg("evolve", extra))
    tracemalloc.start()
    try:
        code = main(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8e6


def _small(mode, k, extra):
    drive = f"[hilbert]\nn_max_c = 4\nn_max_r = 2\n[modes]\neta = 0.1\n[drive]\nk = {k}\ndelta = 0.05\nomega = 0.02\n"
    return f"mode = {mode}\n{drive}{extra}"


ONE_PER_RUN_PATH = {
    "spectrum": SPECTRUM_CFG,
    "evolve-exact-k1": _small("evolve", 1, "[state]\nkind = fock\n[evolve]\nt = 10\nsamples = 3\n"),
    "evolve-exact-k0": _small("evolve", 0, "[state]\nkind = fock\n[evolve]\nt = 10\nsamples = 3\n"),
    "evolve-effective": _small("evolve", 1, "[state]\nkind = fock\n[evolve]\nt = 10\nsamples = 3\nengine = effective\n"),
    "bell-phi-exact": BELL_PHI_CFG.replace("engine = effective", "engine = exact"),
    "bell-psi-effective": _small("bell-psi", 1, "[bell]\nengine = effective\n"),
    "bell-psi-exact": _small("bell-psi", 1, "[bell]\nengine = exact\n"),
    "tomo-synth": SYNTH_CFG,
    "tomo-invert": SYNTH_CFG.replace("mode = tomo-synth", "mode = tomo-invert"),
    "wigner": WIGNER_CFG,
}


@pytest.mark.parametrize("name", sorted(ONE_PER_RUN_PATH))
def test_no_mode_reaches_the_dense_oracle(tmp_path, monkeypatch, capsys, name):
    # the dense builders, the generic integrator and the joint-space displacement serve the checks only;
    # exact evolve with two carrier tones has no engine and is refused at parse time
    import sys

    import vibronic.dynamics as dynamics
    import vibronic.tomography as tomography

    def forbidden(*args, **kwargs):
        raise AssertionError("a run path reached the dense oracle")

    dense = {attr: getattr(dynamics, attr) for attr in (
        "build_bichromatic_H", "propagate_timedep", "_expm_apply_dense", "build_effective_H", "build_carrier_H",
    )}
    dense["displace_vib"] = tomography.displace_vib
    for module in [m for key, m in sys.modules.items() if key.startswith("vibronic")]:
        for attr, original in dense.items():
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, forbidden)
    monkeypatch.setattr(dynamics.HermitianPropagator, "__init__", forbidden)
    cfg = _write(tmp_path, ONE_PER_RUN_PATH[name])
    code = main(["--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    if name == "evolve-exact-k0":
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: exact evolve needs drive.k + drive.k_prime > 0: two carrier tones have no static frame\n"
    else:
        assert code == 0


def test_wigner_displaces_each_point_once(tmp_path, monkeypatch):
    # the whole scan is one displacement call per mode, and across those
    # calls every point's alpha appears exactly once, in point order
    import vibronic.fockspace as fockspace
    import vibronic.tomography as tomography

    calls = []
    real = fockspace.displacement

    def counting(alpha, mode, config):
        calls.append((mode, np.atleast_1d(alpha).tolist()))
        return real(alpha, mode, config)

    monkeypatch.setattr(fockspace, "displacement", counting)
    monkeypatch.setattr(tomography, "displacement", counting)
    for n_points in (1, 7):
        calls.clear()
        text = WIGNER_CFG.replace("alpha_c_line = 0.0, 0.6, 5", f"alpha_c_line = 0.0, 0.6, {n_points}")
        args = ["--config", _write(tmp_path, text), "--out", str(tmp_path / f"out{n_points}"), "--quiet"]
        assert main(args) == 0
        alphas = parse_config(text).alphas
        assert len(alphas) == n_points
        assert sorted(mode for mode, _ in calls) == ["c", "r"]
        assert dict(calls) == {"c": [complex(ac) for ac, _ in alphas], "r": [complex(ar) for _, ar in alphas]}


def test_effective_evolve_warns_on_marginal_detuning(tmp_path):
    text = (
        "mode = evolve\n[hilbert]\nn_max_c = 4\nn_max_r = 1\n[modes]\neta = 0.1\n"
        "[drive]\nk = 1\ndelta = 0.004\nomega = 0.02\n[state]\nkind = fock\n"
        "[evolve]\nt = 100\nsamples = 3\nengine = effective\n"
    )
    with pytest.warns(AdiabaticityWarning):
        assert main(["--config", _write(tmp_path, text), "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_threads_is_accepted_and_has_no_effect(tmp_path):
    outputs = {}
    for name, threads in [("one", 1), ("many", 4)]:
        text = WIGNER_CFG.replace("mode = wigner", f"mode = wigner\nthreads = {threads}")
        args = ["--config", _write(tmp_path, text, f"{name}.cfg"), "--out", str(tmp_path / name), "--quiet"]
        assert main(args) == 0
        outputs[name] = (tmp_path / name / "wigner.csv").read_text().splitlines()
    assert "# threads = 4" in outputs["many"]
    assert [l for l in outputs["one"] if l != "# threads = 1"] == [l for l in outputs["many"] if l != "# threads = 4"]
    # the key stays; the flag is gone and is an argparse usage error
    with pytest.raises(SystemExit) as exc:
        main(["--config", _write(tmp_path, WIGNER_CFG, "flag.cfg"), "--out", str(tmp_path / "flag"), "--threads", "3"])
    assert exc.value.code == 2
