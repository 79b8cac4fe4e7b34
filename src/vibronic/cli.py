"""Config-driven batch front end.

One executable, eight modes selected by the config file:

    spectrum     grid of dispersive rates Omega^k over Fock pairs
    evolve       time series of electronic populations from |dd> x (pure vib)
    bell-phi     single-pulse Phi-state preparation, amplitudes + fidelity
    bell-psi     two-pulse Psi-state preparation, amplitudes + fidelity
    tomo-synth   synthetic P_dd(tau) measurement record
    tomo-invert  populations recovered from a record (from file or inline)
    wigner       reconstructed Wigner values on a displacement grid,
                 with the exact oracle values written alongside
    validate     run the built-in acceptance checks, report PASS/FAIL

Configs are flat ``key = value`` lines under bracketed ``[section]``
headers; '#' starts a comment.  Every parse problem names the offending
key and line.  All outputs are CSV with '#'-prefixed headers that embed
the package version and the fully resolved configuration, and contain no
timestamps, so identical config + seed reproduces identical bytes.

Exit codes: 0 success, 2 config error, 3 numerical/diagnostic failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bellgen import carrier_phase_for, make_phi, make_psi
from .dynamics import (
    BichromaticParams,
    CarrierParams,
    FactoredPropagator,
    effective_factors,
    propagate_bichromatic,
    rabi_spectrum,
    resonance_guard,
)
from .fockspace import (
    ELEC_LABELS,
    HilbertConfig,
    JointState,
    ModeParams,
    StateSpec,
    make_vib_state,
    make_vib_vector,
)
from .tomography import (
    SignalRecord,
    default_tau_grid,
    invert_populations,
    protocol_run,
    synth_signal,
)

MODES = (
    "spectrum",
    "evolve",
    "bell-phi",
    "bell-psi",
    "tomo-synth",
    "tomo-invert",
    "wigner",
    "validate",
)


class ConfigError(Exception):
    """Malformed or out-of-range run configuration."""


# ---------------------------------------------------------------------------
# line-level parsing
# ---------------------------------------------------------------------------


@dataclass
class _Raw:
    value: str
    line: int
    used: bool = False


def _scan(text: str) -> dict[str, _Raw]:
    """Split config text into {'section.key': raw} with line bookkeeping."""
    out: dict[str, _Raw] = {}
    section = ""
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"empty section name at line {lineno}")
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' at line {lineno}: {raw_line.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"missing key before '=' at line {lineno}")
        path = f"{section}.{key}" if section else key
        if path in out:
            raise ConfigError(f"duplicate key '{path}' (lines {out[path].line} and {lineno})")
        out[path] = _Raw(value=value, line=lineno)
    return out


class _Reader:
    """Typed, range-checked access to the raw key/value map."""

    def __init__(self, raw: dict[str, _Raw]):
        self.raw = raw
        self.echo: list[tuple[str, str]] = []

    def _fetch(self, path: str):
        entry = self.raw.get(path)
        if entry is not None:
            entry.used = True
        return entry

    def _note(self, path: str, value) -> None:
        self.echo.append((path, f"{value}"))

    def string(self, path: str, default: str | None = None, choices=None, required=False) -> str | None:
        entry = self._fetch(path)
        if entry is None:
            if required:
                raise ConfigError(f"missing required key '{path}'")
            value = default
        else:
            value = entry.value
        if value is not None and choices is not None and value not in choices:
            where = f" (line {entry.line})" if entry else ""
            raise ConfigError(f"'{path}' must be one of {sorted(choices)}, got {value!r}{where}")
        if value is not None:
            self._note(path, value)
        return value

    def number(self, path: str, default=None, lo=None, hi=None, integer=False, required=False):
        entry = self._fetch(path)
        if entry is None:
            if required:
                raise ConfigError(f"missing required key '{path}'")
            if default is None:
                return None
            value = default
            where = ""
        else:
            where = f" (line {entry.line})"
            try:
                value = int(entry.value, 0) if integer else float(entry.value)
            except ValueError:
                kind = "an integer" if integer else "a number"
                raise ConfigError(f"'{path}' must be {kind}, got {entry.value!r}{where}") from None
            if not math.isfinite(value):
                raise ConfigError(f"'{path}' must be finite, got {entry.value!r}{where}")
        if lo is not None and value < lo:
            raise ConfigError(f"'{path}' must be >= {lo}, got {value}{where}")
        if hi is not None and value > hi:
            raise ConfigError(f"'{path}' must be <= {hi}, got {value}{where}")
        self._note(path, value)
        return value

    def sign(self, path: str, default: int = 1) -> int:
        entry = self._fetch(path)
        if entry is None:
            self._note(path, default)
            return default
        token = entry.value
        if token in ("+", "+1", "1"):
            value = 1
        elif token in ("-", "-1"):
            value = -1
        else:
            raise ConfigError(f"'{path}' must be '+' or '-', got {token!r} (line {entry.line})")
        self._note(path, value)
        return value

    def tuples(self, path: str, arity: int, required=False) -> list[tuple[float, ...]] | None:
        """Semicolon-separated groups of comma-separated numbers."""
        entry = self._fetch(path)
        if entry is None:
            if required:
                raise ConfigError(f"missing required key '{path}'")
            return None
        groups = []
        for chunk in entry.value.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = [p.strip() for p in chunk.split(",")]
            if len(parts) != arity:
                raise ConfigError(
                    f"'{path}' expects groups of {arity} numbers, got {chunk!r} (line {entry.line})"
                )
            try:
                group = tuple(float(p) for p in parts)
            except ValueError:
                raise ConfigError(f"'{path}' has a non-numeric entry in {chunk!r} (line {entry.line})") from None
            if not all(math.isfinite(x) for x in group):
                raise ConfigError(f"'{path}' has a non-finite entry in {chunk!r} (line {entry.line})")
            groups.append(group)
        if not groups:
            raise ConfigError(f"'{path}' is empty (line {entry.line})")
        self._note(path, entry.value)
        return groups

    def reject_unknown(self) -> None:
        stray = [(p, r.line) for p, r in self.raw.items() if not r.used]
        if stray:
            path, line = min(stray, key=lambda item: item[1])
            raise ConfigError(f"unknown key '{path}' (line {line})")


# ---------------------------------------------------------------------------
# resolved configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    mode: str
    seed: int
    hilbert: HilbertConfig | None = None
    modes: ModeParams | None = None
    drive: BichromaticParams | None = None
    state: StateSpec | None = None
    carrier_omega: float = 0.0
    carrier_varphi: float | None = None  # None: derive from the drive
    carrier_varphi0: float = 0.0
    bell_sign: int = 1
    bell_start_sign: int = 1
    bell_engine: str = "effective"
    bell_vib: tuple[int, int] = (0, 0)
    shots: int = 0
    n_fit_c: int = 0
    n_fit_r: int = 0
    ridge: float = 0.0
    tau_count: int = 0  # 0: four samples per unknown
    tau_max: float = 0.0  # 0: pi over the closest frequency gap
    signal_file: str | None = None
    alphas: tuple[tuple[complex, complex], ...] = ()
    evolve_t: float = 0.0
    evolve_samples: int = 0
    evolve_engine: str = "exact"
    echo: tuple[tuple[str, str], ...] = ()


def parse_config(text: str, seed_override: int | None = None) -> RunConfig:
    """Validate config text into a RunConfig with all defaults resolved."""
    reader = _Reader(_scan(text))
    mode = reader.string("mode", choices=set(MODES), required=True)
    # the flag follows the rules of the key it overrides
    if seed_override is not None and seed_override < 0:
        raise ConfigError(f"'--seed' must be >= 0, got {seed_override}")
    seed = reader.number("seed", default=0, lo=0, integer=True)
    # 'threads' is still accepted, range-checked and echoed so that older configs parse; runs are serial
    reader.number("threads", default=1, lo=1, integer=True)
    # the flag replaces the file value and its echo entry in place, so the header keeps one order
    if seed_override is not None:
        seed = seed_override
        reader.echo[-2] = ("seed", f"{seed}")

    if mode == "validate":
        reader.reject_unknown()
        return RunConfig(mode=mode, seed=int(seed), echo=tuple(reader.echo))

    # a fit grid n_fit >= 0 needs n_fit <= n_max - 2, the rule protocol_run enforces
    n_max_lo = 2 if mode in ("tomo-synth", "tomo-invert", "wigner") else 1
    n_max_c = reader.number("hilbert.n_max_c", lo=n_max_lo, hi=40, integer=True, required=True)
    n_max_r = reader.number("hilbert.n_max_r", lo=n_max_lo, hi=40, integer=True, required=True)
    hilbert = HilbertConfig(n_max_c=n_max_c, n_max_r=n_max_r)

    eta = reader.number("modes.eta", lo=1e-6, hi=2.0, required=True)
    eta_r = reader.number("modes.eta_r", lo=1e-6, hi=2.0)
    if eta_r is None:
        reader._note("modes.eta_r", ModeParams(eta=eta).eta_r)  # echo the derived stretch value
    nu = reader.number("modes.nu", default=1.0, lo=1e-12)
    modes = ModeParams(eta=eta, eta_r=eta_r, nu=nu)

    k = reader.number("drive.k", lo=0, hi=6, integer=True, required=True)
    k_prime = reader.number("drive.k_prime", default=k, lo=0, hi=6, integer=True)
    delta = reader.number("drive.delta", required=True)
    delta_prime = reader.number("drive.delta_prime", default=delta)
    omega = reader.number("drive.omega", required=True)
    phi = reader.number("drive.phi", default=0.0)
    phi0 = reader.number("drive.phi0", default=0.0)
    drive = BichromaticParams(
        k=k, k_prime=k_prime, delta=delta, delta_prime=delta_prime,
        omega=omega, phi=phi, phi0=phi0, modes=modes,
    )

    state = None
    if mode in ("evolve", "tomo-synth", "tomo-invert", "wigner"):
        state = _read_state(reader, hilbert, required=(mode != "tomo-invert" or "state.kind" in reader.raw))
        if mode == "evolve" and state is not None and state.kind == "thermal":
            raise ConfigError("evolve mode needs a pure state; 'state.kind = thermal' is a mixture")

    cfg = dict(mode=mode, seed=int(seed), hilbert=hilbert, modes=modes, drive=drive, state=state)

    if mode in ("bell-phi", "bell-psi"):
        cfg["bell_sign"] = reader.sign("bell.sign")
        cfg["bell_start_sign"] = reader.sign("bell.start_sign")
        cfg["bell_engine"] = reader.string("bell.engine", default="effective", choices={"effective", "exact"})
        vib_c = reader.number("bell.n_c", default=0, lo=0, hi=n_max_c, integer=True)
        vib_r = reader.number("bell.n_r", default=0, lo=0, hi=n_max_r, integer=True)
        cfg["bell_vib"] = (vib_c, vib_r)
        # accepted, range-checked and echoed as 'threads' is, with no effect: no engine steps in time
        reader.number("bell.dt_max", default=0.05, lo=1e-9)
    if mode == "bell-psi":
        cfg["carrier_omega"] = reader.number("carrier.omega", default=abs(omega), lo=0.0)
        varphi = reader.number("carrier.varphi")
        if varphi is None:
            varphi = carrier_phase_for(cfg["bell_start_sign"], drive)
            reader._note("carrier.varphi", varphi)  # echo the derived phase-matched value
        cfg["carrier_varphi"] = varphi
        cfg["carrier_varphi0"] = reader.number("carrier.varphi0", default=0.0)

    if mode in ("tomo-synth", "tomo-invert", "wigner"):
        cfg["shots"] = reader.number("tomo.shots", default=0, lo=0, integer=True)
        cfg["n_fit_c"] = reader.number("tomo.n_fit_c", default=n_max_c - 2, lo=0, hi=n_max_c - 2, integer=True)
        cfg["n_fit_r"] = reader.number("tomo.n_fit_r", default=n_max_r - 2, lo=0, hi=n_max_r - 2, integer=True)
        cfg["ridge"] = reader.number("tomo.ridge", default=0.0, lo=0.0)
        cfg["tau_count"] = reader.number("tomo.tau_count", default=0, lo=0, integer=True)
        cfg["tau_max"] = reader.number("tomo.tau_max", default=0.0, lo=0.0)
    if mode == "tomo-invert":
        cfg["signal_file"] = reader.string("tomo.signal_file")
        if cfg["signal_file"] is None and state is None:
            raise ConfigError("tomo-invert needs either tomo.signal_file or a [state] section")
    # the default tau span is pi over the closest fit-frequency gap, which a single cell lacks
    synthesises = mode in ("tomo-synth", "wigner") or (mode == "tomo-invert" and cfg["signal_file"] is None)
    if synthesises and cfg["n_fit_c"] == cfg["n_fit_r"] == 0 and cfg["tau_max"] == 0:
        raise ConfigError("a one-cell fit grid (tomo.n_fit_c = tomo.n_fit_r = 0) needs an explicit tomo.tau_max")

    if mode == "wigner":
        cfg["alphas"] = _read_alphas(reader)

    if mode == "evolve":
        cfg["evolve_t"] = reader.number("evolve.t", required=True)
        cfg["evolve_samples"] = reader.number("evolve.samples", default=50, lo=2, integer=True)
        cfg["evolve_engine"] = reader.string("evolve.engine", default="exact", choices={"effective", "exact"})
        if cfg["evolve_engine"] == "exact" and k + k_prime == 0:
            raise ConfigError("exact evolve needs drive.k + drive.k_prime > 0: two carrier tones have no static frame")
        reader.number("evolve.dt_max", default=0.05, lo=1e-9)  # accepted and echoed, as the bell key is

    reader.reject_unknown()
    return RunConfig(echo=tuple(reader.echo), **cfg)


def _read_state(reader: _Reader, hilbert: HilbertConfig, required: bool) -> StateSpec | None:
    kind = reader.string("state.kind", choices={"fock", "thermal", "coherent", "superposition"}, required=required)
    if kind is None:
        return None
    if kind == "fock":
        n_c = reader.number("state.n_c", default=0, lo=0, hi=hilbert.n_max_c, integer=True)
        n_r = reader.number("state.n_r", default=0, lo=0, hi=hilbert.n_max_r, integer=True)
        return StateSpec.fock(n_c, n_r)
    if kind == "thermal":
        nbar_c = reader.number("state.nbar_c", default=0.0, lo=0.0)
        nbar_r = reader.number("state.nbar_r", default=0.0, lo=0.0)
        return StateSpec.thermal(nbar_c, nbar_r)
    if kind == "coherent":
        ac = complex(
            reader.number("state.alpha_c_re", default=0.0),
            reader.number("state.alpha_c_im", default=0.0),
        )
        ar = complex(
            reader.number("state.alpha_r_re", default=0.0),
            reader.number("state.alpha_r_im", default=0.0),
        )
        return StateSpec.coherent(ac, ar)
    groups = reader.tuples("state.terms", arity=4, required=True)
    terms = []
    for n_c, n_r, re, im in groups:
        if n_c != int(n_c) or n_r != int(n_r) or not (0 <= n_c <= hilbert.n_max_c and 0 <= n_r <= hilbert.n_max_r):
            raise ConfigError(
                f"'state.terms' Fock indices ({n_c:g}, {n_r:g}) must be integers within the truncation"
            )
        terms.append((int(n_c), int(n_r), complex(re, im)))
    return StateSpec.superposition(terms)


def _read_alphas(reader: _Reader) -> tuple[tuple[complex, complex], ...]:
    explicit = reader.tuples("wigner.alphas", arity=4)
    line = reader.tuples("wigner.alpha_c_line", arity=3)
    if (explicit is None) == (line is None):
        raise ConfigError("wigner mode needs exactly one of 'wigner.alphas' or 'wigner.alpha_c_line'")
    if explicit is not None:
        return tuple((complex(a, b), complex(c, d)) for a, b, c, d in explicit)
    start, stop, count = line[0]
    if count != int(count) or count < 1:
        raise ConfigError("'wigner.alpha_c_line' count must be a positive integer")
    return tuple((complex(a), 0j) for a in _linspace(start, stop, int(count)))


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _header(config: RunConfig) -> list[str]:
    lines = [f"# vibronic {__version__}"]
    lines += [f"# {key} = {value}" for key, value in config.echo]
    return lines


def _write(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _linspace(start: float, stop: float, count: int) -> np.ndarray:
    """np.linspace, reporting a count beyond numpy's array size limit as MemoryError."""
    try:
        return np.linspace(start, stop, count)
    except (ValueError, IndexError):  # numpy rejects the size before allocating
        raise MemoryError(f"{count} points exceed the largest array numpy can index") from None


def _tau_grid(config: RunConfig) -> np.ndarray:
    span = config.tau_max or default_tau_grid(config.drive, config.n_fit_c, config.n_fit_r)[-1]
    count = config.tau_count or 4 * (config.n_fit_c + 1) * (config.n_fit_r + 1)
    return _linspace(0.0, span, count)


# ---------------------------------------------------------------------------
# mode implementations
# ---------------------------------------------------------------------------


def _run_spectrum(config: RunConfig, out_dir: str) -> list[str]:
    spec = rabi_spectrum(config.drive, config.hilbert.n_max_c, config.hilbert.n_max_r)
    lines = _header(config) + ["n_c,n_r,omega_k"]
    for n_c in range(spec.values.shape[0]):
        for n_r in range(spec.values.shape[1]):
            lines.append(f"{n_c},{n_r},{_fmt(spec.values[n_c, n_r])}")
    _write(os.path.join(out_dir, "spectrum.csv"), lines)
    return [f"spectrum: {spec.values.size} rates -> spectrum.csv"]

def _run_evolve(config: RunConfig, out_dir: str) -> list[str]:
    cfg = config.hilbert
    vib = make_vib_vector(config.state, cfg)
    amps = np.zeros(cfg.dim, dtype=complex)
    amps[: cfg.dim_vib] = vib  # electronic |dd> block comes first
    psi0 = JointState(amps=amps, config=cfg)
    times = np.linspace(0.0, config.evolve_t, config.evolve_samples)
    rows = []
    if config.evolve_engine == "effective":
        prop = FactoredPropagator(*effective_factors(config.drive, cfg))
        states = [prop.apply(psi0, t) for t in times]
    else:
        states = [propagate_bichromatic(config.drive, cfg, psi0, t) for t in times]
    for t, st in zip(times, states):
        pops = np.sum(np.abs(st.tensor()) ** 2, axis=(1, 2))
        rows.append(f"{_fmt(t)}," + ",".join(_fmt(p) for p in pops))
    lines = _header(config) + ["t,p_dd,p_du,p_ud,p_uu"] + rows
    _write(os.path.join(out_dir, "evolve.csv"), lines)
    return [f"evolve: {len(times)} samples ({config.evolve_engine} engine) -> evolve.csv"]


def _amplitude_rows(state: JointState) -> list[str]:
    rows = []
    tens = state.tensor()
    for e, label in enumerate(ELEC_LABELS):
        for n_c in range(tens.shape[1]):
            for n_r in range(tens.shape[2]):
                amp = tens[e, n_c, n_r]
                if abs(amp) > 1e-12:
                    rows.append(f"{label},{n_c},{n_r},{_fmt(amp.real)},{_fmt(amp.imag)}")
    return rows


def _run_bell(config: RunConfig, out_dir: str) -> list[str]:
    if config.mode == "bell-phi":
        state, fid, seq = make_phi(
            config.bell_sign, config.drive, config.hilbert,
            vib=config.bell_vib, engine=config.bell_engine,
        )
        name = "bell_phi.csv"
    else:
        carrier = CarrierParams(
            omega=config.carrier_omega, varphi=config.carrier_varphi,
            varphi0=config.carrier_varphi0, modes=config.modes,
        )
        state, fid, seq = make_psi(
            config.bell_start_sign, config.drive, carrier, config.hilbert,
            vib=config.bell_vib, engine=config.bell_engine,
        )
        name = "bell_psi.csv"
    lines = _header(config)
    lines.append(f"# fidelity = {fid:.10f}")
    lines.append(f"# prefactor_phase = {_fmt(seq.prefactor_phase)}")
    for i, pulse in enumerate(seq.pulses):
        lines.append(f"# pulse_{i} = {pulse.kind} duration {_fmt(pulse.duration)}")
    lines.append("elec,n_c,n_r,re_amp,im_amp")
    lines += _amplitude_rows(state)
    _write(os.path.join(out_dir, name), lines)
    return [f"{config.mode}: fidelity {fid:.6f} -> {name}"]


def _run_tomo_synth(config: RunConfig, out_dir: str) -> list[str]:
    record = _load_record(config)
    lines = _header(config) + ["# signal record follows"] + record.to_text().splitlines()
    _write(os.path.join(out_dir, "signal.csv"), lines)
    return [f"tomo-synth: {record.taus.size} samples, shots={config.shots} -> signal.csv"]


def _load_record(config: RunConfig) -> SignalRecord:
    if config.signal_file is not None:
        with open(config.signal_file, "r", encoding="utf-8") as fh:
            return SignalRecord.from_text(fh.read())
    rho = make_vib_state(config.state, config.hilbert)
    taus = _tau_grid(config)
    return synth_signal(rho, taus, config.drive, shots=config.shots, seed=config.seed)


def _run_tomo_invert(config: RunConfig, out_dir: str) -> list[str]:
    record = _load_record(config)
    est = invert_populations(record, config.n_fit_c, config.n_fit_r, ridge=config.ridge)
    lines = _header(config)
    lines.append(f"# residual_norm = {_fmt(est.residual_norm)}")
    lines.append(f"# condition_number = {_fmt(est.condition_number)}")
    lines.append("n_c,n_r,population")
    for n_c in range(est.pi.shape[0]):
        for n_r in range(est.pi.shape[1]):
            lines.append(f"{n_c},{n_r},{_fmt(est.pi[n_c, n_r])}")
    _write(os.path.join(out_dir, "populations.csv"), lines)
    return [
        f"tomo-invert: {est.pi.size} populations, residual {est.residual_norm:.3e} -> populations.csv"
    ]


def _run_wigner(config: RunConfig, out_dir: str) -> list[str]:
    rho = make_vib_state(config.state, config.hilbert)
    taus = _tau_grid(config)
    points = protocol_run(
        rho, config.alphas, taus, config.drive,
        shots=config.shots, seed=config.seed,
        n_fit_c=config.n_fit_c, n_fit_r=config.n_fit_r,
        ridge=config.ridge,
    )
    head = ["re_ac,im_ac,re_ar,im_ar,w"]
    est_lines = _header(config) + head
    oracle_lines = _header(config) + head
    for pt, (ac, ar) in zip(points, config.alphas):
        coords = f"{_fmt(ac.real)},{_fmt(ac.imag)},{_fmt(ar.real)},{_fmt(ar.imag)}"
        est_lines.append(f"{coords},{_fmt(pt.wigner.w)}")
        oracle_lines.append(f"{coords},{_fmt(pt.w_exact)}")
    _write(os.path.join(out_dir, "wigner.csv"), est_lines)
    _write(os.path.join(out_dir, "wigner_oracle.csv"), oracle_lines)
    return [f"wigner: {len(points)} points -> wigner.csv (+ wigner_oracle.csv)"]


def _run_validate(config: RunConfig, out_dir: str) -> tuple[list[str], bool]:
    from .acceptance import run_all

    results = run_all()
    lines = _header(config)
    summaries = []
    for res in results:
        lines.append(res.report_line())
        summaries.append(res.report_line())
    _write(os.path.join(out_dir, "validate.txt"), lines)
    return summaries, all(r.passed for r in results)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(config: RunConfig, out_dir: str) -> tuple[list[str], int]:
    """Execute one mode; returns (summary lines, exit code)."""
    os.makedirs(out_dir, exist_ok=True)
    if config.mode == "spectrum":
        return _run_spectrum(config, out_dir), 0
    if config.mode == "evolve":
        return _run_evolve(config, out_dir), 0
    if config.mode in ("bell-phi", "bell-psi"):
        return _run_bell(config, out_dir), 0
    if config.mode == "tomo-synth":
        return _run_tomo_synth(config, out_dir), 0
    if config.mode == "tomo-invert":
        return _run_tomo_invert(config, out_dir), 0
    if config.mode == "wigner":
        return _run_wigner(config, out_dir), 0
    summaries, ok = _run_validate(config, out_dir)
    return summaries, 0 if ok else 3


def _integer(text: str) -> int:
    """An integer literal as the config keys read it (16, 0x10, 0o20, 0b10000)."""
    return int(text, 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibronic",
        description="Two-ion vibronic dynamics, Bell-state pulses and motional tomography.",
    )
    parser.add_argument("--config", required=True, help="path to the run configuration file")
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--seed", type=_integer, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    return parser


# built once per process: parse_args keeps no state between calls
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return 4

    try:
        config = parse_config(text, seed_override=args.seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"config error: out of memory: {err}", file=sys.stderr)
        return 2

    try:
        summaries, code = run(config, args.out)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4

    if not args.quiet:
        for line in summaries:
            print(line)
        if config.drive is not None:
            for msg in resonance_guard(config.drive):
                print(f"note: {msg}")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
