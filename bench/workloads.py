"""Job decks for the three benchmark workloads.

A job is one CLI config (``text``) plus the parameters its oracle needs
(``spec``), both drawn from the benchmark seed.  Jobs come in decks: a
deck is a fixed sequence of job templates.  The sizes that set a job's
cost (grid, detuning ratio, samples) follow a schedule over the slot in
the deck and the deck index that covers each workload's ranges, with a
little seeded jitter; phases, Lamb-Dicke factors, states and the rest are
drawn from the seed.  So runs on different seeds measure the same mix of
work on different inputs.  A run executes whole rounds of decks (see
run.py), so its job mix is a whole number of identical rounds.

Deck ``d`` of seed ``s`` is drawn from ``numpy.random.default_rng((s, d))``
and does not depend on how many decks came before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("full-drive", "static-generator", "tomography")

# check-4 pulse of the acceptance battery: full drive at detuning 20x the
# sideband coupling; the stepper gives fidelity 0.9823380 (the rotating-frame
# solution differs from it by ~6e-7)
CANONICAL_FIDELITY = 0.982338
CANONICAL_TEXT = """\
mode = bell-phi
threads = 1
[hilbert]
n_max_c = 10
n_max_r = 2
[modes]
eta = 0.1
[drive]
k = 1
delta = 0.06
omega = 0.03
[bell]
sign = +
engine = exact
"""


@dataclass
class Job:
    """One CLI run: the config text and what its oracle needs to know."""

    workload: str
    mode: str
    text: str
    spec: dict = field(default_factory=dict)
    label: str = ""


def _num(x: float) -> str:
    return repr(float(x))


def _coupling00(k: int, eta: float, eta_r: float) -> float:
    """f_k(0, 0): the Debye-Waller factor over k! (Laguerre factors are 1)."""
    return math.exp(-(eta**2 + eta_r**2) / 2.0) / math.factorial(k)


def _drive_lines(d: dict) -> list[str]:
    return [
        "[modes]",
        f"eta = {_num(d['eta'])}",
        "[drive]",
        f"k = {d['k']}",
        f"delta = {_num(d['delta'])}",
        f"omega = {_num(d['omega'])}",
        f"phi = {_num(d['phi'])}",
        f"phi0 = {_num(d['phi0'])}",
    ]


def _dispersive_drive(rng, k: int, ratio: float, delta_range, eta_range, signed: bool) -> dict:
    """Symmetric drive whose |delta| is ``ratio`` times eta^k |Omega| f_k(0,0).

    The Bell recipes assume delta > 0 (a negative detuning swaps which Phi
    state a pulse reaches), so only ``signed`` drives get a random sign.
    """
    eta = float(rng.uniform(*eta_range))
    eta_r = eta * 3.0 ** -0.25
    delta = float(rng.uniform(*delta_range))
    if signed and rng.random() < 0.5:
        delta = -delta
    omega = abs(delta) / (ratio * eta**k * _coupling00(k, eta, eta_r))
    return dict(
        k=k, eta=eta, delta=delta, omega=omega,
        phi=float(rng.uniform(-math.pi, math.pi)),
        phi0=float(rng.uniform(-math.pi, math.pi)),
    )


def _stratum(rng, lo: float, hi: float, position: int, count: int) -> float:
    """A draw near the middle of slice ``position % count`` of [lo, hi).

    The jitter spans a fifth of the slice, so a deck's cost barely depends
    on the seed while its parameters still do.
    """
    width = (hi - lo) / count
    return lo + width * (position % count + 0.5 + 0.2 * (rng.random() - 0.5))


def _config(mode: str, hilbert: tuple[int, int], drive: dict, extra: list[str]) -> str:
    lines = [f"mode = {mode}", "threads = 1", "[hilbert]",
             f"n_max_c = {hilbert[0]}", f"n_max_r = {hilbert[1]}"]
    return "\n".join(lines + _drive_lines(drive) + extra) + "\n"


# ---------------------------------------------------------------------------
# full-drive: time-dependent two-tone drive through the midpoint stepper


# Two alternating deck layouts.  Each slot is (mode, k, Bell sign, slice of
# the detuning ratio 15..40 in fifths, evolve samples, evolve time in units
# of the quarter period).  Stepper work grows with ratio^2, halves for k = 2,
# triples for the sign -1 (three-quarter) pulse and grows with the evolve
# samples and time; the slots pair these so that every job costs about the
# same, which keeps the median job steady.  Two decks cover k in {1, 2} for
# every mode, all five ratio slices and 3..6 evolve samples.  Grids cycle
# through _FULL_GRIDS; the seed draws phases, Lamb-Dicke factors and jitter.
_FULL_DECKS = (
    (("bell-phi", 1, 1, 4, 0, 0.0), ("evolve", 2, 0, 3, 5, 1.0), ("bell-psi", 2, -1, 2, 0, 0.0),
     ("bell-phi", 1, -1, 1, 0, 0.0), ("evolve", 1, 0, 0, 6, 1.5)),
    (("bell-psi", 1, 1, 4, 0, 0.0), ("evolve", 2, 0, 3, 4, 1.25), ("bell-phi", 2, -1, 2, 0, 0.0),
     ("bell-psi", 1, -1, 1, 0, 0.0), ("evolve", 1, 0, 0, 3, 3.0)),
)
_FULL_GRIDS = ((6, 1), (8, 2), (10, 1), (7, 2), (9, 1), (10, 2), (6, 2), (8, 1), (9, 2), (7, 1))
_FULL_DT = 0.2  # midpoint step; its error stays far below the oracle's tolerance


def _bell_lines(rng, engine: str, sign: int, vib: tuple[int, int], mode: str, spec: dict, dt: float | None) -> list[str]:
    spec.update(sign=sign, vib=vib, engine=engine)
    lines = ["[bell]", f"sign = {'+' if sign > 0 else '-'}", f"start_sign = {'+' if sign > 0 else '-'}",
             f"engine = {engine}", f"n_c = {vib[0]}", f"n_r = {vib[1]}"]
    if dt is not None:
        lines.append(f"dt_max = {_num(dt)}")
    if mode == "bell-psi":
        carrier_omega = float(rng.uniform(0.02, 0.1))
        varphi0 = float(rng.uniform(-math.pi, math.pi))
        spec.update(carrier_omega=carrier_omega, varphi0=varphi0)
        lines += ["[carrier]", f"omega = {_num(carrier_omega)}", f"varphi0 = {_num(varphi0)}"]
    return lines


def _pulse_time(drive: dict) -> float:
    """Quarter period pi / (4 |Omega^k_00|) of the (0, 0) two-photon flop."""
    eta = drive["eta"]
    k = drive["k"]
    f = _coupling00(k, eta, eta * 3.0 ** -0.25)
    rate = 2.0 * drive["omega"] ** 2 * eta ** (2 * k) * f * f * math.factorial(k) / abs(drive["delta"])
    return math.pi / (4.0 * rate)


def _full_deck(rng, index: int, tiny: bool) -> list[Job]:
    jobs = []
    for slot, (mode, k, sign, ratio_slice, samples, pulses) in enumerate(_FULL_DECKS[index % 2]):
        # tiny decks use the lowest ratio slice, which gives the shortest pulses
        ratio = _stratum(rng, 15.0, 40.0, 0 if tiny else ratio_slice, 5)
        hilbert = (3, 1) if tiny else _FULL_GRIDS[(slot + 3 * index) % len(_FULL_GRIDS)]
        eta_range = (0.08, 0.15) if k == 1 else (0.2, 0.3)
        # tiny decks drive far off the sideband picture to keep pulses short
        delta_range = (1.0, 1.5) if tiny else (0.18, 0.2)
        drive = _dispersive_drive(rng, k, ratio, delta_range, eta_range, signed=mode == "evolve")
        spec = dict(drive=drive, hilbert=hilbert)
        if mode == "evolve":
            t_end = pulses * _pulse_time(drive)
            spec.update(samples=samples, t_end=t_end, state=("fock", 0, 0))
            extra = ["[state]", "kind = fock", "n_c = 0", "n_r = 0", "[evolve]",
                     f"t = {_num(t_end)}", f"samples = {samples}", "engine = exact", f"dt_max = {_num(_FULL_DT)}"]
        else:
            extra = _bell_lines(rng, "exact", sign, (0, 0), mode, spec, _FULL_DT)
        jobs.append(Job("full-drive", mode, _config(mode, hilbert, drive, extra), spec,
                        f"{mode} k={k} grid={hilbert} ratio={ratio:.1f}"))
    return jobs


def canonical_job() -> Job:
    return Job("full-drive", "bell-phi", CANONICAL_TEXT, dict(canonical=True), "check-4 pulse")


# ---------------------------------------------------------------------------
# static-generator: effective (time-independent) generators, dense eigh


# (mode, grids) per deck slot; slot i of deck d takes grid (i + d) mod len.
# Grids run from (6, 6) to (16, 16), joint dimension 196..1156.  Each deck
# holds two spectra, two small Bell jobs, four middle jobs of 0.2..0.6 s
# (one or two eighs at dimension 440..676, or evolve re-diagonalising 24
# times at dimension 224), one bell-psi of two eighs at 576..624 and two
# large Bell jobs at 900..1156.  Across three decks (33 jobs) the median
# (17th) and the 11th-slowest job (23rd) both fall inside the ten middle
# jobs of 0.3..0.5 s (15th..24th), not at a gap between groups, so they
# stay steady from seed to seed.  Evolve on (6, 6) took 0.22..0.30 s and
# put the median at the gap below that group, where it jumped by 15%.
_SMALL = ((6, 8), (8, 6), (7, 9), (9, 7), (6, 6), (9, 9))
_LARGE = ((14, 16), (16, 15), (15, 14), (16, 16), (15, 15), (14, 14))
_SPECTRUM = ((6, 6), (16, 16), (11, 9), (13, 15), (7, 12), (16, 10))
_EVOLVE = ((6, 7), (7, 6))
_STATIC_TEMPLATES = (
    ("spectrum", _SPECTRUM), ("bell-phi", _SMALL), ("bell-psi", _SMALL),
    ("evolve", _EVOLVE), ("bell-phi", ((11, 12), (12, 11), (12, 12), (11, 11))),
    ("bell-psi", ((11, 12), (12, 11), (11, 11))), ("bell-psi", _LARGE), ("spectrum", _SPECTRUM), ("bell-phi", _LARGE),
    ("bell-psi", ((9, 10), (10, 9), (10, 10))), ("evolve", _EVOLVE),
)
_EVOLVE_SAMPLES = 24


def _static_deck(rng, index: int, tiny: bool) -> list[Job]:
    jobs = []
    for slot, (mode, grids) in enumerate(_STATIC_TEMPLATES):
        position = slot + index
        k = 1 + position % 2
        ratio = _stratum(rng, 15.0, 40.0, position, len(_STATIC_TEMPLATES))
        hilbert = (4, 3) if tiny else grids[position % len(grids)]
        eta_range = (0.08, 0.15) if k == 1 else (0.2, 0.3)
        drive = _dispersive_drive(rng, k, ratio, (0.05, 0.2), eta_range, signed=mode in ("spectrum", "evolve"))
        spec = dict(drive=drive, hilbert=hilbert)
        if mode == "spectrum":
            extra = []
        elif mode == "evolve":
            samples = 4 if tiny else _EVOLVE_SAMPLES
            terms = _superposition(rng, 3, hilbert[0] - 2, hilbert[1] - 2)
            t_end = 2.0 * _pulse_time(drive)
            spec.update(samples=samples, t_end=t_end, state=("superposition", terms))
            extra = ["[state]", "kind = superposition", "terms = " + _terms_text(terms),
                     "[evolve]", f"t = {_num(t_end)}", f"samples = {samples}", "engine = effective"]
        else:
            sign = 1 if rng.random() < 0.5 else -1
            extra = _bell_lines(rng, "effective", sign, (int(rng.integers(0, 2)), 0), mode, spec, None)
        jobs.append(Job("static-generator", mode, _config(mode, hilbert, drive, extra), spec,
                        f"{mode} k={k} grid={hilbert}"))
    return jobs


def _superposition(rng, count: int, n_c_max: int, n_r_max: int):
    """``count`` distinct Fock pairs up to (n_c_max, n_r_max), random complex amplitudes."""
    cells = rng.choice((n_c_max + 1) * (n_r_max + 1), size=count, replace=False)
    return [
        (int(c // (n_r_max + 1)), int(c % (n_r_max + 1)),
         float(rng.uniform(0.3, 1.0)), float(rng.uniform(-0.5, 0.5)))
        for c in cells
    ]


def _terms_text(terms) -> str:
    return "; ".join(f"{a},{b},{_num(re)},{_num(im)}" for a, b, re, im in terms)


# ---------------------------------------------------------------------------
# tomography: displaced-population synthesis, NNLS inversion, Wigner values


# (mode, state, shots) per deck slot.  Two thirds of the jobs are Wigner
# scans, so the median job is a short scan: the 3 ms synth and invert jobs
# are mostly interpreter and file overhead, and their times swing by a
# quarter from one minute to the next on a shared machine.
_TOMO_TEMPLATES = (
    ("wigner", "fock", 0), ("tomo-synth", "thermal", 3000), ("wigner", "superposition", 10_000),
    ("wigner", "coherent", 0), ("tomo-invert", "fock", 10_000), ("wigner", "thermal", 3000),
    ("wigner", "superposition", 0), ("tomo-synth", "coherent", 0), ("wigner", "fock", 3000),
    ("wigner", "thermal", 0), ("tomo-invert", "superposition", 0), ("wigner", "coherent", 10_000),
)


def _tomo_state(rng, kind: str, fit: tuple[int, int]):
    """A state whose (displaced) populations stay well inside the fit grid."""
    if kind == "fock":
        n_c, n_r = int(rng.integers(0, 3)), int(rng.integers(0, fit[1] + 1))
        return ("fock", n_c, n_r), ["kind = fock", f"n_c = {n_c}", f"n_r = {n_r}"]
    if kind == "thermal":
        nbar = float(rng.uniform(0.05, 0.2))
        return ("thermal", nbar), ["kind = thermal", f"nbar_c = {_num(nbar)}", "nbar_r = 0"]
    if kind == "coherent":
        mag = float(rng.uniform(0.2, 0.6))
        ang = float(rng.uniform(-math.pi, math.pi))
        alpha = complex(mag * math.cos(ang), mag * math.sin(ang))
        return ("coherent", alpha), ["kind = coherent", f"alpha_c_re = {_num(alpha.real)}",
                                     f"alpha_c_im = {_num(alpha.imag)}"]
    terms = _superposition(rng, 2, 2, fit[1])
    return ("superposition", terms), ["kind = superposition", "terms = " + _terms_text(terms)]


def _tomo_deck(rng, index: int, tiny: bool) -> list[Job]:
    """Grids, fit sizes and Wigner point counts cycle over slot and deck index
    (the largest jobs set the tail, so their share must not depend on the
    seed); drives, states and displacement reach are drawn."""
    jobs = []
    for slot, (mode, kind, shots) in enumerate(_TOMO_TEMPLATES):
        position = slot + index
        hilbert = (8, 2) if tiny else (12 + (3 * slot + index) % 9, 2 + position % 3)
        # shot-noise records only resolve a small fit grid: near-equal rates of
        # neighbouring high levels swap population under noise
        fit = (min(6 + position % 5, hilbert[0] - 2), 0) if shots else (hilbert[0] - 2, hilbert[1] - 2)
        drive = dict(
            k=1, eta=float(rng.uniform(0.2, 0.25)), delta=float(rng.uniform(0.015, 0.03)),
            omega=float(rng.uniform(0.03, 0.06)), phi=0.0, phi0=0.0,
        )
        state, state_lines = _tomo_state(rng, kind, fit)
        seed = int(rng.integers(0, 2**31))
        spec = dict(drive=drive, hilbert=hilbert, fit=fit, state=state, shots=shots, seed=seed)
        extra = ["[state]", *state_lines, "[tomo]", f"shots = {shots}",
                 f"n_fit_c = {fit[0]}", f"n_fit_r = {fit[1]}"]
        if mode == "wigner":
            points = 3 if tiny else 5 + (5 * slot + 7 * index) % 17
            reach = float(rng.uniform(0.3, 0.8))
            spec.update(alpha_line=(-reach, reach, points))
            extra += ["[wigner]", f"alpha_c_line = {_num(-reach)}, {_num(reach)}, {points}"]
        text = f"seed = {seed}\n" + _config(mode, hilbert, drive, extra)
        jobs.append(Job("tomography", mode, text, spec, f"{mode} {kind} grid={hilbert} shots={shots}"))
    return jobs


_DECKS = {"full-drive": _full_deck, "static-generator": _static_deck, "tomography": _tomo_deck}


def deck(workload: str, seed: int, index: int, tiny: bool = False) -> list[Job]:
    """Deck ``index`` of ``workload`` for ``seed``; ``tiny`` shrinks every size."""
    return _DECKS[workload](np.random.default_rng((seed, index)), index, tiny)
