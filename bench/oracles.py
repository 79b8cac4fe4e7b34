"""Independent checks of each job's output files.

``check(job, out_dir)`` returns None when the output is right and a short
reason otherwise.  The oracles per workload:

* full-drive: the state norm is conserved (the stepper's drift is ~1e-11,
  the tolerance 1e-6), the populations follow the effective two-photon
  flop to within the leakage the detuning allows, and the canonical
  check-4 pulse reproduces its reference fidelity to 1e-5.  That admits the
  stepper's ~6e-7 step error and an exact engine, but not a wrong engine.
* static-generator: amplitudes and populations equal the closed forms
  ``closed_form_dispersive`` / ``closed_form_carrier`` to 1e-9, Bell
  fidelities are 1 to 1e-9, and spectrum rates equal the Laguerre formula
  evaluated here with scipy.
* tomography: Wigner values are scored against the parity sum of the
  exact displaced populations (what ``wigner_direct`` computes, rebuilt
  here from the state recipe with scipy's ``expm``, so a defect in the
  package's displacement or state construction cannot cancel), inverted
  populations against the exact populations, and synthesised signals
  against the cos^2 model.  With shots > 0 the tolerance is six standard deviations of the
  binomial noise: on the signal directly, and on the estimates through the
  least-squares gain of the design and the rescaling of fits that sum
  above 1.  Over 10^4 noisy Wigner points of 400 seeds the largest error
  was 3.5 of the least-squares deviations.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np
from scipy.linalg import expm
from scipy.special import eval_genlaguerre

from workloads import CANONICAL_FIDELITY, Job

NORM_TOL = 1e-6
CANONICAL_TOL = 1e-5
CLOSED_FORM_TOL = 1e-9
NOISELESS_TOMO_TOL = 1e-6
WIGNER_BOUND = 4.0 / math.pi**2
# full drive against the effective model: the exact dynamics leave the
# two-photon flop by O(1 / ratio^2).  On this workload's ratios (15..40) the
# worst fidelity seen was 0.979 and the worst population deviation 0.022, so
# the bounds hold with a wide margin, and an engine that does not flop fails
FULL_FIDELITY_MIN = 0.85
FULL_POP_TOL = 0.15


def _read(path: str):
    """Header dict ('# key = value' lines) and the rows below the column line."""
    header, rows, columns = {}, [], None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, sep, value = line.lstrip("#").partition("=")
                if sep:
                    header[key.strip()] = value.strip()
            elif columns is None:
                columns = line
            elif line:
                rows.append(line.split(","))
    return header, rows


def _amplitudes(rows, hilbert) -> np.ndarray:
    """(4, n_c + 1, n_r + 1) complex amplitudes from elec,n_c,n_r,re,im rows."""
    out = np.zeros((4, hilbert[0] + 1, hilbert[1] + 1), complex)
    labels = ("dd", "du", "ud", "uu")
    for row in rows:
        out[labels.index(row[0]), int(row[1]), int(row[2])] = complex(float(row[3]), float(row[4]))
    return out


# ---------------------------------------------------------------------------
# physics the oracles share


def rates(drive: dict, n_max_c: int, n_max_r: int) -> np.ndarray:
    """Signed dispersive rates Omega^k_{n_c n_r} from scipy's Laguerre polynomials."""
    k, eta = drive["k"], drive["eta"]
    eta_r = eta * 3.0 ** -0.25
    n_c = np.arange(n_max_c + 1)[:, None]
    n_r = np.arange(n_max_r + 1)[None, :]
    rising = np.array([math.perm(n + k, k) for n in range(n_max_c + 1)], float)[:, None]
    falling = np.array([math.perm(n, k) if n >= k else 0 for n in range(n_max_c + 1)], float)[:, None]
    f = (math.exp(-(eta**2 + eta_r**2) / 2.0) / rising
         * eval_genlaguerre(n_c, k, eta**2) * eval_genlaguerre(n_r, 0, eta_r**2))
    scale = 2.0 * abs(drive["omega"]) ** 2 * (-1.0) ** k * eta ** (2 * k) / drive["delta"]
    return scale * f * f * (falling - rising)


def _params(drive: dict):
    from vibronic.dynamics import BichromaticParams
    from vibronic.fockspace import ModeParams

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the job itself reported its regime warnings
        return BichromaticParams.symmetric(
            k=drive["k"], delta=drive["delta"], omega=drive["omega"],
            phi=drive["phi"], phi0=drive["phi0"], modes=ModeParams(eta=drive["eta"]),
        )


def _flop_populations(spec: dict, times: np.ndarray) -> np.ndarray:
    """(samples, 4) electronic populations of the effective flop from |dd> x vib."""
    from vibronic.dynamics import closed_form_dispersive

    p = _params(spec["drive"])
    state = spec["state"]
    if state[0] == "fock":
        weights = {(state[1], state[2]): 1.0}
    else:
        amps = {(a, b): complex(re, im) for a, b, re, im in state[1]}
        total = sum(abs(v) ** 2 for v in amps.values())
        weights = {key: abs(v) ** 2 / total for key, v in amps.items()}
    out = np.zeros((times.size, 4))
    for (n_c, n_r), w in weights.items():
        for i, t in enumerate(times):
            a_dd, a_uu = closed_form_dispersive(n_c, n_r, p, float(t))
            out[i, 0] += w * abs(a_dd) ** 2
            out[i, 3] += w * abs(a_uu) ** 2
    return out


def _bell_closed_form(spec: dict, header: dict) -> np.ndarray:
    """Electronic amplitudes at the input level after the recorded pulses."""
    from vibronic.bellgen import carrier_phase_for
    from vibronic.dynamics import CarrierParams, closed_form_carrier, closed_form_dispersive

    p = _params(spec["drive"])
    n_c, n_r = spec["vib"]
    t_disp = float(header["pulse_0"].split()[-1])
    a_dd, a_uu = closed_form_dispersive(n_c, n_r, p, t_disp)
    if "pulse_1" not in header:
        return np.array([a_dd, 0, 0, a_uu])
    pc = CarrierParams(
        omega=spec["carrier_omega"], varphi=carrier_phase_for(spec["sign"], p),
        varphi0=spec["varphi0"], modes=p.modes,
    )
    t0 = float(header["pulse_1"].split()[-1])
    plus, minus = (a_dd + a_uu) / math.sqrt(2.0), (a_dd - a_uu) / math.sqrt(2.0)
    return plus * closed_form_carrier(1, pc, n_c, n_r, t0) + minus * closed_form_carrier(-1, pc, n_c, n_r, t0)


# ---------------------------------------------------------------------------
# per-mode checks


def _check_bell(job: Job, out_dir: str) -> str | None:
    name = "bell_phi.csv" if job.mode == "bell-phi" else "bell_psi.csv"
    header, rows = _read(os.path.join(out_dir, name))
    fid = float(header["fidelity"])
    spec = job.spec
    if spec.get("canonical"):
        amps = _amplitudes(rows, (10, 2))
        drift = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
        if drift > NORM_TOL:
            return f"norm drift {drift:.2e}"
        if abs(fid - CANONICAL_FIDELITY) > CANONICAL_TOL:
            return f"canonical fidelity {fid:.7f}, reference {CANONICAL_FIDELITY}"
        return None
    amps = _amplitudes(rows, spec["hilbert"])
    drift = abs(float(np.sum(np.abs(amps) ** 2)) - 1.0)
    if drift > NORM_TOL:
        return f"norm drift {drift:.2e}"
    if spec["engine"] == "exact":
        return None if fid >= FULL_FIDELITY_MIN else f"fidelity {fid:.4f} < {FULL_FIDELITY_MIN}"
    if abs(fid - 1.0) > CLOSED_FORM_TOL:
        return f"effective fidelity {fid:.12f} != 1"
    want = _bell_closed_form(spec, header)
    got = amps[:, spec["vib"][0], spec["vib"][1]]
    dev = float(np.abs(got - want).max())
    rest = float(np.sum(np.abs(amps) ** 2) - np.sum(np.abs(got) ** 2))
    if dev > CLOSED_FORM_TOL or abs(rest) > CLOSED_FORM_TOL:
        return f"closed-form deviation {dev:.2e}, weight off the input level {rest:.2e}"
    return None


def _check_evolve(job: Job, out_dir: str) -> str | None:
    _, rows = _read(os.path.join(out_dir, "evolve.csv"))
    data = np.array(rows, float)
    times, pops = data[:, 0], data[:, 1:]
    drift = float(np.abs(pops.sum(axis=1) - 1.0).max())
    if drift > NORM_TOL:
        return f"norm drift {drift:.2e}"
    dev = float(np.abs(pops - _flop_populations(job.spec, times)).max())
    tol = FULL_POP_TOL if job.workload == "full-drive" else CLOSED_FORM_TOL
    return None if dev <= tol else f"populations deviate from the effective flop by {dev:.2e}"


def _check_spectrum(job: Job, out_dir: str) -> str | None:
    _, rows = _read(os.path.join(out_dir, "spectrum.csv"))
    got = np.array([float(r[2]) for r in rows]).reshape(job.spec["hilbert"][0] + 1, -1)
    want = rates(job.spec["drive"], *job.spec["hilbert"])
    dev = float(np.abs(got - want).max() / np.abs(want).max())
    return None if dev <= CLOSED_FORM_TOL else f"rates deviate by {dev:.2e} (relative)"


def _displacement(alpha: complex, dim: int) -> np.ndarray:
    """exp(alpha a^dag - alpha* a) of the generator truncated to ``dim`` levels.

    The package's states live on the truncated grid, so this is the same
    operator its displacement stands for, built here from its own ladder
    operator and exponentiated by scipy's Pade ``expm`` rather than the
    package's eigendecomposition.
    """
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    return expm(alpha * a.T - np.conj(alpha) * a)


def _populations(spec: dict, alpha_c: complex = 0j) -> np.ndarray:
    """(dim_c, dim_r) Fock populations of D_c^dag(alpha_c) rho D_c(alpha_c).

    The density matrix rho is built here from the job's state recipe, with
    the package's conventions: thermal weights renormalised on the grid and
    a coherent state displaced from the ground state on the grid.
    """
    dim_c, dim_r = spec["hilbert"][0] + 1, spec["hilbert"][1] + 1
    kind, *args = spec["state"]
    psi = np.zeros((dim_c, dim_r), complex)
    if kind == "thermal":
        weights = args[0] ** np.arange(dim_c) / (args[0] + 1.0) ** np.arange(1, dim_c + 1)
        rho = np.zeros((dim_c * dim_r, dim_c * dim_r), complex)
        rho[::dim_r, ::dim_r] = np.diag(weights / weights.sum())  # n_r = 0
    else:
        if kind == "fock":
            psi[args[0], args[1]] = 1.0
        elif kind == "coherent":
            psi[:, 0] = _displacement(args[0], dim_c)[:, 0]
        else:
            for n_c, n_r, re, im in args[0]:
                psi[n_c, n_r] += complex(re, im)
        psi = psi.ravel() / np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
    u = np.kron(_displacement(alpha_c, dim_c), np.eye(dim_r))
    return np.real(np.diag(u.conj().T @ rho @ u)).reshape(dim_c, dim_r)


def _noise_gain(job: Job) -> np.ndarray:
    """Least-squares map from the signal to the fitted populations.

    Rows are the pseudo-inverse of the cos^2 design on the CLI's default
    tau grid (four samples per unknown over pi / closest rate gap), which
    is rebuilt here from the Laguerre rates.
    """
    fit_c, fit_r = job.spec["fit"]
    freqs = np.abs(rates(job.spec["drive"], fit_c, fit_r)).ravel()
    span = math.pi / float(np.diff(np.sort(freqs)).min())
    taus = np.linspace(0.0, span, 4 * freqs.size)
    return taus, np.linalg.pinv(np.cos(np.outer(taus, freqs)) ** 2)


def _tomo_tolerance(job: Job, weights: np.ndarray, pops: np.ndarray) -> np.ndarray:
    """Tolerance of the estimates ``weights @ fitted populations``.

    Six standard deviations of the shot noise propagated through the
    least-squares gain, plus the same for the rescaling of a fit whose sum
    exceeds 1 (it moves each estimate by its value times the excess), plus
    the bias of the population outside the fit grid.
    """
    fit_c, fit_r = job.spec["fit"]
    taus, pinv = _noise_gain(job)
    gain = weights @ pinv
    inside = pops[: fit_c + 1, : fit_r + 1].ravel()
    tail = float(pops.sum() - inside.sum())
    tol = NOISELESS_TOMO_TOL + 4.0 * tail * np.abs(gain).sum(axis=1)
    shots = job.spec["shots"]
    if shots:
        freqs = np.abs(rates(job.spec["drive"], *job.spec["hilbert"])).ravel()
        signal = np.clip(np.cos(np.outer(taus, freqs)) ** 2 @ pops.ravel(), 0.0, 1.0)
        var = signal * (1.0 - signal) / shots
        total_sigma = math.sqrt(float(pinv.sum(axis=0) ** 2 @ var))
        tol = tol + 6.0 * (np.sqrt(gain**2 @ var) + np.abs(weights @ inside) * total_sigma)
    return tol


def _check_wigner(job: Job, out_dir: str) -> str | None:
    _, rows = _read(os.path.join(out_dir, "wigner.csv"))
    start, stop, count = job.spec["alpha_line"]
    if len(rows) != count:
        return f"{len(rows)} Wigner points, expected {count}"
    fit_c, fit_r = job.spec["fit"]
    parity = (-1.0) ** np.add.outer(np.arange(fit_c + 1), np.arange(fit_r + 1)).ravel()
    for row, alpha in zip(rows, np.linspace(start, stop, count)):
        pops = _populations(job.spec, complex(alpha))
        want = WIGNER_BOUND * float(np.sum((-1.0) ** np.add.outer(*map(np.arange, pops.shape)) * pops))
        dev = abs(float(row[4]) - want)
        tol = float(_tomo_tolerance(job, WIGNER_BOUND * parity[None, :], pops)[0])
        if dev > tol:
            return f"Wigner deviation {dev:.3e} at alpha {alpha:.3f} (tolerance {tol:.3e})"
    return None


def _check_invert(job: Job, out_dir: str) -> str | None:
    _, rows = _read(os.path.join(out_dir, "populations.csv"))
    fit_c, fit_r = job.spec["fit"]
    got = np.array([float(r[2]) for r in rows])
    pops = _populations(job.spec)
    want = pops[: fit_c + 1, : fit_r + 1].ravel()
    excess = np.abs(got - want) - _tomo_tolerance(job, np.eye(want.size), pops)
    worst = int(np.argmax(excess))
    if excess[worst] > 0:
        return f"population {worst} deviates by {abs(got - want)[worst]:.3e}, beyond its error bar"
    return None


def _check_synth(job: Job, out_dir: str) -> str | None:
    _, rows = _read(os.path.join(out_dir, "signal.csv"))
    data = np.array(rows, float)
    taus, p_dd = data[:, 0], data[:, 1]
    pops = _populations(job.spec).ravel()
    freqs = np.abs(rates(job.spec["drive"], *job.spec["hilbert"])).ravel()
    model = np.clip(np.cos(np.outer(taus, freqs)) ** 2 @ pops, 0.0, 1.0)
    shots = job.spec["shots"]
    if shots == 0:
        tol = np.full(model.size, NOISELESS_TOMO_TOL)
    else:
        tol = 6.0 * np.sqrt(model * (1.0 - model) / shots) + 1.5 / shots
    excess = float(np.max(np.abs(p_dd - model) - tol))
    return None if excess <= 0 else f"signal outside its error bars by {excess:.2e}"


_CHECKS = {
    "bell-phi": _check_bell,
    "bell-psi": _check_bell,
    "evolve": _check_evolve,
    "spectrum": _check_spectrum,
    "wigner": _check_wigner,
    "tomo-invert": _check_invert,
    "tomo-synth": _check_synth,
}


def check(job: Job, out_dir: str) -> str | None:
    """None when ``out_dir`` holds the right output for ``job``, else why not."""
    try:
        return _CHECKS[job.mode](job, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return f"unreadable output: {type(err).__name__}: {err}"
