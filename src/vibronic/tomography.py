"""Motional-state tomography from displaced flopping signals.

The measurement chain: coherently displace the two-mode vibrational state
(rho -> D_c^dag D_r^dag rho D_r D_c), drive the dispersive two-photon
transition for a range of durations tau, and record the probability of
finding both ions fluorescing,

    P_dd(tau) = sum_{n_c, n_r} cos^2(|Omega^k_{n_c n_r}| tau) Pi_{n_c n_r},

where Pi are the displaced Fock populations.  Because each Fock pair flops
at its own rate, the populations can be recovered from the signal; we do
that by non-negative least squares on the cos^2 design matrix (optionally
ridge-regularized for shot-noise records).  An alternating-sign sum of the
recovered populations then gives one point of the two-mode Wigner function

    W(alpha_c, alpha_r) = (4/pi^2) sum (-1)^{n_c+n_r} Pi_{n_c n_r}(-alpha_c, -alpha_r),

normalized so the vacuum origin reads 4/pi^2.  wigner_direct computes the
same value from the exact displaced populations and serves as the oracle for
the full simulated protocol.

protocol_run runs a scan as one batch: one displaced_populations call for
all points, one stacked product for their signals and one shot-draw loop.
Each point's populations also give its exact Wigner value, and each point's
record is then solved on its own.  displaced_populations never forms the
joint unitary D_c (x) D_r: it displaces each vector of the state's exact
ensemble (VibDensity.weights, VibDensity.vectors) one mode at a time, two
small matrix products per point, while displace_vib keeps the dense
product as the reference.

Shot noise draws sample j of a record seeded with s from the substream
SeedSequence((s, j)) through PCG64.  numpy's SeedSequence hash runs over
uint32 arrays to give the generate_state(4, uint64) words of every (s, j) at
once (protocol_run: every point seed, then every point x sample), and numpy
seeds each sample's PCG64 from its words; noise-free runs hash nothing.  The
counts equal per-sample PCG64(SeedSequence((s, j))) draws bit for bit.

scipy is imported on the first NNLS solve only, so the modes that never
solve do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import BichromaticParams, rabi_spectrum
from .fockspace import HilbertConfig, ModeParams, VibDensity, displacement

WIGNER_BOUND = 4.0 / math.pi**2

_FREQ_COLLISION_TOL = 1e-12
_COND_THRESHOLD = 1e8


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


class DegeneracyError(ValueError):
    """The measurement model cannot tell the fitted populations apart."""


def _require_finite(name: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} values must be finite")


def _check_taus(taus: np.ndarray) -> None:
    _require_finite("taus", taus)
    if taus.size > 1 and not np.all(np.diff(taus) > 0):
        raise DegeneracyError("taus must be strictly increasing (degenerate sampling grid)")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignalRecord:
    """One P_dd(tau) measurement series and the drive that generated it.

    shots[j] = 0 marks an exact (noise-free) sample; otherwise p_dd[j] is a
    binomial count divided by shots[j].
    """

    taus: np.ndarray
    p_dd: np.ndarray
    shots: np.ndarray
    params: BichromaticParams
    seed: int

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        p_dd = np.asarray(self.p_dd, dtype=float)
        shots = np.asarray(self.shots, dtype=int)
        if not (taus.shape == p_dd.shape == shots.shape) or taus.ndim != 1:
            raise ValueError("taus, p_dd and shots must be 1-d arrays of equal length")
        _check_taus(taus)
        _require_finite("p_dd", p_dd)
        if np.any((p_dd < 0) | (p_dd > 1)):
            raise ValueError("p_dd values must lie in [0, 1]")
        if np.any(shots < 0):
            raise ValueError("shots must be >= 0")
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "p_dd", p_dd)
        object.__setattr__(self, "shots", shots)

    def to_text(self) -> str:
        p, m = self.params, self.params.modes
        lines = [
            f"# k = {p.k}",
            f"# k_prime = {p.k_prime}",
            f"# delta = {p.delta:.16e}",
            f"# delta_prime = {p.delta_prime:.16e}",
            f"# omega_re = {p.omega.real:.16e}",
            f"# omega_im = {p.omega.imag:.16e}",
            f"# phi = {p.phi:.16e}",
            f"# phi0 = {p.phi0:.16e}",
            f"# eta = {m.eta:.16e}",
            f"# eta_r = {m.eta_r:.16e}",
            f"# nu = {m.nu:.16e}",
            f"# seed = {self.seed}",
            "tau,p_dd,shots",
        ]
        for tau, pd, sh in zip(self.taus, self.p_dd, self.shots):
            lines.append(f"{tau:.16e},{pd:.16e},{sh}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SignalRecord":
        meta: dict[str, str] = {}
        rows: list[tuple[float, float, int]] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if line.replace(" ", "") == "tau,p_dd,shots":
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"malformed sample row: {raw!r}")
            rows.append((float(parts[0]), float(parts[1]), int(parts[2])))
        try:
            modes = ModeParams(eta=float(meta["eta"]), eta_r=float(meta["eta_r"]), nu=float(meta["nu"]))
            params = BichromaticParams(
                k=int(meta["k"]),
                k_prime=int(meta["k_prime"]),
                delta=float(meta["delta"]),
                delta_prime=float(meta["delta_prime"]),
                omega=complex(float(meta["omega_re"]), float(meta["omega_im"])),
                phi=float(meta["phi"]),
                phi0=float(meta["phi0"]),
                modes=modes,
            )
            seed = int(meta["seed"])
        except KeyError as missing:
            raise ValueError(f"header is missing key {missing}") from None
        data = np.array(rows, dtype=float).reshape(-1, 3)
        return cls(taus=data[:, 0], p_dd=data[:, 1], shots=data[:, 2].astype(int), params=params, seed=seed)


@dataclass(frozen=True)
class PopulationEstimate:
    """Nonnegative displaced-population grid recovered from one record."""

    pi: np.ndarray  # (n_fit_c + 1, n_fit_r + 1)
    residual_norm: float

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        if np.any(pi < 0):
            raise ValueError("populations must be nonnegative")
        if not pi.sum() <= 1.0 + 1e-6:  # a nan or +inf entry fails too
            raise ValueError(f"populations sum to {pi.sum():.8f}; need a finite sum <= 1")
        object.__setattr__(self, "pi", pi)


@dataclass(frozen=True)
class WignerPoint:
    alpha_c: complex
    alpha_r: complex
    w: float

    def __post_init__(self):
        if not abs(self.w) <= WIGNER_BOUND + 1e-6:  # nan fails too
            raise ValueError(f"|w| = {abs(self.w):.6f} is outside the two-mode bound 4/pi^2")


@dataclass(frozen=True)
class ProtocolPoint:
    """One displacement point of the full protocol: Wigner value + fit.

    ``w_exact`` is the exact Wigner value at the same point (what
    wigner_direct returns), computed from the displaced populations that
    fed the simulated signal.
    """

    wigner: WignerPoint
    estimate: PopulationEstimate
    w_exact: float


@dataclass(frozen=True)
class ConditionReport:
    """Identifiability diagnostics for a planned inversion."""

    min_relative_gap: float
    min_abs_gap: float
    condition_number: float
    recommended_span: float
    notes: tuple[str, ...]


# ---------------------------------------------------------------------------
# forward model
# ---------------------------------------------------------------------------


def _fit_frequencies(p: BichromaticParams, n_fit_c: int, n_fit_r: int) -> np.ndarray:
    return np.abs(rabi_spectrum(p, n_fit_c, n_fit_r)).ravel()


def design_matrix(freqs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """cos^2(|Omega_i| tau_j) with one column per fitted Fock pair."""
    return np.cos(np.outer(np.asarray(taus, float), np.asarray(freqs, float))) ** 2


def displace_vib(rho: VibDensity, alpha_c: complex, alpha_r: complex) -> VibDensity:
    """D_c^dag(alpha_c) D_r^dag(alpha_r) rho D_r(alpha_r) D_c(alpha_c), by the dense joint-space product.

    Each vector v_k becomes U^dag v_k with U = D_c (x) D_r, a row times conj(U).
    The reference the ensemble contraction of displaced_populations is checked against.
    """
    u = np.kron(
        displacement(alpha_c, "c", rho.config),
        displacement(alpha_r, "r", rho.config),
    )
    return VibDensity(rho.weights, rho.vectors @ u.conj(), rho.config)


def displaced_populations(rho: VibDensity, alpha_c, alpha_r) -> np.ndarray:
    """Fock populations of displace_vib(rho, alpha_c, alpha_r) as a real (dim_c, dim_r) grid.

    With rho = sum_k w_k |v_k><v_k| (rho.weights and the r rows of rho.vectors) and
    U = D_c(alpha_c) (x) D_r(alpha_r), the populations are
    Pi = sum_k w_k |U^dag v_k|^2.  Vector k as a (dim_c, dim_r) matrix Psi_k
    gives U^dag v_k = D_c^dag Psi_k conj(D_r); its conjugate
    D_c^T conj(Psi_k) D_r is formed for all k by two matrix products
    per point, r dim_c dim_r (dim_c + dim_r) operations, and neither U nor
    any other dim_vib x dim_vib matrix is formed.

    Equal-length 1-d arrays of P points give the (P, dim_c, dim_r) stack
    from one displacement call per mode.  The points are contracted
    floor(dim_vib / r) at a time (at least one), so no intermediate holds
    more than dim_vib^2 amplitudes, and each point's value is bit for bit
    its own single-point call.
    """
    cfg = rho.config
    alpha_c, alpha_r = np.asarray(alpha_c), np.asarray(alpha_r)
    if alpha_c.shape != alpha_r.shape or alpha_c.ndim > 1:
        raise ValueError("alpha_c and alpha_r must be scalars or 1-d arrays of equal length")
    dc = displacement(alpha_c.reshape(-1), "c", cfg)
    dr = displacement(alpha_r.reshape(-1), "r", cfg)
    r = rho.weights.size
    # conj(Psi_k) side by side, (dim_c, r dim_r): one product per point applies D_c^T to every vector
    conj_psi = rho.vectors.conj().reshape(r, cfg.dim_c, cfg.dim_r).transpose(1, 0, 2).reshape(cfg.dim_c, r * cfg.dim_r)
    chunk = max(1, cfg.dim_vib // r)
    # the output grid follows the D blocks, so rectangular blocks contract the same way
    pops = np.empty((dc.shape[0], dc.shape[-1], dr.shape[-1]))
    for start in range(0, dc.shape[0], chunk):
        d_c, d_r = dc[start:start + chunk], dr[start:start + chunk]
        z = (d_c.transpose(0, 2, 1) @ conj_psi).reshape(len(d_c), -1, cfg.dim_r) @ d_r
        pops[start:start + chunk] = rho.weights @ (z.real**2 + z.imag**2).reshape(len(d_c), -1, r, d_r.shape[-1])
    return pops.reshape(alpha_c.shape + pops.shape[1:])


def synth_signal(
    rho: VibDensity,
    taus,
    p: BichromaticParams,
    shots: int = 0,
    seed: int = 0,
) -> SignalRecord:
    """Simulate the P_dd(tau) series for an (already displaced) state.

    shots = 0 returns the exact model values; shots > 0 replaces sample j with
    a binomial draw from PCG64(SeedSequence((seed, j))), so any sample can be
    regenerated in isolation.  A bad seed raises as SeedSequence does, whatever shots is.
    """
    taus = np.asarray(taus, dtype=float)
    a = design_matrix(_fit_frequencies(p, rho.config.n_max_c, rho.config.n_max_r), taus)
    return _draw(a, rho.populations(), taus, p, shots, seed)


def _draw(a: np.ndarray, pops: np.ndarray, taus: np.ndarray, p: BichromaticParams, shots: int, seed: int) -> SignalRecord:
    """One record of the Fock populations ``pops`` through ``a``, the cos^2 design on their full grid."""
    p_dd = _sample(a @ pops.ravel(), shots, _seed_column(seed))
    return SignalRecord(taus=taus, p_dd=p_dd, shots=np.full(taus.size, shots), params=p, seed=seed)


def _sample(probs: np.ndarray, shots: int, seed_words: np.ndarray | None) -> np.ndarray:
    """The clipped probabilities, or with shots > 0 a binomial count / shots for each.

    Entry j of row s of ``probs`` (1-d: one row) draws from a PCG64 that numpy
    seeds with SeedSequence((s, j)).generate_state(4, uint64), for s the seed in
    column s of ``seed_words``; all (s, j) are hashed at once.
    """
    if shots < 0:
        raise ValueError("shots must be >= 0")
    _require_finite("p_dd", probs)
    probs = np.clip(probs, 0.0, 1.0)
    if shots == 0:
        return probs
    words = _substream_words(seed_words, probs.shape[-1], 8)
    # generate_state(4, uint64) joins word pairs little-endian; each row is C-contiguous
    states = np.stack(words, axis=-1).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    counts, holder = np.empty(probs.size, np.int64), _state_words_type()
    for j, (state, prob) in enumerate(zip(states, probs.ravel().tolist())):
        counts[j] = np.random.Generator(np.random.PCG64(holder(state))).binomial(shots, prob)
    return counts.reshape(probs.shape) / shots


# ---------------------------------------------------------------------------
# shot-noise substreams
# ---------------------------------------------------------------------------


def _seed_column(seed) -> np.ndarray:
    """The uint32 entropy words SeedSequence takes from one seed, least significant first, as one column."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError("seed must be integer")
    n = int(seed)
    if n < 0:
        raise ValueError("expected non-negative integer")
    return np.array([[(n >> shift) & _MASK32] for shift in range(0, max(n.bit_length(), 1), 32)], np.uint32)


def _hashmixer(init: int, mult: int):
    """SeedSequence's multiplicative hash; its constant steps the same way for every column."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _substream_words(seed_words: np.ndarray, count: int, n_words: int) -> list[np.ndarray]:
    """SeedSequence((s, j)).generate_state(n_words) for every seed s and every j < count.

    ``seed_words`` holds one seed's uint32 entropy words per column, all
    seeds with the same word count.  Returns n_words uint32 arrays over the
    columns (s, j), s-major.
    """
    n_seed_words, n_seeds = seed_words.shape
    entropy = np.empty((n_seed_words + 1, n_seeds, count), np.uint32)
    entropy[:-1] = seed_words[:, :, None]
    entropy[-1] = np.arange(count, dtype=np.uint32)  # j < 2^32 is one word, 0 included
    entropy = entropy.reshape(n_seed_words + 1, n_seeds * count)
    hashmix = _hashmixer(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0])) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):  # entropy words beyond the pool
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    out = _hashmixer(_INIT_B, _MULT_B)
    return [out(pool[i % _POOL_SIZE]) for i in range(n_words)]


def _point_seeds(seed, count: int) -> np.ndarray:
    """SeedSequence((seed, idx)).generate_state(1)[0] for every idx < count."""
    return _substream_words(_seed_column(seed), count, 1)[0]


@lru_cache(maxsize=1)
def _state_words_type() -> type:
    """The PCG64 seed holder class: it serves one precomputed SeedSequence.generate_state(4, uint64).

    PCG64 makes only that request and reads the buffer directly, so ``words``
    is a C-contiguous native uint64 array; any other request is refused.  Built
    on the first shot draw: modes which draw none never load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.dtype(np.uint64):
                raise ValueError(f"holds generate_state(4, uint64) only, not ({n_words}, {np.dtype(dtype)})")
            return self.words

    return StateWords


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------


def invert_populations(
    record: SignalRecord,
    n_fit_c: int,
    n_fit_r: int,
    ridge: float = 0.0,
) -> PopulationEstimate:
    """Recover displaced populations on the fit grid from one record.

    Solves min ||A x - p_dd|| subject to x >= 0 (scipy's active-set NNLS),
    optionally with a ridge term sqrt(ridge)||x|| appended; reports the
    unregularized residual (condition_report reports the design's conditioning).
    A solution summing above 1 is rescaled onto the probability simplex.
    """
    a = _fit_design(record.params, n_fit_c, n_fit_r, record.taus)
    return _solve(a, _ridge_design(a, ridge), record.p_dd, (n_fit_c + 1, n_fit_r + 1))


def _fit_design(p: BichromaticParams, n_fit_c: int, n_fit_r: int, taus: np.ndarray) -> np.ndarray:
    freqs = _fit_frequencies(p, n_fit_c, n_fit_r)
    collisions = _frequency_collisions(freqs, (n_fit_c + 1, n_fit_r + 1))
    if collisions:
        raise DegeneracyError(
            "fit frequencies collide (within 1e-12) for Fock pairs: "
            + "; ".join(f"{a} ~ {b}" for a, b in collisions[:8])
        )
    if taus.size < freqs.size:
        raise ValueError(f"{taus.size} samples cannot determine {freqs.size} populations")
    return design_matrix(freqs, taus)


def _ridge_design(a: np.ndarray, ridge: float) -> np.ndarray:
    """``a`` with sqrt(ridge) times the identity stacked below it when ridge > 0."""
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    return np.vstack([a, math.sqrt(ridge) * np.eye(a.shape[1])]) if ridge > 0 else a


def _solve(a: np.ndarray, a_solve: np.ndarray, p_dd: np.ndarray, shape: tuple[int, int]) -> PopulationEstimate:
    """NNLS of p_dd, zero-padded to the rows of ``a_solve`` (the ridge design of ``a``)."""
    x, _ = nnls(a_solve, np.concatenate([p_dd, np.zeros(a_solve.shape[0] - a.shape[0])]))
    total = x.sum()
    if total > 1.0:
        x = x / total
    residual = float(np.linalg.norm(a @ x - p_dd))
    return PopulationEstimate(pi=x.reshape(shape), residual_norm=residual)


def nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """scipy.optimize.nnls, imported on the first solve so that modes which never solve do not load scipy."""
    from scipy.optimize import nnls as scipy_nnls

    return scipy_nnls(a, b)


def min_gaps(freqs: np.ndarray) -> tuple[float, float]:
    """Smallest absolute and smallest relative spacing of the sorted values.

    Adjacent sorted values are compared, so an exact tie gives 0 for both;
    the relative spacing divides by the larger of the pair (by 1 where that
    is 0).  Fewer than two values give (0, 0).
    """
    srt = np.sort(np.ravel(freqs))
    if srt.size < 2:
        return 0.0, 0.0
    gaps = np.diff(srt)
    ref = np.where(srt[1:] > 0, srt[1:], 1.0)
    return float(gaps.min()), float((gaps / ref).min())


def _frequency_collisions(freqs: np.ndarray, shape: tuple[int, int]):
    order = np.argsort(freqs)
    srt = freqs[order]
    out = []
    for i in np.nonzero(np.diff(srt) <= _FREQ_COLLISION_TOL)[0]:
        out.append(
            (
                tuple(int(v) for v in np.unravel_index(order[i], shape)),
                tuple(int(v) for v in np.unravel_index(order[i + 1], shape)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Wigner assembly
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _parity_signs(shape: tuple[int, int]) -> np.ndarray:
    """(-1)^(n_c + n_r) on a grid, built once per shape and read-only."""
    nc, nr = np.indices(shape)
    signs = (-1.0) ** (nc + nr)
    signs.setflags(write=False)
    return signs


def _parity_sum(pops: np.ndarray) -> float:
    return float(WIGNER_BOUND * np.sum(_parity_signs(pops.shape) * pops))


def wigner_from_populations(est: PopulationEstimate) -> float:
    """(4/pi^2) sum (-1)^{n_c+n_r} Pi over the fitted grid."""
    return _parity_sum(est.pi)


def wigner_direct(rho: VibDensity, alpha_c: complex, alpha_r: complex) -> float:
    """Exact Wigner value of the truncated state at one phase-space point.

    Same alternating-parity sum as the measurement chain, but fed with the
    exact displaced populations; the oracle the simulated protocol is
    scored against.
    """
    return _parity_sum(displaced_populations(rho, alpha_c, alpha_r))


# ---------------------------------------------------------------------------
# full protocol
# ---------------------------------------------------------------------------


def protocol_run(
    rho: VibDensity,
    alphas,
    taus,
    p: BichromaticParams,
    shots: int = 0,
    seed: int = 0,
    n_fit_c: int | None = None,
    n_fit_r: int | None = None,
    ridge: float = 0.0,
) -> list[ProtocolPoint]:
    """displace -> synthesize -> invert -> Wigner, per displacement point.

    Fit-grid sizes default to n_max - 2 per mode and may not exceed that
    (the topmost levels carry truncation error).  The tau grid is checked
    before any point is displaced, and the designs, the ridge design and the
    parity signs are built once per run.  Point idx draws from the substream
    (seed, idx), so each estimate equals displace_vib -> synth_signal ->
    invert_populations up to the last digits of the displaced populations,
    and ``w_exact`` is the parity sum of those populations.
    """
    cfg = rho.config
    if n_fit_c is None:
        n_fit_c = cfg.n_max_c - 2
    if n_fit_r is None:
        n_fit_r = cfg.n_max_r - 2
    if n_fit_c > cfg.n_max_c - 2 or n_fit_r > cfg.n_max_r - 2:
        raise ValueError(
            f"fit grid ({n_fit_c}, {n_fit_r}) too close to the truncation "
            f"({cfg.n_max_c}, {cfg.n_max_r}); keep n_fit <= n_max - 2"
        )
    if min(n_fit_c, n_fit_r) < 0:
        raise ValueError("fit grid must be nonnegative; enlarge the truncation")
    taus = np.asarray(taus, dtype=float)
    _check_taus(taus)
    synth = design_matrix(_fit_frequencies(p, cfg.n_max_c, cfg.n_max_r), taus)
    fit = _fit_design(p, n_fit_c, n_fit_r, taus)
    fit_solve = _ridge_design(fit, ridge)
    alphas = list(alphas)
    _seed_column(seed)  # a bad seed raises before any point is displaced
    pops = displaced_populations(rho, *np.array(alphas, complex).reshape(len(alphas), 2).T)
    # bit for bit synth @ pops per point, which pops @ synth.T is not
    probs = (synth @ pops.reshape(len(alphas), cfg.dim_vib, 1))[..., 0]
    # point idx is seeded with SeedSequence((seed, idx)).generate_state(1)[0]; noise-free scans hash nothing
    p_dd = _sample(probs, shots, _point_seeds(seed, len(alphas))[None, :] if shots > 0 else None)
    points = []
    for (ac, ar), exact, record in zip(alphas, pops, p_dd):
        est = _solve(fit, fit_solve, record, (n_fit_c + 1, n_fit_r + 1))
        w = WignerPoint(ac, ar, wigner_from_populations(est))
        points.append(ProtocolPoint(wigner=w, estimate=est, w_exact=_parity_sum(exact)))
    return points


# ---------------------------------------------------------------------------
# planning diagnostics
# ---------------------------------------------------------------------------


def condition_report(p: BichromaticParams, n_fit_c: int, n_fit_r: int, taus) -> ConditionReport:
    """How identifiable the populations are for this drive and tau grid."""
    taus = np.asarray(taus, dtype=float)
    freqs = _fit_frequencies(p, n_fit_c, n_fit_r)
    min_abs, min_rel = min_gaps(freqs)
    recommended = math.pi / min_abs if min_abs > 0 else math.inf
    cond = float(np.linalg.cond(design_matrix(freqs, taus))) if taus.size else math.inf
    notes = []
    if min_abs <= _FREQ_COLLISION_TOL:
        notes.append("fit frequencies are degenerate; populations on this grid are not identifiable")
    elif taus.size and taus.max() - taus.min() < recommended:
        notes.append(
            f"tau span {taus.max() - taus.min():.4g} is below the recommended "
            f"{recommended:.4g} (= pi / closest frequency gap); widen the scan"
        )
    if cond > _COND_THRESHOLD:
        notes.append(f"design matrix condition number {cond:.3g} exceeds {_COND_THRESHOLD:.0e}")
    return ConditionReport(
        min_relative_gap=min_rel,
        min_abs_gap=min_abs,
        condition_number=cond,
        recommended_span=recommended,
        notes=tuple(notes),
    )


def default_tau_grid(p: BichromaticParams, n_fit_c: int, n_fit_r: int) -> np.ndarray:
    """4 samples per unknown, spanning pi over the closest frequency gap."""
    freqs = _fit_frequencies(p, n_fit_c, n_fit_r)
    min_abs = min_gaps(freqs)[0]
    if min_abs <= _FREQ_COLLISION_TOL:
        raise DegeneracyError("fit frequencies are degenerate; no finite tau span resolves them")
    return np.linspace(0.0, math.pi / min_abs, 4 * freqs.size)
