"""Truncated two-mode Fock space for a pair of trapped ions.

Two ions share two collective vibrational modes: the center-of-mass (c.m.)
mode at the trap frequency (nu, our unit of frequency) and the stretch mode
at sqrt(3)*nu.  The joint Hilbert space is

    (4 electronic levels) x (n_max_c + 1) x (n_max_r + 1)

with basis ordering: electronic index slowest, then c.m. quantum number,
then stretch quantum number fastest (row-major).  Electronic levels are
indexed |dd> = 0, |du> = 1, |ud> = 2, |uu> = 3, where the first letter is
ion 1 ('d' = internal ground state, 'u' = excited).

Units: hbar = 1, frequencies in units of nu, times in 1/nu.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "TruncationWarning",
    "STRETCH_FREQ_RATIO",
    "STRETCH_LD_RATIO",
    "ELEC_LABELS",
    "ModeParams",
    "HilbertConfig",
    "JointState",
    "VibDensity",
    "StateSpec",
    "laguerre",
    "laguerre_seq",
    "coupling_f",
    "coupling_f_grid",
    "destroy",
    "displacement",
    "thermal_weights",
    "make_vib_state",
    "make_vib_vector",
    "basis_state",
    "fidelity",
    "reduce_electronic",
    "reduce_vibrational",
    "truncation_guard",
]

#: stretch-mode frequency in units of the c.m. frequency
STRETCH_FREQ_RATIO = np.sqrt(3.0)
#: stretch-mode Lamb-Dicke parameter in units of the c.m. one (3**-1/4)
STRETCH_LD_RATIO = 3.0 ** (-0.25)

ELEC_LABELS = ("dd", "du", "ud", "uu")

GUARD_TOL = 1e-6


class TruncationWarning(UserWarning):
    """A state carries non-negligible weight in the top Fock levels."""


def _caller_stacklevel() -> int:
    """The caller's warnings.warn stacklevel naming the first frame outside the package (dataclass methods are inside)."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == "vibronic":
        frame, level = frame.f_back, level + 1
    return level


# --------------------------------------------------------------------------
# polynomials and coupling amplitudes


def laguerre_seq(n_max: int, k: int, x: float) -> np.ndarray:
    """Associated Laguerre polynomials L_n^k(x) for n = 0..n_max, by the three-term recurrence.

    The upward recurrence in n is numerically stable for the small positive
    arguments (x = eta^2) used throughout; degree and order must be >= 0.
    """
    if n_max < 0 or k < 0:
        raise ValueError(f"laguerre degree/order must be >= 0, got n_max={n_max}, k={k}")
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 1.0 + k - x
    for m in range(2, n_max + 1):
        out[m] = ((2 * m - 1 + k - x) * out[m - 1] - (m - 1 + k) * out[m - 2]) / m
    return out


def laguerre(n: int, k: int, x: float) -> float:
    """L_n^k(x), the last entry of `laguerre_seq`."""
    return float(laguerre_seq(n, k, x)[n])


def _inv_rising(n: int, k: int) -> float:
    # n! / (n+k)!  as a running product, overflow-safe
    out = 1.0
    for j in range(1, k + 1):
        out /= n + j
    return out


# --------------------------------------------------------------------------
# parameter records


@dataclass(frozen=True)
class ModeParams:
    """Lamb-Dicke parameters of the two shared modes.

    `eta` is the c.m. Lamb-Dicke parameter; `eta_r` defaults to
    eta * 3**(-1/4), the stretch-mode value implied by the sqrt(3) frequency
    ratio.  `nu` is the c.m. trap frequency and fixes the unit system (leave
    at 1.0 unless you want outputs in other units).
    """

    eta: float
    eta_r: float | None = None
    nu: float = 1.0

    def __post_init__(self):
        if self.eta_r is None:
            object.__setattr__(self, "eta_r", self.eta * STRETCH_LD_RATIO)
        for name in ("eta", "eta_r", "nu"):  # eta first: a derived eta_r shares its fault
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value}")


def coupling_f_grid(n_max_c: int, n_max_r: int, k: int, modes: ModeParams) -> np.ndarray:
    """Sideband coupling amplitudes f_k(n_c, n_r) over the grid, entry (n_c, n_r).

    Debye-Waller envelope times the k-th-sideband Laguerre factor of the
    c.m. mode and the zeroth-order (purely spectator) factor of the stretch
    mode:

        f_k = exp(-(eta^2 + eta_r^2)/2) * n_c!/(n_c+k)!
              * L_{n_c}^k(eta^2) * L_{n_r}^0(eta_r^2)

    The factorial ratio is deliberately un-square-rooted: the ladder
    operators that accompany f_k in the drive Hamiltonian supply the other
    half.  This is the one implementation of the formula; `coupling_f`
    reads a single cell of it.
    """
    if n_max_c < 0 or n_max_r < 0:
        raise ValueError(f"Fock labels must be >= 0, got ({n_max_c}, {n_max_r})")
    if k < 0:
        raise ValueError(f"sideband order must be >= 0, got {k}")
    env = np.exp(-(modes.eta**2 + modes.eta_r**2) / 2.0)
    inv = np.array([_inv_rising(n_c, k) for n_c in range(n_max_c + 1)])
    return env * inv[:, None] * laguerre_seq(n_max_c, k, modes.eta**2)[:, None] * laguerre_seq(n_max_r, 0, modes.eta_r**2)


def coupling_f(n_c: int, n_r: int, k: int, modes: ModeParams) -> float:
    """Sideband coupling amplitude f_k(n_c, n_r): cell (n_c, n_r) of `coupling_f_grid`."""
    return coupling_f_grid(n_c, n_r, k, modes)[n_c, n_r]


# --------------------------------------------------------------------------
# Hilbert space bookkeeping


@dataclass(frozen=True)
class HilbertConfig:
    """Truncation of the joint space (two qubits x two modes)."""

    n_max_c: int
    n_max_r: int

    def __post_init__(self):
        if self.n_max_c < 0 or self.n_max_r < 0:
            raise ValueError(
                f"truncations must be >= 0, got ({self.n_max_c}, {self.n_max_r})"
            )

    @property
    def dim_c(self) -> int:
        return self.n_max_c + 1

    @property
    def dim_r(self) -> int:
        return self.n_max_r + 1

    @property
    def dim_vib(self) -> int:
        return self.dim_c * self.dim_r

    @property
    def dim(self) -> int:
        return 4 * self.dim_vib

    def vib_index(self, n_c: int, n_r: int) -> int:
        if not (0 <= n_c <= self.n_max_c and 0 <= n_r <= self.n_max_r):
            raise ValueError(
                f"Fock labels ({n_c}, {n_r}) outside grid "
                f"({self.n_max_c}, {self.n_max_r})"
            )
        return n_c * self.dim_r + n_r

    def joint_index(self, elec: int | str, n_c: int, n_r: int) -> int:
        return self.elec_index(elec) * self.dim_vib + self.vib_index(n_c, n_r)

    @staticmethod
    def elec_index(elec: int | str) -> int:
        if isinstance(elec, str):
            try:
                return ELEC_LABELS.index(elec)
            except ValueError:
                raise ValueError(
                    f"electronic label must be one of {ELEC_LABELS}, got {elec!r}"
                ) from None
        if not 0 <= elec <= 3:
            raise ValueError(f"electronic index must be 0..3, got {elec}")
        return int(elec)


def destroy(dim: int) -> np.ndarray:
    """Single-mode annihilation operator on a `dim`-level truncation.

    On the truncated grid [a, a^dag] is the identity except for the -n_max
    entry in the top level; that defect is the price of the hard cutoff and
    is what the truncation guard watches for.
    """
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


# --------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class JointState:
    """Pure state on the joint space (amplitude vector + its truncation)."""

    amps: np.ndarray
    config: HilbertConfig

    def __post_init__(self):
        if self.amps.shape != (self.config.dim,):
            raise ValueError(
                f"amplitude vector has shape {self.amps.shape}, "
                f"config wants ({self.config.dim},)"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tensor(self) -> np.ndarray:
        """View as (4, dim_c, dim_r)."""
        return self.amps.reshape(4, self.config.dim_c, self.config.dim_r)


@dataclass(frozen=True)
class VibDensity:
    """State on the two-mode vibrational space, held as an exact ensemble.

    rho = sum_k weights[k] |v_k><v_k|, where v_k is row k of `vectors`
    (shape (r, dim_vib), r >= 1).  The weights must be finite and >= 0, so
    every instance is positive semidefinite; a unit trace is the
    constructors' job.  Off-diagonal coherences live in the vectors and are
    carried through displacement exactly; the tomography signal itself
    reads only the populations.  `matrix()` forms the dim_vib x dim_vib
    matrix on demand, for the references and tests only.
    """

    weights: np.ndarray
    vectors: np.ndarray
    config: HilbertConfig

    def __post_init__(self):
        d = self.config.dim_vib
        if self.weights.ndim != 1 or self.weights.size == 0 or self.vectors.shape != (self.weights.size, d):
            raise ValueError(
                f"ensemble has weights {self.weights.shape} and vectors {self.vectors.shape}; "
                f"need (r,) and (r, {d}) with r >= 1"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(self.weights >= 0)):
            raise ValueError("weights must be finite numbers >= 0")

    def matrix(self) -> np.ndarray:
        """The density matrix sum_k weights[k] v_k v_k^dag, dim_vib x dim_vib."""
        return (self.vectors.T * self.weights) @ self.vectors.conj()

    def populations(self) -> np.ndarray:
        """Fock populations as a real (dim_c, dim_r) grid."""
        pops = self.weights @ (self.vectors * self.vectors.conj()).real
        return pops.reshape(self.config.dim_c, self.config.dim_r)

    def trace(self) -> float:
        return float(self.populations().sum())


# --------------------------------------------------------------------------
# displacement


@lru_cache(maxsize=16)
def _displacement_basis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, V, V^dag) of the Hermitian i(a^dag - a) on `dim` levels, read-only."""
    a = destroy(dim)
    w, v = np.linalg.eigh(1j * (a.T - a))
    out = (w, v, v.conj().T)
    for arr in out:
        arr.setflags(write=False)
    return out


def displacement(alpha, mode: str, config: HilbertConfig) -> np.ndarray:
    """Displacement unitary exp(alpha a^dag - alpha* a) on one mode.

    With theta = arg(alpha) and R = diag(e^{i theta n}), the generator is
    |alpha| R (a^dag - a) R^dag, an identity that holds on the truncated grid
    too.  So D(alpha) = R V e^{-i|alpha| w} V^dag R^dag, where (w, V) is the
    eigendecomposition of i(a^dag - a), computed once per grid size and
    cached.  The result is the exact matrix exponential of the truncated
    generator and exactly unitary on the grid.  Large displacements relative
    to the truncation are flagged: |alpha|^2 > n_max/4 leaves too little
    headroom for the displaced populations to decay before the cutoff.

    A 1-d array of P values gives the (P, dim, dim) stack, each entry bit for
    bit its own value's matrix, with one warning per flagged value.
    Non-finite values raise ValueError.
    """
    if mode == "c":
        dim, n_max = config.dim_c, config.n_max_c
    elif mode == "r":
        dim, n_max = config.dim_r, config.n_max_r
    else:
        raise ValueError(f"mode must be 'c' or 'r', got {mode!r}")
    alpha = np.asarray(alpha, dtype=complex)
    if not np.all(np.isfinite(alpha)):
        raise ValueError("displacement alpha must be finite")
    mag = np.hypot(alpha.real, alpha.imag)  # libm's hypot, as abs(complex); np.abs differs in the last bit
    for big in mag[mag**2 > n_max / 4.0]:
        warnings.warn(
            f"displacement |alpha|^2 = {big**2:.3g} exceeds n_max/4 = "
            f"{n_max / 4.0:.3g} on mode {mode!r}; truncation artifacts likely",
            TruncationWarning,
            stacklevel=_caller_stacklevel(),
        )
    w, v, v_dag = _displacement_basis(dim)
    rot = np.exp(1j * np.angle(alpha)[..., None] * np.arange(dim))
    return (rot[..., :, None] * v * np.exp(-1j * mag[..., None] * w)[..., None, :]) @ (v_dag * rot.conj()[..., None, :])


# --------------------------------------------------------------------------
# state constructors


def thermal_weights(nbar: float, dim: int) -> np.ndarray:
    """Geometric thermal weights nbar^n/(nbar+1)^(n+1), renormalized on the grid."""
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be a finite number >= 0, got {nbar}")
    if nbar == 0:
        w = np.zeros(dim)
        w[0] = 1.0
        return w
    n = np.arange(dim)
    w = nbar**n / (nbar + 1.0) ** (n + 1)
    return w / w.sum()


@dataclass(frozen=True)
class StateSpec:
    """Recipe for a vibrational state; see the classmethod constructors."""

    kind: str
    n_c: int = 0
    n_r: int = 0
    nbar_c: float = 0.0
    nbar_r: float = 0.0
    alpha_c: complex = 0.0
    alpha_r: complex = 0.0
    terms: tuple = field(default_factory=tuple)

    @classmethod
    def fock(cls, n_c: int, n_r: int) -> "StateSpec":
        return cls(kind="fock", n_c=n_c, n_r=n_r)

    @classmethod
    def thermal(cls, nbar_c: float, nbar_r: float) -> "StateSpec":
        return cls(kind="thermal", nbar_c=nbar_c, nbar_r=nbar_r)

    @classmethod
    def coherent(cls, alpha_c: complex, alpha_r: complex) -> "StateSpec":
        return cls(kind="coherent", alpha_c=alpha_c, alpha_r=alpha_r)

    @classmethod
    def superposition(cls, terms) -> "StateSpec":
        """terms: iterable of (n_c, n_r, amplitude); normalized on build."""
        return cls(kind="superposition", terms=tuple((int(a), int(b), complex(c)) for a, b, c in terms))


def _pure_vector(spec: StateSpec, config: HilbertConfig) -> np.ndarray:
    """Normalized state vector (length dim_vib) of a Fock, coherent or superposition recipe."""
    if spec.kind == "fock":
        psi = np.zeros(config.dim_vib, complex)
        psi[config.vib_index(spec.n_c, spec.n_r)] = 1.0
    elif spec.kind == "coherent":
        vec_c = displacement(spec.alpha_c, "c", config)[:, 0]
        vec_r = displacement(spec.alpha_r, "r", config)[:, 0]
        psi = np.kron(vec_c, vec_r)
    elif spec.kind == "superposition":
        psi = np.zeros(config.dim_vib, complex)
        for n_c, n_r, amp in spec.terms:
            psi[config.vib_index(n_c, n_r)] += amp
        nrm = np.linalg.norm(psi)
        if nrm == 0:
            raise ValueError("superposition has zero norm")
        psi /= nrm
    else:
        raise ValueError(f"unknown state kind {spec.kind!r}")
    return psi


def make_vib_state(spec: StateSpec, config: HilbertConfig) -> VibDensity:
    """Build a vibrational state from a recipe.

    Supports Fock products, two-mode thermal products (truncated geometric
    weights, renormalized), coherent products, and pure superpositions of
    Fock pairs.  A pure recipe gives its one state vector with weight 1, a
    thermal one a Fock state per nonzero weight.  The result passes through
    the truncation guard.
    """
    if spec.kind == "thermal":
        w = np.outer(
            thermal_weights(spec.nbar_c, config.dim_c),
            thermal_weights(spec.nbar_r, config.dim_r),
        ).reshape(config.dim_vib)
        occupied = np.flatnonzero(w)
        fock = np.zeros((occupied.size, config.dim_vib), complex)  # the occupied rows of the identity, without forming it
        fock[np.arange(occupied.size), occupied] = 1.0
        rho = VibDensity(w[occupied], fock, config)
    else:
        rho = VibDensity(np.ones(1), _pure_vector(spec, config)[None, :], config)
    truncation_guard(rho)
    return rho


def make_vib_vector(spec: StateSpec, config: HilbertConfig) -> np.ndarray:
    """Pure vibrational state vector (length dim_vib) for a pure recipe.

    The vector of make_vib_state's state, its overall phase chosen to make
    the dominant amplitude real and positive.  Thermal recipes are mixed
    and rejected; use make_vib_state for those.
    """
    if spec.kind == "thermal":
        raise ValueError("thermal states are mixed; no state vector exists")
    rho = make_vib_state(spec, config)
    psi = rho.vectors[0]
    vec = psi * np.conj(psi[int(np.argmax(rho.populations()))])
    return vec / np.linalg.norm(vec)


def basis_state(config: HilbertConfig, elec: int | str, n_c: int, n_r: int) -> JointState:
    """Joint basis ket |elec; n_c, n_r>."""
    amps = np.zeros(config.dim, complex)
    amps[config.joint_index(elec, n_c, n_r)] = 1.0
    return JointState(amps, config)


# --------------------------------------------------------------------------
# measures and reductions


def fidelity(state: JointState, target: JointState) -> float:
    """|<target|state>|^2 for pure joint states."""
    if state.config != target.config:
        raise ValueError(
            f"state truncations differ: {state.config} vs {target.config}"
        )
    return float(abs(np.vdot(target.amps, state.amps)) ** 2)


def reduce_electronic(state: JointState) -> np.ndarray:
    """Partial trace over both modes -> 4x4 electronic density matrix."""
    t = state.tensor()
    return np.einsum("avw,bvw->ab", t, t.conj())


def reduce_vibrational(state: JointState) -> VibDensity:
    """Partial trace over the electronic factor -> two-mode vibrational state.

    Its ensemble is the four electronic components, each with weight 1.
    """
    return VibDensity(np.ones(4), state.amps.reshape(4, state.config.dim_vib).copy(), state.config)


def _mode_populations(obj: JointState | VibDensity) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(obj, JointState):
        p = np.abs(obj.tensor()) ** 2
        return p.sum(axis=(0, 2)), p.sum(axis=(0, 1))
    grid = obj.populations()
    return grid.sum(axis=1), grid.sum(axis=0)


def truncation_guard(obj: JointState | VibDensity) -> float:
    """Warn when the top two Fock levels of either mode carry weight > GUARD_TOL.

    Returns the worst offending occupancy.  Grids with fewer than three
    levels on a mode are skipped: there is no headroom to certify there.
    """
    worst = 0.0
    for name, p in zip(("c.m.", "stretch"), _mode_populations(obj)):
        if p.size < 3:
            continue
        top = float(p[-2:].sum())
        worst = max(worst, top)
        if top > GUARD_TOL:
            warnings.warn(
                f"top-two Fock levels of the {name} mode hold population "
                f"{top:.3g} (> {GUARD_TOL:g}); enlarge the truncation",
                TruncationWarning,
                stacklevel=_caller_stacklevel(),
            )
    return worst
