"""Span tracing of the package's public functions, installed from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
``vibronic`` module namespace that holds it (``bellgen`` and ``cli`` import
``propagate_bichromatic`` and ``HermitianPropagator`` by name, and
``tomography`` imports ``nnls`` the same way), and wraps traced methods on
their class.  ``uninstall()`` puts the originals back.  A target missing
from the package is skipped, and its counters read 0.

Each call becomes a span (name, job, start, end, self time, sizes) kept in
memory; self time is the span's duration minus the time of the traced
spans it encloses.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import statistics
import sys
import time
from dataclasses import dataclass

PACKAGE = "vibronic"

# (module, attribute) of every traced function; "Class.method" wraps a method
TARGETS = (
    ("cli", "parse_config"),
    ("bellgen", "run_sequence"),
    ("dynamics", "propagate_bichromatic"),
    ("dynamics", "BichromaticAction.__init__"),
    ("_kernels", "propagate_coo"),
    ("dynamics", "HermitianPropagator.__init__"),
    ("dynamics", "HermitianPropagator.apply"),
    ("dynamics", "build_effective_H"),
    ("dynamics", "build_carrier_H"),
    ("dynamics", "rabi_spectrum"),
    ("fockspace", "coupling_f"),
    ("fockspace", "displacement"),
    ("tomography", "displace_vib"),
    ("tomography", "synth_signal"),
    ("tomography", "invert_populations"),
    ("tomography", "nnls"),
    ("tomography", "design_matrix"),
    ("tomography", "wigner_direct"),
)


def metric_name(module: str, attr: str) -> str:
    """'dynamics.HermitianPropagator.init' for ('dynamics', 'HermitianPropagator.__init__')."""
    return f"{module}.{attr.replace('.__init__', '.init')}"


def _fingerprint(matrix) -> bytes:
    """Cheap identity of a generator: its shape, diagonal and edge rows."""
    import numpy as np

    parts = (np.asarray(matrix.shape), matrix.diagonal(), matrix[0], matrix[-1])
    return hashlib.blake2b(b"".join(np.ascontiguousarray(p).tobytes() for p in parts), digest_size=16).digest()


def _bichromatic_sizes(args, kwargs) -> dict:
    config, t = args[1], args[3]
    dt_max = kwargs.get("dt_max", args[4] if len(args) > 4 else 0.05)
    return {"dim": config.dim, "steps": max(1, math.ceil(abs(t) / dt_max)) if t else 0}


# problem sizes of one call, read from its arguments
_SIZES = {
    "dynamics.propagate_bichromatic": _bichromatic_sizes,
    "_kernels.propagate_coo": lambda a, k: {"dim": int(a[6].shape[0]), "nnz": int(a[0].shape[0]), "steps": int(a[8])},
    "dynamics.HermitianPropagator.init": lambda a, k: {"dim": int(a[1].shape[0]), "generator": _fingerprint(a[1])},
    "dynamics.rabi_spectrum": lambda a, k: {"drive": a[0]},
    "tomography.synth_signal": lambda a, k: {"samples": len(a[1])},
    "tomography.invert_populations": lambda a, k: {"unknowns": (a[1] + 1) * (a[2] + 1)},
    "tomography.design_matrix": lambda a, k: {"cells": len(a[0]) * len(a[1])},
}


@dataclass(slots=True)
class Span:
    name: str
    job: int
    start: float
    end: float
    self_s: float
    sizes: dict | None


class Tracer:
    """Collects spans while installed; ``job`` tags the spans of each job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self.present: set[str] = set()
        self._stack: list[float] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        sizer = _SIZES.get(name)

        def traced(*args, **kwargs):
            sizes = sizer(args, kwargs) if sizer else None
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += end - start
                tracer.spans.append(Span(name, tracer.job, start, end, end - start - children, sizes))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in sys.modules.items()
            if (key == PACKAGE or key.startswith(PACKAGE + ".")) and mod is not None
        ]
        for module, attr in TARGETS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                continue
            name = metric_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name, None)
                if owner is None or meth not in vars(owner):
                    continue
                self._patch(owner, meth, self._wrap(name, vars(owner)[meth]))
            else:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                wrapper = self._wrap(name, fn)
                for other in modules:
                    if vars(other).get(attr) is fn:
                        self._patch(other, attr, wrapper)
            self.present.add(name)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span_cost(self) -> float:
        """Seconds one traced call adds to an empty function (median of 5).

        Spans per job times this cost is the overhead the wrappers alone
        explain, for comparison with the measured traced-minus-untraced time.
        """
        def empty():
            return None

        wrapped = self._wrap("span_cost", empty)
        calls = 20_000
        costs = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(calls):
                empty()
            middle = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - middle) - (middle - start))
        del self.spans[-5 * calls:]
        return statistics.median(costs) / calls
