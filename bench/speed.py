"""How fast the machine runs while the benchmark's jobs run.

The 2-core machine the benchmark was written on shares its host, and it
flips between a fast and a slow state, about 1.7x apart, in spells from a
fraction of a second to over a minute.  The same job list took 0.8x to
1.3x its typical time from one run to the next.  A ``SpeedProbe`` measures
that slowdown from inside the process that runs the jobs: while it is
started, an interval timer interrupts the process every ``PROBE_EVERY_S``
seconds and times a fixed bit of work that does not touch the package.
The work runs on the same core and in the same moments as the jobs, so
the mean time of the samples taken during a job (and within
``PROBE_WINDOW_S`` of it, for jobs shorter than the timer's interval),
over ``PROBE_REF_S``, is the slowdown that job saw.  The time the probe
itself takes inside a job is known, and run.py takes it out of the job's
time.

The work is mostly small numpy gather/scatter steps, like the midpoint
stepper's, with some interpreter arithmetic and a small dense ``eigh``.
Of the mixes tried, that one tracked the slowdown of the same jobs best:
over ten rounds of one full-drive job list in a stormy spell, it cut the
variation of a job's time from 21% to 8% and the spread of the round's
total from 26% to 7%.  On static-generator and tomography, in calmer
spells with spreads of 7-9%, it changed them by a point or two either
way.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.1  # interval of the probe timer
PROBE_WINDOW_S = 0.5  # samples this close to a job count for it
PROBE_REF_S = 0.0015  # mean probe time in a calm spell on the machine the benchmark was written on

_DIM = 64  # vector length of the gather/scatter steps
_NNZ = 300


class SpeedProbe:
    """Times fixed work every PROBE_EVERY_S seconds while started (``with``).

    The work takes about 1.3 ms: 0.3 ms of interpreter arithmetic, 0.3 ms
    for a 48 x 48 ``eigh`` and 0.7 ms of small numpy gather/scatter steps.
    Only the main thread is interrupted, between bytecodes, so a long call
    into numpy delays a sample until it returns.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((48, 48))
        self.sym = a + a.T
        self.rows = rng.integers(0, _DIM, _NNZ)
        self.cols = rng.integers(0, _DIM, _NNZ)
        self.weights = rng.standard_normal(_NNZ) * (0.01 + 0.01j)
        self.stamps: list[float] = []  # when each sample started
        self.times: list[float] = []  # how long it took
        self._busy = False

    def _work(self) -> None:
        total = 0
        for i in range(3000):
            total += i * i
        np.linalg.eigh(self.sym)
        out = np.ones(_DIM, dtype=complex)
        for _ in range(45):
            contrib = self.weights * out[self.cols]
            out = out + 1e-3 * (
                np.bincount(self.rows, weights=contrib.real, minlength=_DIM)
                + 1j * np.bincount(self.rows, weights=contrib.imag, minlength=_DIM)
            )

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside the probe is skipped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self._work()
            self.times.append(time.perf_counter() - start)
            self.stamps.append(start)
        finally:
            self._busy = False

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, since: int) -> float:
        """Seconds the probe took from its sample number ``since`` on."""
        return sum(self.times[since:])

    def slowdown_between(self, start: float, end: float) -> float:
        """The slowdown from the samples within PROBE_WINDOW_S of [start, end];
        the whole probe's when there are none."""
        lo = bisect.bisect_left(self.stamps, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + PROBE_WINDOW_S)
        return slowdown(self.times[lo:hi] or self.times)


def slowdown(times: list[float]) -> float:
    """Mean probe time over PROBE_REF_S; 1 when there are no samples."""
    return statistics.fmean(times) / PROBE_REF_S if times else 1.0
