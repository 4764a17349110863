"""A clock in reference-speed seconds, for a machine whose speed drifts.

On shared hosts the same Python code runs up to 1.6 times slower for
stretches of seconds to minutes (see README.md, "Machine speed"). Wall times
taken at different moments then differ by more than any useful regression
bound. SpeedClock measures the machine's current speed with a fixed kernel,
a sparse dict-of-dicts product over ``Fraction`` (the pattern of
superbethe's hot path, ``GradedOperator.compose``), every PERIOD_S seconds
from a SIGALRM handler, and integrates elapsed time scaled by
KERNEL_REF_S / (the kernel's latest time). A reading is therefore
the time the work would have taken at the speed where the kernel takes
KERNEL_REF_S. Time spent in the kernel itself is left out of every reading.

``raw()`` gives plain elapsed seconds with the kernel's time left out, so
both figures can be reported.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERF = time.perf_counter
PERIOD_S = 0.0125
# about the kernel's time in the fast phase of a shared 2-vCPU x86_64 host, Python 3.11
KERNEL_REF_S = 0.0005


def _kernel_operands():
    """Two fixed sparse matrices (column -> row -> Fraction), 27 wide."""
    n = 27
    a = {c: {(c * 7 + k * 11) % n: Fraction(c + k + 1, k + 2) for k in range(3)} for c in range(n)}
    b = {c: {(c * 5 + k * 13) % n: Fraction(k - c, c + 3) for k in range(2)} for c in range(n)}
    return a, b


_A, _B = _kernel_operands()


def kernel_seconds():
    """Time of one sparse product a.b over Fractions, the same dict-of-dicts
    pattern as GradedOperator.compose."""
    t0 = PERF()
    out = {}
    for c, colmap in _B.items():
        acc = {}
        for k, bv in colmap.items():
            for r, av in _A[k].items():
                acc[r] = acc.get(r, 0) + av * bv
        out[c] = acc
    return PERF() - t0


class SpeedClock:
    def __init__(self):
        self.samples = []
        self.kernel_total = 0.0
        self._version = 0
        self._ref = 0.0
        self._mark = PERF()
        self._factor = 1.0
        self._running = False

    def start(self):
        self._calibrate()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self):
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def _calibrate(self):
        t0 = PERF()
        c = kernel_seconds()
        t1 = PERF()
        self._version += 1
        self._ref += (t0 - self._mark) * self._factor
        self._factor = KERNEL_REF_S / c
        self._mark = t1
        self.kernel_total += t1 - t0
        self.samples.append(c)

    def _tick(self, signum, frame):
        self._calibrate()

    def now(self):
        """Reference-speed seconds since the clock was made."""
        # the handler runs between two bytecodes of this thread: retry if it
        # ran while the reading was being put together
        while True:
            version = self._version
            reading = self._ref + (PERF() - self._mark) * self._factor
            if version == self._version:
                return reading

    def raw(self):
        """Elapsed seconds, less the time spent in the kernel."""
        while True:
            version = self._version
            reading = PERF() - self.kernel_total
            if version == self._version:
                return reading
