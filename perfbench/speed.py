"""Wall time rescaled by the speed of a fixed reference computation.

On a shared host the speed of one core changes within seconds: a fixed
pure-Python computation takes up to 1.8 times its usual time for a while,
with CPU time equal to wall time (no steal).  Raw wall-clock figures of runs
a few minutes apart then differ by more than any useful regression bound.

A short probe (Gauss-Jordan over Fractions of a fixed 8x8 matrix, the same
kind of arithmetic the solver does) runs before and after each timed call.
Its time t gives the current speed factor PROBE_REF_S / t; each stretch of
wall time between two probes is multiplied by the mean factor at its two
ends.  The result is the time the work would have taken at reference speed,
the speed at which the probe takes PROBE_REF_S.  The probes themselves are
not counted.

The probe time is the median of PROBE_REPEATS runs, so that one interrupted
run does not rescale the stretches on either side.  The garbage collector is
off while it runs: a collection set off by the probe's allocations would walk
the program's objects, make the probe's time depend on the program under
test, and scale a growing heap's cost away.  With the collector off, that
collection happens at the program's next allocation and is charged to it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

PROBE_REF_S = 1.7e-3  # one run of the probe on an idle core of the 2-core box of the baseline
PROBE_REPEATS = 3
_rng = random.Random(7)
_MATRIX = [[Fraction(_rng.randint(-50, 50), _rng.randint(1, 30)) for _ in range(8)] for _ in range(8)]


def probe() -> float:
    """Seconds taken by the reference computation (median of PROBE_REPEATS runs)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))
    finally:
        if enabled:
            gc.enable()


def _probe_once() -> float:
    start = time.perf_counter()
    a = [row[:] for row in _MATRIX]
    for c in range(len(a)):
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for r in range(len(a)):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return time.perf_counter() - start


class SpeedClock:
    """Wall time between ``tick`` calls, probes excluded: as measured
    (``raw_seconds``) and at reference speed (``seconds``)."""

    def __init__(self):
        self.seconds = self.raw_seconds = 0.0
        self._last = None  # (perf_counter after the last probe, its speed factor)

    def tick(self) -> None:
        """Probe the speed now and account for the time since the last probe."""
        start = time.perf_counter()
        factor = PROBE_REF_S / probe()
        if self._last is not None:
            end, last_factor = self._last
            self.raw_seconds += start - end
            self.seconds += (start - end) * (last_factor + factor) / 2
        self._last = (time.perf_counter(), factor)
