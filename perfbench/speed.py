"""A processor speed probe that runs inside a cell, alongside it.

On a shared virtual machine the same cell can take twice as long from one
minute to the next: the processor itself runs slower, with no extra CPU
time, page faults or context switches to show for it, and the two vCPUs
drift independently.  A probe timed between cells misses changes that
happen during a cell, so this one interrupts the cell: every ``PERIOD_S`` of
wall time a SIGALRM handler times a fixed kernel of small numpy calls, the
kind of work the cells do.  The mean probe time says how fast the processor
ran during the cell, and ``run.py`` scales the cell's time, less the probe's
own, to the speed at which the probe takes ``REFERENCE_S``.

The probe works on its own constant array, draws from no RNG and touches
no ``pearlkit`` state, so cells write the same bytes with it as without it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
REPEATS = 10
# Probe time at the reference speed; near this kernel's time on a 2.0 GHz
# Xeon vCPU in a quiet period.
REFERENCE_S = 2.2e-3


class SpeedProbe:
    def __init__(self):
        self.points = np.sin(np.arange(192.0)).reshape(64, 3)
        self.busy_s = 0.0
        self.samples = 0
        self._previous = None

    def _sample(self, signum, frame):
        points, clock = self.points, time.perf_counter
        start = clock()
        for _ in range(REPEATS):
            (points[:, None, :] <= points[None, :, :]).all(axis=2).sum()
        self.busy_s += clock() - start
        self.samples += 1

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> tuple[float, float]:
        """Probe time spent inside the cell, and the mean time of one probe."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        inside = self.busy_s
        if not self.samples:  # a cell shorter than one period: probe once after it
            self._sample(signal.SIGALRM, None)
        return inside, self.busy_s / self.samples
