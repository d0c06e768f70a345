"""Host-speed probe: a fixed reference kernel timed between ops.

The benchmark was written on a shared 2-vCPU virtual machine whose
single-thread speed drifts by up to a third over tens of seconds: one fixed
set of 300 campaign ops took from 7.4 s to 12.0 s in back-to-back repeats,
while the stolen-time counter stayed below 1 %.  The drift comes from
outside the process, so every time the benchmark reports is scaled to a
fixed host speed: an op's time is multiplied by REFERENCE_S / (median time
of the probes taken within WINDOW_S of it).  The raw figures are printed
beside the result.

The kernel mirrors the program's hot path (small Qhull hulls, batched
determinants, short Python loops) but calls only Python, numpy and scipy,
never santalo_lab, so no change to the program can move it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.spatial import ConvexHull

# Probe time on the machine above when it was quiet.  Only sets the scale:
# reported times read as if the probe had taken this long.
REFERENCE_S = 1.8e-3
# Op time between two probes.
PROBE_EVERY_S = 0.1
# Probes this close to an op, before or after it, give its speed factor.
WINDOW_S = 2.0

_POINTS = np.random.default_rng(0).normal(size=(12, 3))


def _kernel() -> float:
    total = 0.0
    for i in range(20):
        hull = ConvexHull(_POINTS + 1e-3 * i)
        mats = hull.points[hull.simplices] - hull.points.mean(axis=0)
        total += float(np.abs(np.linalg.det(mats)).sum())
        total += sum(j * 0.5 for j in range(30))
    return total


class SpeedProbe:
    """Probe times taken through a run, and the speed factors they give."""

    def __init__(self):
        self.at: list[float] = []        # when each probe ended (perf_counter)
        self.samples: list[float] = []   # how long it took
        self._owed = 0.0
        _kernel()  # the first call in a process pays one-time costs

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            _kernel()
            self.at.append(time.perf_counter())
            self.samples.append(self.at[-1] - start)

    def after_op(self, op_seconds: float) -> None:
        """Probe once per PROBE_EVERY_S of op time, at least once per long op."""
        self._owed += op_seconds / PROBE_EVERY_S
        if self._owed >= 1:
            self.probe(int(self._owed))
            self._owed -= int(self._owed)

    @property
    def factor(self) -> float:
        """Factor for the whole run: from the median of every probe."""
        return REFERENCE_S / statistics.median(self.samples)

    def factor_at(self, t: float) -> float:
        """Factor for an op at time `t`: from the probes within WINDOW_S of it."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        return REFERENCE_S / statistics.median(self.samples[lo:hi] or self.samples)
