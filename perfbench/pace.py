"""Host pace: a fixed reference routine timed between items.

On a shared virtual machine the same work can take up to ~1.9x longer for
tens of seconds at a time, because other tenants contend for the cores and
caches. A run therefore times ``probe()`` -- a fixed mix of interpreter
and allocation work that does not touch the program under test -- every
``EVERY_S`` seconds between items, and scales each item's time (and each
pass's wall) by ``REFERENCE_S`` over the median probe time around it.
Times reported this way are seconds on a host where the probe takes
``REFERENCE_S``; they move with the program and hardly with the host's
momentary load. The raw times and every probe stay in the run's report.
"""

from __future__ import annotations

import bisect
import gc
import random
import time
from typing import List, Sequence, Tuple

from common import median

#: probe time, in seconds, on the reference host: the fast phase of the
#: shared 2-vCPU x86_64 VM the benchmark was tuned on (CPython 3.11).
REFERENCE_S = 0.016
#: a probe runs at the first tick at least this long after the last one.
EVERY_S = 0.25
#: a time span is scaled by the median of at least this many probes: those
#: inside it, or else the ones nearest to it.
NEAREST = 9

_SMALL = list(range(4096))


def probe() -> int:
    """The reference routine: dict updates, small-object allocation and a
    sort, then indexed reads. The collector is off while it runs, so the
    program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _routine()
    finally:
        if enabled:
            gc.enable()


def _routine() -> int:
    table: dict = {}
    acc = 0
    for i in range(37500):
        table[i & 1023] = acc
        acc += i % 7
    rng = random.Random(1)
    rows = [(rng.random(), i, (i, i)) for i in range(10000)]
    rows.sort()
    for j in range(37500):
        acc += _SMALL[j & 4095]
    return acc + len(rows)


class Pace:
    """Probe times (midpoint, seconds) taken during one run."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []
        self.probe_s = 0.0  # total time spent probing
        self._last = float("-inf")

    def tick(self) -> None:
        """Probe if the last probe ended ``EVERY_S`` ago or more."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.probe()

    def probe(self) -> float:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.probe_s += t1 - t0
        self._last = t1
        return t1 - t0

    def factor(self, t0: float, t1: float) -> float:
        """``REFERENCE_S`` over the median probe time inside ``[t0, t1]``,
        widened to the ``NEAREST`` probes closest to it when fewer fell
        inside."""
        return REFERENCE_S / median(nearest(self.samples, t0, t1, NEAREST))


def nearest(samples: Sequence[Tuple[float, float]], t0: float, t1: float, k: int) -> List[float]:
    """Probe times inside ``[t0, t1]``, or the ``k`` closest to it."""
    times = [t for t, _ in samples]
    lo = bisect.bisect_left(times, t0)
    hi = bisect.bisect_right(times, t1)
    while hi - lo < k and (lo > 0 or hi < len(samples)):
        if lo == 0 or (hi < len(samples) and times[hi] - t1 < t0 - times[lo - 1]):
            hi += 1
        else:
            lo -= 1
    return [s for _, s in samples[lo:hi]]
