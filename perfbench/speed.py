"""Machine-speed reference for timings taken on a shared, drifting host.

On a small shared virtual machine the same op can take 0.6 s in one minute
and 1.0 s in the next: neighbours on the host slow a vCPU down for seconds at
a time, and CPU time inflates with wall time.  Measured there, a 20-second
run's median op time moved by 25-38% (quartile spread over median) between
runs of identical work, which would hide any change smaller than that.

The benchmark therefore pins itself and its children to one CPU and times a
fixed pure-Python kernel (breadth-first searches over a seeded random graph,
the same kind of dict-and-list work as the package) on that CPU right before
and after each op.  An op's time is reported in reference seconds: its wall
time scaled by ``REFERENCE_S`` over the kernel's mean time around it.  The
kernel does not depend on the package, so the scale factor is the same on
two commits measured under the same load, and the ratio of the two commits'
times is what the raw wall times would show on a quiet machine.  In the same
experiment the spread of 20-second medians fell from 38% raw to 4% scaled.
"""

from __future__ import annotations

import os
import random
from time import perf_counter

GRAPH_VERTICES = 4000
GRAPH_OUT_DEGREE = 4
SOURCES = range(0, GRAPH_VERTICES, 400)
# Kernel wall time that defines one reference second; about its time on a
# 2 GHz Xeon vCPU with no contention.
REFERENCE_S = 0.02


def pin_to_one_cpu() -> int:
    """Restrict this process, and the children it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedMeter:
    """Times the reference kernel; ``scale`` turns wall seconds into reference seconds."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._succ = {
            v: rng.sample(range(GRAPH_VERTICES), GRAPH_OUT_DEGREE) for v in range(GRAPH_VERTICES)
        }
        self.last = self.sample()

    def _kernel(self) -> int:
        reached = 0
        for source in SOURCES:
            dist = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in self._succ[x]:
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            reached += len(dist)
        return reached

    def sample(self) -> float:
        start = perf_counter()
        self._kernel()
        return perf_counter() - start

    def scale(self) -> float:
        """Scale factor for the interval since the previous call (or construction)."""
        before, self.last = self.last, self.sample()
        return REFERENCE_S / ((before + self.last) / 2)
