"""A speed probe that measures how fast the machine runs, between ops.

On a shared box the whole CPU speeds up and slows down by up to 40% over
seconds and minutes, and interpreter loops, BLAS calls and NumPy C loops all
scale together.  So the benchmark runs a fixed probe kernel off the clock
right before every op.  Every duration it reports is the interval's wall
time multiplied by ``PROBE_MS / median(probe time)`` over the probes near
the interval.  The result reads in milliseconds at the speed where the probe
takes ``PROBE_MS``.  The probe is the benchmark's own code and never
changes, so parent and change are measured in the same unit.

No probe runs inside an op, so the program's cache, TLB and allocator state
cannot change the unit it is measured in.  Each burst starts with an untimed
pass of the kernel, which brings the kernel's code and data back into cache
after the previous op; the timed passes write their products into
preallocated buffers.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# About what the probe takes on the 2-vCPU Xeon box the benchmark was
# written on, so reference-speed times read close to wall times there.
PROBE_MS = 0.135
NEAREST = 4  # probes taken on each side of an interval, at least

_MATRIX = np.random.default_rng(20221031).normal(size=(48, 48)) / 7.0
_BUFFERS = (np.empty_like(_MATRIX), np.empty_like(_MATRIX))


def kernel() -> float:
    """A little interpreter work and a few small BLAS products."""
    acc = 0
    for i in range(1500):
        acc += i * i
    m = _MATRIX
    for step in range(4):
        m = np.matmul(_MATRIX, m, out=_BUFFERS[step % 2])
    return acc + float(m[0, 0])


class SpeedProbe:
    """Probes taken between intervals, and the rescaling they give."""

    def __init__(self):
        self.starts: list[int] = []  # ns, increasing
        self.costs: list[int] = []  # ns of each probe's timed pass

    def burst(self, count: int) -> None:
        """Run ``count`` probes now, off the clock."""
        kernel()  # warm pass: the kernel's code and data back in cache
        for _ in range(count):
            start = time.perf_counter_ns()
            kernel()
            self.costs.append(time.perf_counter_ns() - start)
            self.starts.append(start)

    def rescale_ms(self, start_ns: int, end_ns: int) -> float:
        """Reference-speed duration of ``[start_ns, end_ns)``, in ms.

        The speed is the median over the ``NEAREST`` probes before the
        interval, the ``NEAREST`` after it and any inside it.
        """
        lo = max(0, bisect.bisect_left(self.starts, start_ns) - NEAREST)
        hi = bisect.bisect_left(self.starts, end_ns) + NEAREST
        if lo >= len(self.costs):
            raise RuntimeError("no speed probe ran near the interval")
        speed = PROBE_MS / (statistics.median(self.costs[lo:hi]) * 1e-6)
        return (end_ns - start_ns) * 1e-6 * speed
