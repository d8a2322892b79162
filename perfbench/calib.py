"""Machine-speed reference for the end-to-end times.

On a 2-vCPU virtual machine (Intel Xeon, Python 3.11) whose cores other
tenants share, the speed of one fixed loop was measured to swing by up to
1.5x within seconds and to drift over minutes, and the raw pass times of
identical runs spread by about 20% (interquartile range over median).
So the benchmark samples a fixed pure-Python loop before and after every
pass and about every ``EVERY_S`` seconds between the chunks, twists and
coset audits that the main process runs; fork-pool workers sample it before
their first chunk and after each chunk.  The time of each such unit is
reported in seconds at the nominal reference speed:

    reported = measured * NOMINAL_S / loop time

where the loop time is the mean of the samples just before and just after
the unit, in the process that ran it.  A pass's time outside the main
process's units is scaled by the pass's mean factor over its pool workers'
chunks (by 1 when there are none); the workers' sampling cost, divided by
the number of workers, is not counted.  The set-up probes scale their
set-up time by a sample taken right after it.

A program change moves the reported time as it moves the measured one; a
change of machine speed moves the loop time too and cancels.  The raw times
and the loop times are printed beside the metrics.
"""

from __future__ import annotations

import bisect
import statistics
import time

perf = time.perf_counter

LOOP_ITERS = 50_000
NOMINAL_S = 0.004  # loop time that defines the reported second
EVERY_S = 0.25


def loop_time() -> float:
    """Median of three timings of the reference loop, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf()
        acc = 0
        for i in range(LOOP_ITERS):
            acc += i * i
        times.append(perf() - t0)
    return statistics.median(times)


def ref_around(times, samples, t0: float, t1: float) -> float:
    """Mean of the last sample ending before ``t0`` and the first after ``t1``.

    ``times`` are the samples' end times, ascending.
    """
    i = bisect.bisect_left(times, t0)
    j = bisect.bisect_left(times, t1)
    near = samples[i - 1:i] + samples[j:j + 1]
    return sum(near) / len(near)


class Calibrator:
    """Reference-loop samples of one run, and the time they took."""

    def __init__(self):
        self.samples: list = []
        self.times: list = []  # perf_counter() at the end of each sample
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self):
        t0 = perf()
        self.samples.append(loop_time())
        self._last = perf()
        self.times.append(self._last)
        self.spent += self._last - t0

    def ref_around(self, t0: float, t1: float) -> float:
        return ref_around(self.times, self.samples, t0, t1)

    def tick(self):
        """Sample if the last sample is older than ``EVERY_S``."""
        if perf() - self._last >= EVERY_S:
            self.sample()
