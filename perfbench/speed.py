"""How fast the shared machine runs Python, sampled around and during a call.

The benchmark machine is shared. Its speed changes by up to 2x within
seconds as other tenants come and go, which would swamp the changes the
benchmark must detect. So a fixed pure-Python probe is timed a few times
before and after each measured call, and once every SAMPLE_EVERY_S of CPU
time during it, from a SIGPROF handler. Each stretch of the call between
two probes, divided by the probes' mean time and multiplied by
PROBE_REFERENCE_S, is that stretch at the reference machine's speed; their
sum is the call's duration at that speed, with the probes taken out.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

PROBE_STEPS = 4000
PROBES_AROUND = 5
SAMPLE_EVERY_S = 0.05
# probe()'s median time over the 280 calls measured while the benchmark was
# defined, on a shared 2-core Intel Xeon with Python 3.11.7 (range 1.6-3.3 ms).
PROBE_REFERENCE_S = 0.0022


def _step(i: int, table: dict) -> float:
    key = i % 61
    value = math.lgamma(key + 1.0) - math.log(i) + math.exp(-(key % 7))
    table[key] = (value, i)
    return value


def probe() -> float:
    """Seconds for a fixed kernel of calls, float math, dict and tuple work.
    The collector is off, so the program's heap cannot slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        for i in range(1, PROBE_STEPS):
            _step(i, table)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Samples:
    """Probe times taken around and during one block."""

    def __init__(self):
        self.before: list[float] = []
        self.after: list[float] = []
        self.during: list[tuple[float, float]] = []  # (taken at, probe seconds)
        self.start = self.end = 0.0

    def _sample(self, signum, frame):
        taken_at = perf_counter()
        self.during.append((taken_at, probe()))

    @contextmanager
    def taken(self):
        self.before = [probe() for _ in range(PROBES_AROUND)]
        previous = signal.signal(signal.SIGPROF, self._sample)
        self.start = perf_counter()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self.end = perf_counter()
            signal.signal(signal.SIGPROF, previous)
            self.after = [probe() for _ in range(PROBES_AROUND)]

    def probing_s(self) -> float:
        """Seconds the probes took inside the block."""
        return sum(seconds for _, seconds in self.during)

    def mean_probe_s(self) -> float:
        return statistics.fmean(self.before + [s for _, s in self.during] + self.after)

    def at_reference_speed(self) -> float:
        """The block's own time at the reference machine's speed. Each
        stretch between two probes is scaled by the mean of the probe times
        at its ends, so a change of speed inside the block is followed."""
        marks = [(self.start, self.start, statistics.fmean(self.before))]
        marks += [(at, at + seconds, seconds) for at, seconds in self.during]
        marks.append((self.end, self.end, statistics.fmean(self.after)))
        total = 0.0
        for (_, resumed, speed_a), (stopped, _, speed_b) in zip(marks, marks[1:]):
            total += (stopped - resumed) * 2.0 / (speed_a + speed_b)
        return total * PROBE_REFERENCE_S
