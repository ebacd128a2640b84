"""Host-speed calibration for the scan benchmark.

The benchmark runs on a few cores of a shared host whose speed drifts by a
factor of two within a minute, and from one second to the next.  While a
measurement runs, a SIGPROF timer interrupts it after every INTERVAL_S of
the process's CPU time and times a short fixed pure-Python loop (string
formatting, dict updates, tuples and a set: the operations the scanner is
made of).  The measured compute time, multiplied by REFERENCE_S and divided
by the mean loop time, is the time the same work takes on a host where the
loop takes REFERENCE_S.

Time spent in the loop and time spent sleeping on a request are taken out
of the measurement; neither is scaled.  The timer counts CPU time, so it
does not fire while the process sleeps.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager

INTERVAL_S = 0.05  # CPU time between two samples
LOOP_ITERATIONS = 2000
# A fixed constant, about the loop's time on the 2-vCPU host of the seed
# numbers (NOTES.md) when that host is quiet.  Changing it rescales every
# reported time, so it stays fixed.
REFERENCE_S = 0.0011


def _loop() -> int:
    counts: dict[str, int] = {}
    pairs = []
    for i in range(LOOP_ITERATIONS):
        key = f"k{i % 997}"
        counts[key] = counts.get(key, 0) + 1
        pairs.append((key, i))
    return len({key for key, _ in pairs}) + sum(counts.values())


def union_s(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by (start, end) intervals that may overlap."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Sampler:
    """Samples the host's speed during one measurement."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) of each loop

    def sample(self, *_signal_args) -> None:
        # The loop's garbage is freed before it returns; no collection of the
        # measured program's heap runs inside it.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _loop()
        self.samples.append((start, time.perf_counter()))
        if collecting:
            gc.enable()

    @contextmanager
    def running(self):
        """Take one sample now, then one after every INTERVAL_S of CPU time."""
        self.sample()
        previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def loop_ms(self) -> float:
        """Mean time of the calibration loop, in milliseconds."""
        return sum(end - start for start, end in self.samples) / len(self.samples) * 1000.0

    def reference_s(self, start: float, end: float, sleeps: list[tuple[float, float]] = ()) -> float:
        """Wall time from `start` to `end` at reference speed.  `sleeps` are
        the (start, end) intervals spent waiting on requests."""
        def clipped(intervals):
            return [(max(a, start), min(b, end)) for a, b in intervals if b > start and a < end]

        waiting = union_s(clipped(sleeps))
        compute = end - start - union_s(clipped([*self.samples, *sleeps]))
        return compute * REFERENCE_S * 1000.0 / self.loop_ms() + waiting
