"""Machine-speed reference: rescale measured times to a fixed CPU speed.

On a shared host the speed of a core changes by up to about 1.8x within
seconds, as other tenants come and go on the same physical core. A run's
median then depends on how much of it fell in a slow spell, and two runs of
the same code differ by more than a change worth finding.

The sampler runs a fixed reference loop every ``INTERVAL_S`` on a
real-time timer signal while a command runs, and once just before and just
after it. The loop is two equal parts: interpreted arithmetic around 4x4
matrix products, and in-place passes over a 1 MiB array. Neither part
allocates more than a few small arrays, so the loop's time does not depend
on how much memory the program holds. ``twirlkit`` spends its time in a
mix of the two, and a slow spell slows the two by different amounts; on
the host where the benchmark was defined, the sum of both parts tracked
the slowdown of its commands better than either part alone.

Each stretch of command time between two samples is rescaled by
``REFERENCE_S / local loop time``, the local loop time being the mean of
the nearest samples. The result reads as the command's time on a core
where the loop takes ``REFERENCE_S``; the time the samples themselves take
is left out. Set-up probes run in child processes, so they are rescaled by
bursts of samples taken just before and after each.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# One loop's time on the 2-vCPU Xeon host where the benchmark was defined,
# in its faster spells. Any fixed value works; this one keeps rescaled times
# close to the seconds that host gives when nothing else runs on the core.
REFERENCE_S = 2.0e-3
MATRIX_ITERATIONS = 800
ARRAY_PASSES = 4
INTERVAL_S = 0.2
LOCAL_SAMPLES = 3  # samples on each side of a stretch whose mean sets its speed
BURST_SAMPLES = 9

_A = np.arange(16.0).reshape(4, 4) / 16.0
_X = np.arange(1 << 17, dtype=float)  # 1 MiB
_Y = np.empty_like(_X)


def reference_loop() -> float:
    """Fixed work: interpreted arithmetic around small matrix products, then
    in-place passes over a 1 MiB array."""
    s = 0.0
    a = _A
    for i in range(MATRIX_ITERATIONS):
        m = a @ a
        s += m[i & 3, 1] * 0.5 + i
    for _ in range(ARRAY_PASSES):
        np.multiply(_X, 1.0001, out=_Y)
        np.add(_Y, 1.0, out=_Y)
        np.sqrt(_Y, out=_Y)
    return s + float(_Y[-1])


class SpeedSampler:
    """Times the reference loop on a timer and rescales spans of time by it."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False
        self._previous_handler = None

    def sample(self) -> int:
        """Run the loop once, record it and return its index (-1 if one is running)."""
        if self._busy:
            return -1
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.ends.append(t1)
            return len(self.ends) - 1
        finally:
            self._busy = False

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def durations(self, first: int, last: int) -> list[float]:
        return [self.ends[i] - self.starts[i] for i in range(first, last + 1)]

    def rescaled(self, t0: float, t1: float, first: int, last: int) -> float:
        """Time in ``[t0, t1]`` outside samples, at the reference speed.

        ``first`` and ``last`` index the samples taken just before ``t0`` and
        just after ``t1``; the samples between them ran inside the interval.
        """
        durations = self.durations(first, last)
        inner = [i for i in range(first + 1, last) if self.starts[i] >= t0 and self.ends[i] <= t1]
        # stretch k runs from the end of one sample to the start of the next
        edges = [t0] + [x for i in inner for x in (self.starts[i], self.ends[i])] + [t1]
        positions = [0] + [i - first for i in inner]  # sample that opens each stretch
        total = 0.0
        for k, pos in enumerate(positions):
            stretch = edges[2 * k + 1] - edges[2 * k]
            lo, hi = max(0, pos - LOCAL_SAMPLES + 1), min(len(durations), pos + LOCAL_SAMPLES + 1)
            total += stretch * REFERENCE_S / statistics.fmean(durations[lo:hi])
        return total

    def burst(self, n: int = BURST_SAMPLES) -> float:
        """Mean loop time over ``n`` back-to-back samples (timer stopped)."""
        indices = [self.sample() for _ in range(n)]
        return statistics.fmean(self.ends[i] - self.starts[i] for i in indices)

    def slowdown(self) -> float:
        """Median loop time over every sample so far, as a multiple of ``REFERENCE_S``."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends)) / REFERENCE_S
