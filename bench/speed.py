"""A yardstick for the host's speed while the benchmark measures.

On a shared host the same pure-Python work can take half as long again a
minute later, and that drift, not the library, decides how far apart two
runs land.  So while a block of measured work runs, a timer interrupts it
every ``INTERVAL_S`` seconds of wall time to run a *slice*, a fixed piece of
reference work.  The benchmark takes the slices' time out of the block's
and scales the rest to the reference speed at which one slice takes
``NOMINAL_S``:

    reported = (block time - slice time) * NOMINAL_S / mean slice time

The slices sample the host's speed at the same moments as the measured
work, and each block is scaled on its own slices, so drift within a run is
corrected too.  A slice is a Gaussian elimination in plain ``Fraction``
arithmetic on a fixed matrix; it uses no ``nilfol`` code, so a change to
the library does not change the yardstick.  The garbage collector is off
during a slice, so the heap the library leaves behind does not change its
cost.
"""

from __future__ import annotations

import gc
import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# seconds one slice takes at the reference speed (about the median on an
# idle 2-vCPU x86-64 host with CPython 3.11)
NOMINAL_S = 0.002
# wall time between the starts of two slices
INTERVAL_S = 0.02
SIZE = 7


def _matrix() -> list[list[Fraction]]:
    rng = random.Random("speed")
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(SIZE)]
            for _ in range(SIZE)]


MATRIX = _matrix()


def reference_work() -> int:
    """Rank of ``MATRIX`` by full elimination over Q."""
    m = [row[:] for row in MATRIX]
    rank = 0
    for c in range(SIZE):
        pivot = next((i for i in range(rank, SIZE) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(SIZE):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class Yardstick:
    """Slices run so far and the seconds they took."""

    def __init__(self) -> None:
        self.slices = 0
        self.seconds = 0.0

    def _slice(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        self.seconds += time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.slices += 1

    def run(self, count: int) -> None:
        """Run ``count`` slices back to back."""
        for _ in range(count):
            self._slice()

    @contextmanager
    def sampling(self):
        """Run a slice at the start of the block and every ``INTERVAL_S``
        seconds of wall time while it runs."""
        previous = signal.signal(signal.SIGALRM, self._slice)
        self._slice()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor from measured to reference time, rated on every slice."""
        return NOMINAL_S * self.slices / self.seconds

    def start(self) -> None:
        self._start = (time.perf_counter(), self.slices, self.seconds)

    def stop(self) -> float:
        """Seconds since ``start()``, slices taken out, scaled to the
        reference speed on the slices run in between (on every slice when
        none ran)."""
        t0, slices, seconds = self._start
        sliced = self.seconds - seconds
        net = time.perf_counter() - t0 - sliced
        if self.slices == slices:
            return net * self.scale()
        return net * NOMINAL_S * (self.slices - slices) / sliced


class Stopwatch:
    """Plain wall time, for runs without the yardstick."""

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        return time.perf_counter() - self._t0
