"""The machine's speed during a pass, from a fixed piece of reference work.

The benchmark runs on shared hosts whose speed drifts by a fifth and
more over seconds to minutes, the same on the CPU clock as on the wall
clock: on a 2-vCPU VM the same code runs either at full speed or some
60% slower, switching several times a second.  A pass therefore times,
besides its ops, a fixed chunk of pure-Python work like the package's
own (partitions, duals, dominance tests, a dict, ``Fraction`` sums)
every ``EVERY_S`` CPU seconds.  The mean chunk time over ``CHUNK_S``,
the chunk's time at the reference speed, is the pass's slowdown; the
mean, unlike the median, moves smoothly with the share of slow time.
run.py divides the pass's times by the slowdown, which reports them in
seconds at the reference speed.  The reference work is part of the
benchmark, so a change to the package does not move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from itertools import zip_longest

CHUNK_S = 0.0015  # one chunk's CPU time at the reference speed
EVERY_S = 0.1  # CPU time between chunks during a pass
MIN_CHUNKS = 9  # chunks per measurement, however short the pass

_N = 8  # partitions of _N, compared in pairs: 22 * 22 pairs per chunk


def _partitions(n: int, cap: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [(p, *rest) for p in range(min(n, cap), 0, -1) for rest in _partitions(n - p, p)]


def _dual(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def _dominates(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    acc = 0
    for a, b in zip_longest(lam, mu, fillvalue=0):
        acc += a - b
        if acc < 0:
            return False
    return True


def _chunk() -> int:
    """Work of the package's kinds: partitions, duals, dominance, a dict, Fractions."""
    parts = _partitions(_N, _N)
    duals = {lam: _dual(lam) for lam in parts}
    count = 0
    acc = Fraction(0)
    for lam in parts:
        for mu in parts:
            if _dominates(lam, mu) and _dominates(duals[mu], duals[lam]):
                count += 1
                acc += Fraction(len(lam) - len(mu), 4)
    return count + acc.numerator


class SpeedProbe:
    """Times chunks of reference work and keeps their CPU time apart.

    With ``timer=True`` a profiling timer interrupts the process every
    ``EVERY_S`` CPU seconds, also in the middle of a long op, and the
    signal handler times a chunk.  Without it, ``poll()`` between ops
    times one when ``EVERY_S`` have passed; traced passes use that, so
    that no chunk lands inside a span.  ``clock()`` is the thread's CPU
    time less the probe's own, which is how ops are timed.  It reads the
    thread's clock because an armed profiling timer makes Linux update
    the process's CPU clock only once per scheduler tick.
    """

    def __init__(self, timer: bool = False):
        self.samples: list[float] = []
        self.spent = 0.0  # CPU time taken by the probe itself
        self._last = time.thread_time()
        self._timer = timer
        if timer:
            signal.signal(signal.SIGPROF, lambda _signum, _frame: self.measure())
            signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def measure(self) -> None:
        t0 = time.thread_time()
        _chunk()  # warms the caches the op before it may have evicted
        t1 = time.thread_time()
        _chunk()
        self.samples.append(time.thread_time() - t1)
        self._last = time.thread_time()
        self.spent += self._last - t0

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = time.thread_time()
            if self.spent == spent:  # no chunk ran between the two reads
                return now - spent

    def poll(self) -> None:
        if not self._timer and time.thread_time() - self._last >= EVERY_S:
            self.measure()

    def slowdown(self) -> float:
        """Stops the timer; the mean chunk time over ``CHUNK_S``.

        Tops the samples up to ``MIN_CHUNKS`` first.
        """
        if self._timer:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self._timer = False
        while len(self.samples) < MIN_CHUNKS:
            self.measure()
        return statistics.fmean(self.samples) / CHUNK_S

    def local_slowdown(self, first: int, end: int) -> float:
        """Slowdown around an op that ran while samples ``first..end-1`` were taken.

        Averages those and the samples just before and after them, where
        there are such.  Call after ``slowdown()``, which tops up the
        samples.
        """
        return statistics.fmean(self.samples[max(first - 1, 0):end + 1]) / CHUNK_S
