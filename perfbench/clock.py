"""A clock for the untraced run that the processor's speed shifts do not move.

On a shared machine the processor runs fast for a few seconds, then up to
50% slower for a few more, and a whole run can land in a slow stretch. The
program's times then say more about its neighbours than about itself. So
the untraced run measures the processor's speed next to the program: a
timer interrupts the run every ``PERIOD_S`` seconds and times a fixed
calibration ``kernel`` made of the same kinds of work as the program.
A duration measured between ``a`` and ``b`` is then reported *scaled*:
multiplied by ``REFERENCE_MS`` over the kernel's median time during the
interval and ``WINDOW_S`` either side of it. It reads as the time the work
would take on a processor on which the kernel takes ``REFERENCE_MS``, a
round figure within the range of the kernel's run medians on the machine
the benchmark was tuned on (see README.md). The kernel is the
benchmark's own, so a change to the program moves the scaled times and
never the kernel.

``now()`` stops while the kernel runs, so no interval the benchmark times
includes calibration. ``Wall`` is the plain clock with the same interface,
for traced runs and the quick test.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

PERIOD_S = 0.1       # one calibration per this much wall time
WINDOW_S = 0.25      # an interval is scaled by the samples this close to it
REFERENCE_MS = 4.0   # within the kernel's run medians on the tuning machine

_rng = np.random.default_rng(0)
_A = _rng.random((64, 256))
_B = _rng.random((256, 195))
_W = _rng.random((64, 96))
_X = _rng.random(96)
_P = _rng.random(147_075)


def kernel():
    """Comparable shares of interpreter loop work, tiny numpy calls (a
    decoder step's size), small matrix products and element-wise passes
    over a parameter-sized array: the parts the program's time is made of.
    Each part alone tracks some of the program's stages less well than
    their sum does."""
    total, seen = 0, {}
    for i in range(6000):
        total += i
        seen[i % 7] = total
    for _ in range(100):
        h = np.tanh(_W @ _X)
        e = np.exp(h - h.max())
        e /= e.sum()
    for _ in range(4):
        h = _A @ _B
        np.tanh(h, out=h)
    m = 0.9 * _P + 0.1 * _P * _P
    np.sqrt(m, out=m)


class Wall:
    """Plain wall time; scaling is the identity."""

    def now(self):
        return perf_counter()

    def scaled(self, a, b):
        return b - a

    def running(self):
        return nullcontext(self)

    def detail(self):
        return None


class Calibrated:
    """Wall time with the calibration pauses taken out, and the kernel's
    timings to scale intervals by. Use ``with clock.running():`` around
    everything timed; the timer is off outside it."""

    def __init__(self):
        self.paused = 0.0    # total time spent in the kernel so far
        self.starts = []     # kernel start times, on this clock
        self.ms = []         # kernel durations

    def now(self):
        # The timer can fire between the two reads; then read again.
        while True:
            paused = self.paused
            t = perf_counter() - paused
            if paused == self.paused:
                return t

    def _sample(self, signum, frame):
        t0 = perf_counter()
        kernel()
        d = perf_counter() - t0
        self.starts.append(t0 - self.paused)
        self.ms.append(d * 1e3)
        self.paused += d

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)   # so that every interval has a sample
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed_ms(self, a, b):
        """The kernel's median time over ``[a - WINDOW_S, b + WINDOW_S]``,
        or over the whole run if no sample fell there."""
        i = bisect.bisect_left(self.starts, a - WINDOW_S)
        j = bisect.bisect_right(self.starts, b + WINDOW_S)
        return statistics.median(self.ms[i:j] or self.ms)

    def scaled(self, a, b):
        return (b - a) * REFERENCE_MS / self.speed_ms(a, b)

    def detail(self):
        q1, q2, q3 = np.percentile(self.ms, [25, 50, 75])
        return {"period_s": PERIOD_S, "window_s": WINDOW_S,
                "reference_ms": REFERENCE_MS, "samples": len(self.ms),
                "kernel_ms_quartiles": [q1, q2, q3]}

