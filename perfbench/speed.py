"""Machine-speed calibration for timings taken on a shared host.

On a small shared host the same single-threaded work can take twice as long
from one second to the next, because other tenants contend for the core and
its caches; the guest sees no steal time.  The slowdown is per core: a
calibration process on the other CPU does not see it, while a burst run on
the program's own thread does.  The benchmark therefore times a fixed
calibration burst (this file's own code, which does not touch treeshift) on
the main thread, from a SIGALRM handler every ``SAMPLE_INTERVAL_S`` while
a command runs.  A burst is interpreter-bound small-array numpy plus
big-integer arithmetic, the kind of work of ``psi``, the searches and the
oracle; it allocates under 100 kB, so it leaves the program's heap as it
was.

A measured time is reported in reference seconds,

    raw seconds (handler bursts excluded) * (REF_S / mean burst seconds) ** e,

with ``e`` the command's measured speed exponent (``run.Command``).  At
``e = 1`` it is the time the work would take at the speed at which a burst
takes ``REF_S``.  An interval too short to hold a burst uses the nearest
bursts taken before and after it.  Raw seconds and speed factors go into
the run record.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

REF_S = 0.001
SAMPLE_INTERVAL_S = 0.1
ROUNDS = 120
WARM_ROUNDS = 40

_VEC = np.linspace(-3.0, 3.0, 9)
_BIG = 7**8000


def _kernel(rounds: int) -> float:
    acc = 0.0
    for i in range(rounds):
        top = _VEC.max()
        acc += float(top + np.log(np.exp(_VEC - top).sum()))
        acc += sum({k: k * i for k in range(12)}.values())
    return acc + (_BIG * (_BIG + int(acc))) % 97


def burst() -> float:
    """Run the calibration kernel once; returns the seconds of its timed part.

    An untimed warm-up first brings the kernel's code and data back into the
    caches, whatever the program was doing, and the collector is paused, so
    the timed part does not depend on the program's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        _kernel(WARM_ROUNDS)
        t0 = time.perf_counter()
        _kernel(ROUNDS)
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class SpeedSampler:
    """Calibration bursts every ``SAMPLE_INTERVAL_S`` from a SIGALRM handler."""

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S):
        self.interval_s = interval_s
        self.bursts: list[tuple[float, float]] = []  # (start, seconds)

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.bursts.append((start, burst()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw seconds without handler bursts, speed factor) for the interval [t0, t1]."""
        inside = [b for b in self.bursts if t0 <= b[0] <= t1]
        raw = (t1 - t0) - sum(s for _, s in inside)
        if not inside:
            before = [b for b in self.bursts if b[0] < t0][-1:]
            after = [b for b in self.bursts if b[0] > t1][:1]
            inside = before + after
        return raw, REF_S / statistics.fmean(s for _, s in inside)
