"""Run time in seconds of a reference core, on a host whose speed wanders.

On a shared host a core's speed can drop by half for seconds at a time, and
for whole 30-second runs, while CPU time drops with it, so neither the fastest
nor the median of a run's repetitions is steady from one run to the next.
The benchmark therefore times a fixed loop of interpreted Python and small
numpy calls, the mix bankfair itself runs, at the start and end of each run
and just before each call it is told about. It divides the program's wall
time between two such points by the mean of the two loop times around it.
The sum over a run, times ``REFERENCE_S``, is the run's length in seconds of
a core on which the loop takes ``REFERENCE_S``. The loop's own time is left
out of every figure.

numpy is imported on the first calibration, not with this module:
``config.py`` imports this module before it times ``import bankfair``, and
that time must include numpy's import.
"""

from __future__ import annotations

import functools
import statistics
import time

# A round figure near the fastest times of one calibrate() on the 2-vCPU KVM
# guest (Xeon at 2.0 GHz) the benchmark was written on; see README.md.
REFERENCE_S = 0.8e-3

_TABLE = {i: i for i in range(200)}
_scores = None


def calibrate() -> float:
    """Seconds a fixed loop takes now: the host's current speed."""
    global _scores
    import numpy as np
    if _scores is None:
        _scores = np.random.default_rng(0).random(2000)
    start = time.perf_counter()
    total = 0
    for i in range(800):
        total += _TABLE[i % 200] * i % 7
    for _ in range(60):
        top = np.argpartition(_scores, -10)[-10:]
        _scores[top].sum()
        np.maximum(_scores[:50] - 0.5, 0.0)
    return time.perf_counter() - start


def calibrate_median(times: int) -> float:
    return statistics.median(calibrate() for _ in range(times))


class Clock:
    """Times one call in wall seconds and in seconds of the reference core.

    ``points`` are (object, attribute) pairs: the functions before each call
    of which the host's speed is measured again, replaced where their caller
    looks them up, and only while ``run`` is running.
    """

    def __init__(self, points):
        self.points = points
        self._marks: list[tuple[float, float]] = []  # (program clock, loop seconds)
        self._paused = 0.0                             # loop time so far in this run

    def _mark(self):
        start = time.perf_counter()
        seconds = calibrate()
        self._marks.append((start - self._paused, seconds))
        self._paused += time.perf_counter() - start

    def _wrap(self, fn):
        @functools.wraps(fn)
        def calibrated(*args, **kwargs):
            self._mark()
            return fn(*args, **kwargs)
        return calibrated

    def run(self, fn, *args):
        """Call ``fn(*args)``; returns (result, wall seconds, reference seconds)."""
        self._marks.clear()
        self._paused = 0.0
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr in self.points]
        for owner, attr, original in saved:
            setattr(owner, attr, self._wrap(original))
        try:
            self._mark()
            result = fn(*args)
            self._mark()
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
        at = [t for t, _ in self._marks]
        loop = [s for _, s in self._marks]
        units = sum((b - a) / ((la + lb) / 2)
                    for a, b, la, lb in zip(at, at[1:], loop, loop[1:]))
        return result, at[-1] - at[0], units * REFERENCE_S
