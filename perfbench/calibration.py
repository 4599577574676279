"""Timings in reference seconds, for a host shared with other tenants.

On a shared host the speed of one core changes by up to 1.6x within seconds
(busy hyperthread siblings on the host), and a command's wall time changes
with it: the same `classify` took 1.2 s to 2.4 s within three minutes.  So
while a step runs, an interval timer interrupts it every 50 ms to time a
fixed slice of pure-Python work (about 2 ms of integer arithmetic and of
reads from a large list, allocating no tracked object, so it never triggers
the garbage collector).  The step's own time is its wall time minus the
slices, and its time in reference seconds is that own time scaled by
``REFERENCE_SLICE_S / mean slice time``: the time the step takes when the
slice takes ``REFERENCE_SLICE_S``.  Both the step and the slices run on the
same core at the same moments, so a slowdown of the host stretches both
alike.  Standard library only, so it can time the import of numpy and of the
program.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

INTERVAL_S = 0.05
# The slice's time on the reference host, where the reference figures in
# README.md were taken.
REFERENCE_SLICE_S = 0.0020
_SPIN = 12_000
# Reads in shuffled order from a 200,000-float pool (about 6 MB), so the
# slice also feels the host's contention for cache and memory, as the
# program's CSV parsing does.
_rng = random.Random(0)
_POOL = [_rng.random() for _ in range(200_000)]
_READS = _rng.sample(range(len(_POOL)), 8_000)


def _slice() -> float:
    t0 = perf_counter()
    total = 0
    for i in range(_SPIN):
        total += i * i % 7
    acc = 0.0
    for i in _READS:
        acc += _POOL[i]
    return perf_counter() - t0


@dataclass(frozen=True)
class Timing:
    wall: float   # the step's own wall time, seconds
    ref: float    # the same in reference seconds


def timed(step):
    """Run ``step()`` under the slice timer; return (its result, Timing).

    Garbage is collected first, outside the timing, so a command starts
    without the previous command's garbage, as it does in a fresh process.
    """
    gc.collect()
    slices = [_slice()]
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: slices.append(_slice()))
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = perf_counter()
    try:
        result = step()
    finally:
        wall = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
    own = wall - sum(slices[1:])
    return result, Timing(own, own * REFERENCE_SLICE_S / statistics.fmean(slices))
