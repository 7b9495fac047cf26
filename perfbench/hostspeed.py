"""Host-speed reference: a fixed stdlib ``Fraction`` loop, timed while a
workload runs, so that end-to-end times can be given at a fixed host speed.

The benchmark host's speed swings by up to 2x within seconds and drifts
over minutes, while CPU time tracks wall time, so the slowdown is invisible
to the guest and no run length averages it out.  A short reference loop,
timed every ``INTERVAL_S`` of wall time during the workload (from a
``SIGALRM`` handler) or inside each timed import's interpreter, measures
that speed where the work ran.  A time ``t`` with reference samples ``r_i`` becomes

    t * REF_NOMINAL_S * mean(1 / r_i)

seconds at the nominal speed: the samples are evenly spaced in wall time,
so ``mean(1 / r_i)`` is the mean host speed over ``t``.  A sample slowed by
a preemption has a large ``r_i`` and so counts for little.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

REF_ITERS = 300            # one reference sample: 1.3-2.6 ms on a 2-core Xeon VM
REF_NOMINAL_S = 0.002      # a sample time at which a normalised second is a wall second
INTERVAL_S = 0.1           # wall time between samples while a workload runs


def reference_loop(iters: int) -> int:
    """Fixed Fraction arithmetic; returns a checksum so the work is used."""
    acc = 0
    for k in range(1, iters + 1):
        x = Fraction(k, 7) * Fraction(3, k + 1) + Fraction(k % 5, 4)
        acc += x.numerator
    return acc


_REF_CHECK = 350837         # reference_loop(REF_ITERS)


def reference_sample() -> float:
    """Seconds for one reference loop, with the garbage collector held off
    so that a collection of the workload's heap is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = reference_loop(REF_ITERS)
        dt = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if acc != _REF_CHECK:
        raise AssertionError("reference loop miscomputed")
    return dt


def normalised(seconds: float, samples: list[float]) -> float:
    """``seconds`` of wall time, given at the nominal host speed."""
    if not samples:
        raise ValueError("no reference samples")
    return seconds * REF_NOMINAL_S * sum(1.0 / r for r in samples) / len(samples)


class Sampler:
    """Takes a reference sample every ``INTERVAL_S`` of wall time, in the
    main thread, between ``start`` and ``stop``.

    ``spent`` is the wall time of all samples so far; callers subtract it
    from the times they measure.  ``listener``, if set, is called with each
    sample's duration (the tracer uses it to keep samples out of spans).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.listener = None
        self._old_handler = None

    def sample(self) -> None:
        t0 = perf_counter()
        self.samples.append(reference_sample())
        dt = perf_counter() - t0
        self.spent += dt
        if self.listener is not None:
            self.listener(dt)

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
