"""The machine's current speed, read from a fixed piece of reference work.

The benchmark's host lends it a share of a busy machine whose speed flips
between two levels about 1.7x apart, within a second at times and for
minutes at others: ten runs of the same code on ten seeds read 1.8-2.2 s
per pass in their first six and 2.7-3.1 s in their last four. So the
reference work is timed at both ends of every short stretch of timed code
(a 50 ms stretch of a pass, or one set-up), and each stretch is scaled to
the speed at which the work takes NOMINAL_S. The work is independent of
asymlab, so a change to asymlab moves the scaled times as it moves the raw
ones. Steal time stays near zero through such swings and CPU time tracks
wall time, so neither would separate the program from the machine.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

# about what one timing of the work reads on the 2-vCPU VM where the first
# baseline was measured, while its host is in the faster of its two states
# (0.26-0.31 ms; 0.40-0.50 ms in the slower); a unit, not a tuned value
NOMINAL_S = 0.0003
# stretches of a pass are this long, so both speed levels are sampled many
# times in every pass; the probes then cost about 2% of the pass
SAMPLE_INTERVAL_S = 0.05


class Reference:
    """asymlab's two kinds of interpreted work in small fixed amounts: scalar
    Python arithmetic (the per-point Newton inversion) and numpy calls on
    tiny arrays (the per-point oracle formulas)."""

    def __init__(self):
        self._small = np.linspace(0.0, 1.0, 8)

    def probe(self) -> float:
        """Seconds one run of the work takes now."""
        t0 = perf_counter()
        x = 0.3
        for _ in range(600):
            x = x - (math.atan(x) - 0.2) * (1.0 + x * x)
        v = self._small
        for _ in range(80):
            v = np.sqrt(v * v + 1.0) - 1.0
        return perf_counter() - t0

    def seconds(self) -> float:
        """Median of 25 probes: the speed at one edge of an interval."""
        return statistics.median(self.probe() for _ in range(25))

    @staticmethod
    def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
        """`seconds` of an interval between two timings of the work, at the
        speed where the work takes NOMINAL_S."""
        return seconds * NOMINAL_S / ((ref_before + ref_after) / 2)


class Sampler:
    """Raw and scaled seconds of the code run between `start` and `stop`.

    A SIGALRM every SAMPLE_INTERVAL_S probes between two bytecodes of the
    timed code; the stretch before it is scaled by the probes at its two
    ends. Probe time is left out of both sums. A long call into C code
    delays the signal, which only lengthens that stretch."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.raw = self.scaled = 0.0

    def _tick(self, *_):
        dt = perf_counter() - self._t0
        self.ref.probe()  # the timed code left the caches cold
        r = self.ref.probe()
        self.raw += dt
        self.scaled += self.ref.scaled(dt, self._last, r)
        self._last = r
        self._t0 = perf_counter()

    def start(self):
        self.raw = self.scaled = 0.0
        self._last = self.ref.probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()
        signal.signal(signal.SIGALRM, self._previous)
