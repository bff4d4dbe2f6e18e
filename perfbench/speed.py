"""Host speed during a timed solve, to report solve times at a fixed reference speed.

The benchmark shares a few cores of a host with other guests, and the speed
those cores give one thread changes by up to 1.7 times within seconds:
glr-k4 items of near-equal work ran from 5.4 s to 9.5 s within minutes,
and their process CPU time moved with the wall time, so neither is steady.
``Speedometer`` samples that speed while the program runs: every
``INTERVAL_S`` of wall time a SIGALRM handler times ``probe``, a fixed
loop of benchmark code that shares nothing with svp.  The solve's time
is then taken net of the probes and scaled by the mean probe speed over
the solve relative to ``NOMINAL_S``:

    reference seconds = (wall - probe time) * mean(NOMINAL_S / probe duration)

which is the time the solve would take at the speed where one probe lasts
``NOMINAL_S``.  A change that makes svp do less work lowers it; a host
that gets slower for a while does not.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

INTERVAL_S = 0.25
PROBE_REPS = 60_000
# About the probe's duration on the 2-vCPU Xeon host the benchmark was
# written on; it only sets the scale, so reference seconds read close to
# wall seconds there.
NOMINAL_S = 0.010


def probe() -> float:
    """Wall seconds of a fixed pure-Python float loop, with the garbage collector held off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, x = 0.0, 1.0
        for i in range(PROBE_REPS):
            x = x * 1.0000001 + 0.5
            acc += math.sqrt(x) - (i & 7) * 0.25
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Speedometer:
    """Context that probes the host's speed every ``INTERVAL_S`` while it is open."""

    def __init__(self) -> None:
        self.probes: list = []

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(probe())

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_s(self) -> float:
        """Wall seconds the probes took inside the context."""
        return sum(self.probes)

    def factor(self) -> float:
        """Mean host speed over the context, relative to the reference speed.

        A context shorter than one interval holds no probe; one probe taken
        right after it stands in.
        """
        durations = self.probes or [probe()]
        return statistics.fmean(NOMINAL_S / d for d in durations)
