"""Machine-speed probe that the benchmark's timings are scaled by.

The benchmark runs on a shared host whose speed drifts by a few tens of
percent over seconds to minutes, on every core at once.  That drift is
larger than the bounds the benchmark sets, so a raw timing tells more
about the host than about the program.  The parent process (``run.py``),
which never imports the program, times a fixed pure-Python computation
of the kind the program does (Fraction and big-integer arithmetic) while
the worker waits between invocations, every SYNC_S seconds of a run.
Each invocation's time is then scaled by REF_S over the probe time
interpolated at its middle: it is the time the invocation would have
taken with the host at the reference speed.  Because the probe runs in
another interpreter, nothing the program does to its own interpreter
can change the probe.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

SYNC_S = 2.0  # seconds of a timed run between probes
SAMPLES = 5  # probe units per probe; the probe is their median
# Time of one probe unit at the reference speed.  Only the ratio of two
# runs' figures matters, so any fixed value serves; on the 2-vCPU Xeon VM
# the baseline was measured on, the unit took 10-16 ms as the host's
# speed drifted.
REF_S = 0.0110


def _unit() -> Fraction:
    total = Fraction(0)
    for k in range(1, 1300):
        total += Fraction(k, k * k + 1)
    return total


def probe() -> tuple:
    """(middle of the probe on the perf_counter clock, probe seconds)."""
    start = time.perf_counter()
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - t0)
    return (start + time.perf_counter()) / 2, statistics.median(times)


def scale(at: float, probes: list) -> float:
    """REF_S over the probe time interpolated at ``at``.

    ``probes`` is a time-sorted list of ``probe()`` results; outside their
    span the nearest one is used.
    """
    stamps = [t for t, _ in probes]
    i = bisect.bisect_left(stamps, at)
    if i == 0:
        return REF_S / probes[0][1]
    if i == len(probes):
        return REF_S / probes[-1][1]
    (t0, p0), (t1, p1) = probes[i - 1], probes[i]
    return REF_S / (p0 + (p1 - p0) * (at - t0) / (t1 - t0))
