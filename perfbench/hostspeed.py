"""Timings scaled to a reference host speed, measured by a probe.

The benchmark shares a machine with other work, and the speed at which
it runs Python drifts by up to twofold over minutes: the same fixed
loop took 4.1 ms in one run and 7.9 ms a minute later on a 2-CPU
x86-64 host, and plain wall times of ten runs spread 0.3-0.4 (quartile
distance over the median).  So the benchmark times a short fixed
pure-Python probe after every timed operation and scales the
operation's wall time by ``REFERENCE_PROBE_S`` over the mean of the
probes on either side of it.  A change that makes the program faster or
slower moves the scaled time by the same share; a change of the host's
speed moves both the operation and its probes and cancels.

Probes run between operations, never inside them, and their time is
left out of every reported figure.  An operation that lasts several
seconds is scaled by probes that are seconds apart, so it tracks the
host less closely than a short one.
"""

from __future__ import annotations

import gc
import time

#: The probe's time on a 2-CPU x86-64 host (Python 3.11) at its usual
#: speed; scaled times are wall times on a host that runs it this fast.
REFERENCE_PROBE_S = 0.009


class _Row:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def probe() -> float:
    """Run the fixed probe once; its wall time in seconds.

    Attribute reads, dict updates, string slicing, calls and a sort:
    the kind of interpreted work most of ``repro`` does.  The garbage
    collector is off meanwhile: a full collection over a workload's
    inputs would otherwise land in a probe now and then and triple it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        totals: dict = {}
        rows = []
        for i in range(8_000):
            row = _Row(str(i), i)
            key = row.key[-2:]
            totals[key] = totals.get(key, 0) + row.value
            rows.append((key, row.value))
        rows.sort()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class HostClock:
    """Scales a sequence of operations' wall times, one probe between each.

    Call ``lap(wall)`` right after each timed operation: it runs the
    probe and returns ``wall`` scaled by the probes before and after.
    ``started`` is the end of the first probes, which set up no work.
    """

    def __init__(self) -> None:
        probe()  # a fresh interpreter runs the probe's first pass slowly
        self.last = probe()
        self.probes = [self.last]
        self.started = time.perf_counter()

    def lap(self, wall: float) -> float:
        after = probe()
        scaled = wall * REFERENCE_PROBE_S * 2.0 / (self.last + after)
        self.last = after
        self.probes.append(after)
        return scaled

    def since(self, started: float) -> float:
        """Scaled time from ``started`` to now, then a probe."""
        return self.lap(time.perf_counter() - started)
