"""Host-speed probe: times are reported at a fixed reference speed.

The shared host this benchmark was built on runs the same code up to ~1.9x
faster or slower for seconds to minutes at a time, so raw times of the same
code spread past any useful bound from run to run.  Each op's time is
therefore scaled by ``REFERENCE_S / p``, where ``p`` is the median time of
the probe loop below over the probes taken from ``SPAN_S`` before the op
starts to ``SPAN_S`` after it ends.  Probes are taken in the process that
runs the ops: at its start and end, and between ops.  The probe is a fixed
dict-and-tuple loop: of the loops tried, its time tracked the speed of
cylkit's own code across the host's states most closely (30-second medians
of cylkit time over probe time stayed within 2.5 % while raw cylkit time
moved by 72 %).  The probe is benchmark code, so a change to cylkit cannot
move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# The probe's time at the reference speed: about its time on the host the
# benchmark was built on (2 vCPUs of an "Intel(R) Xeon(R) Processor",
# CPython 3.11) in its commoner, slower state.
REFERENCE_S = 0.0004
# Probes taken by each child, and around each set-up, at its start and end.
AROUND = 1
# Between ops, a probe is taken once this much time has gone since the last.
EVERY_S = 0.020
# An op's speed is the median of the probes from SPAN_S before it starts to
# SPAN_S after it ends, and of at least MIN_PROBES probes nearest to it.
SPAN_S = 0.1
MIN_PROBES = 4


def _loop() -> None:
    counts: dict = {}
    for i in range(1500):
        key = (i & 255, i >> 8)
        counts[key] = counts.get(key, 0) + 1


def probe() -> float:
    """Wall time of one fixed dict-and-tuple loop.  The loop runs once
    untimed first, so that the caches it finds (cold after an op, warm after
    another probe) do not count, and the cyclic garbage collector is held
    off so that the size of cylkit's heap cannot reach it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _loop()
        start = perf_counter()
        _loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Scale:
    """Scale factors from probes ``(time taken, probe seconds)`` in order of
    time; times are ``perf_counter`` readings, which agree across the
    processes of one machine."""

    def __init__(self, probes: list[tuple[float, float]]):
        self.times = [t for t, _ in probes]
        self.values = [p for _, p in probes]

    def factor(self, start: float, end: float) -> float:
        """The scale of an op that ran from ``start`` to ``end``."""
        if not self.values:
            raise ValueError("no speed probes")
        lo = bisect.bisect_left(self.times, start - SPAN_S)
        hi = bisect.bisect_right(self.times, end + SPAN_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.values)):
            lo, hi = max(0, lo - 1), min(len(self.values), hi + 1)
        return REFERENCE_S / statistics.median(self.values[lo:hi])
