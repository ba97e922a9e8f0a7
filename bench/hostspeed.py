"""Phase timing that factors out the speed of a shared host.

On a shared 2-vCPU machine the same pure-Python work runs up to 1.7x slower
for minutes at a time, depending on what else the host runs.  A timed phase
therefore also samples the host's speed: every 50 ms of wall time a SIGALRM
handler runs a fixed probe, a few hundred microseconds of interpreter work
that involves no spectree code.  The phase's reference time is its wall
time, less the probes' own time, scaled by the mean of
PROBE_REF_S / probe duration, the host's speed relative to the reference
speed at which the probe takes PROBE_REF_S.  This is exact when the phase
and the probe slow down by the same factor at each instant; a change that
speeds up spectree shows in full, because the probe does not run its code.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
PROBE_REF_S = 100e-6
clock = time.perf_counter


def _depth(x, d):
    return d if d == 0 or x & 1 else _depth(x >> 1, d - 1)


def _probe():
    """Fixed mix of calls, recursion, bit operations, set and list work."""
    acc = 0
    seen = set()
    j = 1
    for i in range(200):
        j = (j * 40503 + i) & 0xFFFF
        acc ^= j << (i & 7)
        acc += _depth(j, 4)
        seen.add(j & 255)
    return acc + sorted(seen)[-1]


class Timed:
    """Context manager: `wall_s` and, when sampling, the host-speed-adjusted
    `ref_s` of the enclosed phase (equal to `wall_s` without sampling)."""

    def __init__(self, sample=True):
        self.sample = sample
        self.probes = []  # timed probe durations
        self.probe_s = 0.0  # all time spent in the handler
        self.wall_s = self.ref_s = None

    def _take_probe(self, *_signal_args):
        # The first call brings the probe into the caches, so that the timed
        # call measures the core's speed, not what the phase left cached.
        t0 = clock()
        _probe()
        t1 = clock()
        _probe()
        t2 = clock()
        self.probes.append(t2 - t1)
        self.probe_s += t2 - t0

    def __enter__(self):
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._take_probe)
            signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted syscalls
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._start = clock()
        return self

    def __exit__(self, *exc_info):
        self.wall_s = clock() - self._start
        if not self.sample:
            self.ref_s = self.wall_s
            return False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        in_phase_s = self.probe_s
        self._take_probe()  # guarantees a sample for phases under 50 ms
        speed = statistics.fmean(PROBE_REF_S / p for p in self.probes)
        self.ref_s = (self.wall_s - in_phase_s) * speed
        return False
