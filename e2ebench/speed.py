"""Host-speed sampling, to normalize times measured on a shared machine.

On a shared VM each vCPU slows down independently, by tens of percent,
in spells of a few seconds; a calibration loop run before or after a
pass, or on the other vCPU, does not see the spells the pass sees.  So
every process doing measured work samples its own speed while it works:
a timer signal interrupts it every :data:`INTERVAL_S` and times a fixed
tiny loop (the probe) that does not depend on the code under test.  A
phase's speed is ``REFERENCE_PROBE_S`` over the mean probe time in it,
and a time scaled by it reads as host seconds at the reference speed.
The mean, because the spells make a pass's probe times bimodal (about
27 and 45 us on the machine below) and the pass pays the time-weighted
mean slowness; a median would pick one mode.

The probe is kept independent of the program it interrupts: it
allocates no object the cyclic garbage collector tracks and runs with
the collector off, so no collection of the program's heap lands in it;
it runs its loop once untimed before the timed run, so the cache and
branch state it is timed in is its own; and the mean leaves out the
fastest and the slowest :data:`TRIM` of the probes, so a rare outlier
probe moves nothing.

The probes take about 0.6% of the process's time.
"""

from __future__ import annotations

import array
import gc
import signal
import statistics
import time

INTERVAL_S = 0.01
#: Probe time at the reference speed (a 2-vCPU x86-64 VM, Python 3.11).
REFERENCE_PROBE_S = 44e-6
#: Share of the fastest, and of the slowest, probes a speed leaves out.
TRIM = 0.05


def _loop(table: list[int]) -> None:
    for i in range(400):
        table[i % 37] += i


class SpeedSampler:
    """Records every probe's time; ``len(times)`` marks delimit phases."""

    def __init__(self) -> None:
        self.times = array.array("d")
        self._table = [0] * 37

    def _probe(self, signum: int, frame: object) -> None:
        collecting = gc.isenabled()
        gc.disable()
        _loop(self._table)
        start = time.thread_time()
        _loop(self._table)
        elapsed = time.thread_time() - start
        if collecting:
            gc.enable()
        self.times.append(elapsed)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reset(self) -> None:
        del self.times[:]

    def mark(self) -> int:
        return len(self.times)


def speed(times) -> float | None:
    """Speed over some probe times (``None`` if there are none)."""
    if not len(times):
        return None
    ordered = sorted(times)
    cut = int(len(ordered) * TRIM)
    return REFERENCE_PROBE_S / statistics.fmean(ordered[cut : len(ordered) - cut])
