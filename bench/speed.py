"""Samples of the host's speed, taken while the timed jobs run.

The benchmark host is a small virtual machine on shared physical cores.  For
stretches of seconds to minutes every kind of job runs up to twice as slow,
and nothing inside the machine shows it: no steal time, no run queue, the
process's CPU time grows with its wall time.  Wall time alone then moves
more from run to run than any bound a regression check can use.

`SpeedProbe` measures that slowdown where it happens.  While a job is timed,
SIGALRM fires every INTERVAL_S of wall time and runs `probe_work`, a fixed
piece of pure-Python arithmetic, and records how long it took.  The job's
time excludes the probes'.  `at_reference_speed` turns a stretch of job time
into the time it takes on a reference host, one on which a probe takes
REFERENCE_PROBE_S.  Uncontended, a probe takes 0.86 to 0.99 ms on the 2-vCPU
machine the bounds were set on, and 1.3 to 1.8 ms is common under contention.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter
from typing import List, Sequence

INTERVAL_S = 0.05       # one probe per 50 ms of job time
PROBE_STEPS = 400       # about 1 ms of work: 2% of the job time
REFERENCE_PROBE_S = 1e-3


def probe_work() -> int:
    """Fixed work of the kind the program does: rational arithmetic and
    dictionary stores.  The same every call; it reads no program state.  The
    caller holds off the cyclic collector, so that no collection of the
    program's objects is counted as probe time."""
    acc, seen = Fraction(0), {}
    for i in range(1, PROBE_STEPS):
        acc += Fraction(i % 97 + 1, i % 89 + 2)
        seen[i & 255] = acc.numerator & 0xFFFF
    return len(seen)


class SpeedProbe:
    """Probes the host while started.  `samples` holds every probe's
    duration in order; `spent` the probes' total since the last start."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def _fire(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        probe_work()
        dt = perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_reference_speed(seconds: float, samples: Sequence[float]) -> float:
    """`seconds` of job time during which the probes took `samples`, scaled
    to the reference host.  The probes fire evenly in wall time, so each
    stands for an equal share of the stretch, and a share during which a
    probe took k times REFERENCE_PROBE_S counts 1/k of its time."""
    if not samples:
        return seconds
    return seconds * sum(REFERENCE_PROBE_S / p for p in samples) / len(samples)
