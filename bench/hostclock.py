"""Pass times in reference seconds: wall time with the host's slowdown taken out.

On a shared host the same pass runs at speeds up to 2x apart, in spells of
seconds to minutes, and CPU time slows down exactly as wall time does, so a
run of half a minute can fall entirely in a slow spell.  While a timed window
is open, ``SIGALRM`` fires every ``PROBE_EVERY_S`` and its handler times a
fixed pure-Python loop of the benchmark's own (``PROBE_LOOPS`` additions),
which shares no code with the program.  The window's program time is its
wall time minus the time spent in the handler; scaled by
``PROBE_REF_S`` over the window's median probe time, it is the time the
program would have taken while the probe ran at its reference speed.  A
window of a fraction of a second holds too few probes for a steady median,
so it takes the pooled median of the adjacent windows it is given (the
passes of one round).

The probe runs between the program's bytecodes in the same thread, so it
meets the same contention as the program.  How much a given contention
slows the probe and the program can differ, so the correction narrows the
spread without removing it; raw wall times are reported beside it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PROBE_LOOPS = 3000
PROBE_EVERY_S = 0.01
# The probe's time when the host is quiet: the 5th percentile of its samples
# on a shared 2-core x86-64 machine under Python 3.11 (109.6 and 110.7 us in
# two one-minute runs).
PROBE_REF_S = 110e-6
# A window with fewer samples (under about a second) takes the pooled median.
OWN_MEDIAN_SAMPLES = 100


def _spin(loops: int) -> int:
    total = 0
    for i in range(loops):
        total += i
    return total


@dataclass
class Window:
    """One timed interval: wall time, time spent probing, probe samples."""

    wall_s: float = 0.0
    probe_s: float = 0.0
    samples: list[float] = field(default_factory=list)

    @property
    def program_s(self) -> float:
        return self.wall_s - self.probe_s


class HostClock:
    """Opens probed windows and converts them to reference seconds."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # every probe sample of every window
        self._open: Window | None = None

    def _probe(self, signum, frame) -> None:
        window = self._open
        if window is None:
            return
        start = time.perf_counter()
        _spin(PROBE_LOOPS)
        sample = time.perf_counter() - start
        window.samples.append(sample)
        window.probe_s += time.perf_counter() - start

    @contextmanager
    def window(self):
        """``with clock.window() as w:`` times the block into ``w``."""
        window = Window()
        previous = signal.signal(signal.SIGALRM, self._probe)
        self._open = window
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        start = time.perf_counter()
        try:
            yield window
        finally:
            window.wall_s = time.perf_counter() - start
            self._open = None
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.samples.extend(window.samples)

    def slowdown(self, windows: list[Window]) -> float:
        """The median probe time of the windows, pooled, over the reference;
        windows too short to hold a probe take the median of every sample so
        far."""
        samples = [s for w in windows for s in w.samples] or self.samples
        return statistics.median(samples) / PROBE_REF_S if samples else 1.0

    def reference_s(self, windows: list[Window]) -> list[float]:
        """The program times of adjacent windows, in reference seconds."""
        pooled = self.slowdown(windows)
        return [
            w.program_s / (self.slowdown([w]) if len(w.samples) >= OWN_MEDIAN_SAMPLES else pooled)
            for w in windows
        ]

