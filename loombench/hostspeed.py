"""Host-speed normalisation of timings.

On a shared 2-core cloud VM the same Python code runs at two paces that
alternate within a fraction of a second and mix in different shares from
one minute to the next: a fixed interpreter loop takes about 100 us in
the fast state and 175 us in the slow one, and Loom's queries and
ingest batches take 1.6 times longer in the slow state.  A raw timing's
median then moves with the share of slow time in the run, by more than
any regression bound worth having.

Every timing the benchmark reports is therefore scaled to a reference
pace.  Between operations (never inside a timed one) the workload
thread runs a fixed allocation-free probe loop at most every
``EVERY_S``.  Each timed sample is scaled by ``REF_PROBE_S`` over the
median probe time in a window around it.  The probe touches no Loom
code, so a change to Loom cannot move it -- except by running threads of
its own beside the probe.  Each run's record keeps the raw probe times.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import List, Optional, Tuple

perf = time.perf_counter
thread_time = time.thread_time

#: Probe loop length: 100-175 us on a 2-core cloud VM.
PROBE_ITERS = 3000
#: Timings are reported as if the probe took this long.
REF_PROBE_S = 150e-6
#: Least time between probes (the probe costs about 1.5% of the run).
EVERY_S = 0.01
#: A sample is scaled by the median of the probes taken from this long
#: before it starts until this long after it ends (and at least the
#: nearest probe on each side).
WINDOW_S = 0.03


def probe_s() -> Optional[float]:
    """One run of a loop that allocates nothing (small ints are cached),
    so its time is the interpreter's pace alone; ``None`` when the thread
    lost the CPU or the interpreter lock during it (its CPU time falls
    short of its wall time)."""
    x = 0
    cpu = thread_time()
    t = perf()
    for _ in repeat(None, PROBE_ITERS):
        x = ((x + 7) ^ 21) & 127
    wall = perf() - t
    return wall if thread_time() - cpu >= 0.9 * wall else None


class Samples:
    """Raw timings of one series: when each sample started and how long
    it took, in ``perf_counter`` seconds."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []

    def add(self, start: float, end: float) -> None:
        self.starts.append(start)
        self.durations.append(end - start)

    def __len__(self) -> int:
        return len(self.durations)


class HostSpeed:
    """Probe times of one run, and the samples scaled by them."""

    def __init__(self) -> None:
        #: (time, probe seconds) of every kept probe, in the order taken.
        self.taken: List[Tuple[float, float]] = []
        self._next = 0.0

    def tick(self) -> None:
        """Probe if the last probe is older than ``EVERY_S``."""
        now = perf()
        if now >= self._next:
            p = probe_s()
            if p is not None:
                self.taken.append((now, p))
            self._next = now + EVERY_S

    def now(self) -> None:
        """Probe, due or not, until one probe is kept (at most 50 tries:
        a thread that never holds the CPU for 150 us gets no probe)."""
        kept = len(self.taken)
        for _ in range(50):
            self._next = 0.0
            self.tick()
            if len(self.taken) > kept:
                return

    @property
    def probes(self) -> List[float]:
        return [p for _, p in self.taken]

    def scale(self, samples: Samples) -> List[float]:
        """Each sample's duration at the reference pace."""
        taken = sorted(self.taken)
        at = [t for t, _ in taken]
        probes = [p for _, p in taken]
        out = []
        for start, dt in zip(samples.starts, samples.durations):
            lo = min(bisect_left(at, start - WINDOW_S), max(0, bisect_left(at, start) - 1))
            hi = max(bisect_right(at, start + dt + WINDOW_S), bisect_right(at, start + dt) + 1)
            near = probes[lo:hi]
            out.append(dt * REF_PROBE_S / statistics.median(near))
        return out
