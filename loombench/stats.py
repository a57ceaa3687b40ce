"""Latency arithmetic shared by the workloads.

Kept free of Loom imports so the unit tests in ``test_loombench.py``
exercise it without building anything.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles the tail report may choose from, highest last.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A percentile is only reported when at least this many samples lie
#: beyond it; with fewer, the "tail" is a handful of outliers.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples (the
    rounding keeps e.g. 99.9% of 10,000 at rank 9,990)."""
    return max(1, math.ceil(round(p / 100.0 * n, 6)))


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    return sorted_values[_rank(len(sorted_values), p) - 1]


def supported(n: int, p: float) -> bool:
    """Whether ``n`` samples leave at least ``MIN_BEYOND`` beyond ``p``."""
    return n > 0 and n - _rank(n, p) >= MIN_BEYOND


def highest_supported(n: int) -> Optional[float]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond
    it, or ``None`` when even the median is not supported."""
    best = None
    for p in TAIL_LADDER:
        if supported(n, p):
            best = p
    return best


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, highest supported tail and sample count of one metric."""
    ordered = sorted(values)
    n = len(ordered)
    out: Dict[str, object] = {"samples": n}
    if n == 0:
        return out
    out["p50"] = percentile(ordered, 50.0)
    tail = highest_supported(n)
    if tail is not None:
        out["tail_pct"] = tail
        out["tail"] = percentile(ordered, tail)
    return out


def required_percentile(values: Sequence[float], p: float) -> float:
    """``percentile(values, p)``, refusing a sample too small for it.

    The benchmark names fixed percentiles (p90, p99); a run that did not
    collect enough samples for one must fail loudly, not report noise.
    """
    ordered = sorted(values)
    if not supported(len(ordered), p):
        raise ValueError(
            f"p{p:g} needs {math.ceil(round(MIN_BEYOND * 100 / (100 - p), 6))} samples, "
            f"got {len(ordered)}"
        )
    return percentile(ordered, p)


def open_loop_latencies(
    due: Sequence[float], done: Sequence[float]
) -> List[float]:
    """Per-request latency of an open-loop generator.

    Each request is timed from when it was *due*, not from when it was
    sent: when one request stalls, every later request that had to wait
    for it is charged the wait (no coordinated omission).
    """
    if len(due) != len(done):
        raise ValueError("due and done must pair up")
    return [d1 - d0 for d0, d1 in zip(due, done)]


class IntervalUnion:
    """The union of many intervals, for fast "how much of [a, b] does it
    cover" queries over numpy arrays of a and b."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        keep = hi > lo
        lo, hi = lo[keep], hi[keep]
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order].astype(np.float64), hi[order].astype(np.float64)
        if len(lo):
            reach = np.maximum.accumulate(hi)
            starts = np.concatenate(([0], np.flatnonzero(lo[1:] > reach[:-1]) + 1))
            lo, hi = lo[starts], np.maximum.reduceat(hi, starts)
        self.lo, self.hi = lo, hi
        self._cum = np.concatenate(([0.0], np.cumsum(hi - lo)))

    def _before(self, x: np.ndarray) -> np.ndarray:
        """Length of the union below each ``x``."""
        i = np.searchsorted(self.lo, x, "right") - 1
        j = np.maximum(i, 0)
        inside = np.clip(x - self.lo[j], 0.0, self.hi[j] - self.lo[j]) if len(self.lo) else 0.0
        return np.where(i >= 0, self._cum[j] + inside, 0.0)

    def covered(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Length of each ``[a, b]`` that the union covers."""
        a = np.asarray(a, np.float64)
        b = np.asarray(b, np.float64)
        if not len(self.lo):
            return np.zeros(np.broadcast(a, b).shape)
        return self._before(b) - self._before(a)


def self_time(
    span: Tuple[float, float], children: Sequence[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover.

    Children may nest inside each other or overlap (spans on other
    threads of the same request); each instant is subtracted once, and
    only the part of a child inside the span counts.
    """
    lo, hi = span
    if not children:
        return hi - lo
    c0, c1 = (np.array(c, np.float64) for c in zip(*children))
    return (hi - lo) - float(IntervalUnion(c0, c1).covered(np.array([lo]), np.array([hi]))[0])
