"""Inputs and reference answers, all derived from the workload seed.

Every workload replays the Redis case study (``repro.workloads.
RedisCaseStudy``): app request latencies, syscall latencies and captured
packets, with six planted slow requests whose cause is a mangled packet.
Loom receives only these generated records.  The reference answers are
computed here with numpy from the same records, using the timestamps Loom
will assign them (a burst shares one arrival timestamp).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.histogram import exponential_edges
from repro.workloads import RedisCaseStudy, events

#: Records per ``push_many`` / wire ingest batch: a collector draining
#: one source's ring buffer.
BURST = 256
#: Fraction of the paper's record rates generated (timestamps stay at
#: true virtual time): 1.15M records over the three 10 s phases.
SCALE = 1e-2
PHASE_S = 10.0
NS = 1_000_000_000
MS = 1_000_000

SOURCES = {"app": events.SRC_APP, "syscall": events.SRC_SYSCALL, "packet": events.SRC_PACKET}
#: The latency threshold of the needle hunt (healthy requests are
#: ~100 us; the planted slow ones take 50 ms and more).
SLOW_US = 1000.0

_LATENCY = np.dtype([("op", "<u8"), ("lat", "<f8"), ("kind", "<u4"), ("flags", "<u4")])


def sendto_latency(payload: bytes) -> float:
    """Index UDF: sendto latency, -1 for every other syscall."""
    if events.latency_kind(payload) == events.SYS_SENDTO:
        return events.latency_value(payload)
    return -1.0


#: The case study's histogram indexes (``benchmarks/harness.load_redis``):
#: (source, index name, UDF, bin edges).
INDEXES = (
    ("app", "latency", events.latency_value, exponential_edges(10.0, 10_000.0, 16)),
    ("syscall", "latency", events.latency_value, exponential_edges(1.0, 10_000.0, 16)),
    ("syscall", "sendto-latency", sendto_latency, exponential_edges(1.0, 10_000.0, 16)),
)


@dataclass
class Reference:
    """One source's records as Loom will store them, as columns."""

    ts: np.ndarray
    #: Indexed latency in microseconds (``None`` for packets).
    value: Optional[np.ndarray]

    def window(self, t0: int, t1: int) -> slice:
        """Records with ``t0 <= ts <= t1`` (timestamps are sorted)."""
        return slice(
            int(np.searchsorted(self.ts, t0, "left")),
            int(np.searchsorted(self.ts, t1, "right")),
        )


@dataclass
class Dataset:
    phases: Tuple[int, ...]
    #: (arrival timestamp, source name, payloads) in arrival order.
    bursts: List[Tuple[int, str, List[bytes]]]
    refs: Dict[str, Reference]
    payload_bytes: int
    records: int
    t_last: int
    phase_bounds: Dict[int, Tuple[int, int]]
    #: Planted ground truth: (request op id, packet sequence number).
    needles: List[Tuple[int, int]] = field(default_factory=list)


def make_dataset(seed: int, phases: Tuple[int, ...] = (1, 2, 3)) -> Dataset:
    """Generate the case study and cut it into per-source bursts."""
    study = RedisCaseStudy(scale=SCALE, phase_duration_s=PHASE_S, seed=seed)
    generated = [study.generate_phase(p) for p in phases]
    names = {sid: name for name, sid in SOURCES.items()}
    bursts: List[Tuple[int, str, List[bytes]]] = []
    pending: Dict[str, List[bytes]] = {name: [] for name in SOURCES}
    per_source: Dict[str, Tuple[List[bytes], List[int]]] = {
        name: ([], []) for name in SOURCES
    }
    last = 0
    for phase in generated:
        for ts, sid, payload in phase.records:
            name = names[sid]
            buf = pending[name]
            buf.append(payload)
            last = ts
            if len(buf) == BURST:
                bursts.append((ts, name, buf))
                pending[name] = []
    for name, buf in pending.items():
        if buf:
            bursts.append((last, name, buf))
    for ts, name, payloads in bursts:
        recs, stamps = per_source[name]
        recs.extend(payloads)
        stamps.extend([ts] * len(payloads))
    refs = {}
    for name, (recs, stamps) in per_source.items():
        ts = np.array(stamps, np.int64)
        value = None
        if name != "packet":
            value = np.frombuffer(b"".join(recs), _LATENCY)["lat"].astype(np.float64)
        refs[name] = Reference(ts=ts, value=value)
    needles = [
        (n.request_op_id, n.packet_seq) for phase in generated for n in phase.needles
    ]
    return Dataset(
        phases=tuple(phases),
        bursts=bursts,
        refs=refs,
        payload_bytes=sum(len(p) for _, _, ps in bursts for p in ps),
        records=sum(len(ps) for _, _, ps in bursts),
        t_last=last,
        phase_bounds={p: study.phase_bounds(p) for p in phases},
        needles=needles,
    )


# ----------------------------------------------------------------------
# Query mix
# ----------------------------------------------------------------------
VERBS = ("scan", "scan_indexed", "percentile")
#: Window length per verb: a packet dump, a needle hunt over the sparse
#: app source, and a p99 of syscall latency.  All windows fall in the
#: last phase, where every source is active: a window's cost grows with
#: the records it spans, and mixing phases would split each verb's cost
#: into modes a median can jump between.
WINDOW_NS = {"scan": 50 * MS, "scan_indexed": int(PHASE_S * NS), "percentile": 100 * MS}
#: Which source each verb reads.
VERB_SOURCE = {"scan": "packet", "scan_indexed": "app", "percentile": "syscall"}
#: Every ``HOT_EVERY``-th window of a verb ends at the newest record (the
#: hot tail); the others spread over the range.
HOT_EVERY = 5
#: Golden-ratio step of the window sequence.  All verbs share one
#: sequence, so consecutive windows lie far apart (no query finds the
#: previous one's chunks in the 4-chunk decompression cache by chance),
#: and a run's windows fill the range evenly however many it issues.
_STEP = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class Query:
    verb: str
    t0: int
    t1: int


def query_mix(ds: Dataset, seed: int, count: int) -> List[Query]:
    """``count`` queries cycling through the verbs in seeded order.

    Window starts follow a seeded low-discrepancy sequence over the last
    phase; one window in ``HOT_EVERY`` of a verb instead ends at the
    newest record.  (The needle hunt spans the whole phase either way.)
    """
    rng = random.Random(seed * 7919 + 17)
    u = rng.random()
    issued = {verb: 0 for verb in VERBS}
    first = ds.phase_bounds[max(ds.phase_bounds)][0]
    out: List[Query] = []
    while len(out) < count:
        cycle = list(VERBS)
        rng.shuffle(cycle)
        for verb in cycle:
            width = WINDOW_NS[verb]
            last = ds.t_last - width
            issued[verb] += 1
            if issued[verb] % HOT_EVERY == 0:
                t0 = last
            else:
                u = (u + _STEP) % 1.0
                t0 = first + int(u * max(0, last - first))
            out.append(Query(verb, t0, t0 + width))
    return out[:count]


def expected(ds: Dataset, q: Query) -> Tuple[int, float]:
    """Reference (record count, value) of one query: the value is the
    exact nearest-rank p99 for ``percentile`` and 0 otherwise."""
    ref = ds.refs[VERB_SOURCE[q.verb]]
    window = ref.window(q.t0, q.t1)
    if q.verb == "scan":
        return window.stop - window.start, 0.0
    assert ref.value is not None
    values = ref.value[window]
    if q.verb == "scan_indexed":
        return int(np.count_nonzero(values >= SLOW_US)), 0.0
    return len(values), nearest_rank(values, 99.0)


def nearest_rank(values: np.ndarray, p: float) -> float:
    if len(values) == 0:
        return float("nan")
    ordered = np.sort(values)
    rank = max(1, int(np.ceil(p / 100.0 * len(ordered))))
    return float(ordered[rank - 1])
