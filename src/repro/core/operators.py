"""Loom's query operators (paper section 4.3).

Three composable operators cover the paper's target query classes:

* :func:`raw_scan` — all records of a source in a time range, newest
  first, via the timestamp index and the source's back-pointer chain.
* :func:`indexed_scan` — records of a source in a time range *and* a value
  range of a histogram index.  The timestamp index narrows the chunk-index
  window; chunk summaries whose relevant bins are empty are skipped
  entirely; only the surviving chunks are scanned.
* :func:`indexed_aggregate` — distributive aggregates (count/sum/min/max/
  mean) computed from bin statistics, scanning only chunks that partially
  overlap the time range, and holistic aggregates (percentiles) computed by
  treating bin counts as a CDF and scanning only the chunks that contain
  records in the single bin where the target rank falls.

Every operator runs in the calling thread, touches a bounded amount of
memory, and reads through a :class:`~repro.core.snapshot.Snapshot`, so
queries impose no coordination on ingest (sections 3 and 4.4).

For the index-ablation experiment (paper Figure 16) the scan operators
accept ``use_time_index`` / ``use_chunk_index`` flags; disabling an index
layer falls back to exactly the extra scanning the paper describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import viewguard
from .chunk_index import STATE_RETIRED
from .errors import LoomError
from .histogram import IndexDefinition
from .record import Record
from .snapshot import Snapshot
from .summary import BinStats, ChunkSummary

_U64_MAX = 2**64 - 1

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Aggregation methods accepted by :func:`indexed_aggregate`.
DISTRIBUTIVE_METHODS = ("count", "sum", "min", "max", "mean")


@dataclass
class QueryStats:
    """Work counters filled in by the operators (used by tests & benches)."""

    records_scanned: int = 0
    records_matched: int = 0
    #: Records decoded from the log on behalf of this query (chain walks
    #: plus region scans).  Kept here — not on the record log — because
    #: queries run on arbitrary threads and a shared counter would race.
    records_decoded: int = 0
    chunks_scanned: int = 0
    chunks_skipped: int = 0
    #: Archive chunks decompressed on behalf of this query (cold-tier
    #: cache misses).  Zero for queries answered from resident summaries
    #: or the hot log — the cold tier's "summaries first" guarantee.
    cold_chunks_decompressed: int = 0
    summaries_examined: int = 0
    summaries_aggregated: int = 0
    used_time_index: bool = False
    used_chunk_index: bool = False
    #: True when a fan-out query is missing at least one shard/node: the
    #: result covers only the shards that answered (graceful degradation;
    #: see :class:`repro.daemon.distributed.LoomCoordinator`).
    degraded: bool = False
    #: Names of the shards/nodes that did not contribute (down, timed
    #: out, or quarantined).  Empty for single-instance queries.
    missing_shards: List[str] = field(default_factory=list)

    def merge(self, other: "QueryStats") -> None:
        """Fold another query's counters into this one.

        Used by callers that accumulate work across several query calls
        (one logical query, many aggregates) and by the distributed
        coordinator, which folds every shard's counters into one.
        """
        self.records_scanned += other.records_scanned
        self.records_matched += other.records_matched
        self.records_decoded += other.records_decoded
        self.chunks_scanned += other.chunks_scanned
        self.chunks_skipped += other.chunks_skipped
        self.cold_chunks_decompressed += other.cold_chunks_decompressed
        self.summaries_examined += other.summaries_examined
        self.summaries_aggregated += other.summaries_aggregated
        self.used_time_index = self.used_time_index or other.used_time_index
        self.used_chunk_index = self.used_chunk_index or other.used_chunk_index
        self.degraded = self.degraded or other.degraded
        for name in other.missing_shards:
            if name not in self.missing_shards:
                self.missing_shards.append(name)


@dataclass(frozen=True)
class TraceEvent:
    """One stage of a query's execution plan, in execution order."""

    stage: str
    detail: str = ""
    count: int = 0


@dataclass
class QueryTrace:
    """Ordered per-stage trace of one query.

    Requested via ``trace=True`` on the :class:`~repro.core.loom.Loom`
    query methods; carried on the returned
    :class:`QueryResult`.  Stages mirror the section 4.3 access pattern:
    ``seek`` (timestamp-index lookup), ``chain-walk`` (back-pointer
    traversal), ``summary-prune`` (candidate summaries examined vs.
    skipped by bin occupancy), ``chunk-scan`` / ``active-scan`` (regions
    actually read), ``cdf`` (percentile rank-to-bin resolution) and
    ``bin-scan`` (target-bin collection).
    """

    events: List[TraceEvent] = field(default_factory=list)

    def add(self, stage: str, detail: str = "", count: int = 0) -> None:
        self.events.append(TraceEvent(stage=stage, detail=detail, count=count))

    def stages(self) -> List[str]:
        return [event.stage for event in self.events]

    def format(self) -> str:
        """Human-readable rendering (one line per stage; CLI ``trace``)."""
        lines = []
        for event in self.events:
            line = f"{event.stage:>14}  count={event.count}"
            if event.detail:
                line += f"  {event.detail}"
            lines.append(line)
        return "\n".join(lines)


@dataclass
class QueryResult:
    """Unified result of every Loom query verb.

    Scans fill :attr:`records` (``None`` when driven by a streaming
    ``func``); aggregates fill :attr:`value`.  :attr:`count` is the
    number of matched records either way.  :attr:`stats` always carries
    the query's work counters, and :attr:`trace` the optional stage
    trace.
    :attr:`source` is a display label for the queried source — the
    daemon resolves it to the source *name*; the core falls back to the
    numeric id.

    Two verb-specific payloads ride along for the distributed protocol
    (both ``None`` for ordinary scans/aggregates): :attr:`bins` carries a
    per-bin count histogram (the ``histogram`` verb — phase 1 of the
    coordinator's global-percentile merge), and :attr:`values` carries
    extracted index values (the ``bin_values`` verb — phase 2, fetching
    only the target bin's raw values).
    """

    stats: QueryStats
    records: Optional[List[Record]] = None
    value: Optional[float] = None
    count: int = 0
    trace: Optional[QueryTrace] = None
    source: Optional[str] = None
    bins: Optional[Dict[int, int]] = None
    values: Optional[List[float]] = None


# ----------------------------------------------------------------------
# raw scan
# ----------------------------------------------------------------------
def raw_scan(
    snapshot: Snapshot,
    source_id: int,
    t_start: int,
    t_end: int,
    stats: Optional[QueryStats] = None,
    use_time_index: bool = True,
    trace: Optional[QueryTrace] = None,
) -> Iterator[Record]:
    """Yield a source's records with ``t_start <= timestamp <= t_end``,
    newest to oldest.

    Uses the timestamp index to find the most recent record at or after the
    end of the range, then walks the back-pointer chain until it passes the
    start of the range.  With ``use_time_index=False`` the walk starts from
    the source's live chain head, so cost grows with lookback distance —
    the paper's "no index" ablation behaviour.

    ``trace``, when given, receives stage events once the scan is driven
    to completion (an abandoned iterator leaves a partial trace).
    """
    if t_end < t_start:
        return
    start_hint: Optional[int] = None
    if use_time_index:
        hit = snapshot.first_record_after(source_id, t_end)
        if hit is not None:
            start_hint = hit[1]
        if stats is not None:
            stats.used_time_index = True
        if trace is not None:
            trace.add(
                "seek",
                "timestamp index hit" if hit is not None else
                "timestamp index miss (walk from chain head)",
                count=1,
            )
    walked = 0
    matched = 0
    for record in snapshot.iter_chain(source_id, start=start_hint, stats=stats):
        walked += 1
        if stats is not None:
            stats.records_scanned += 1
        if record.timestamp > t_end:
            continue
        if record.timestamp < t_start:
            break
        matched += 1
        if stats is not None:
            stats.records_matched += 1
        yield record
    if trace is not None:
        trace.add("chain-walk", f"matched {matched}", count=walked)


# ----------------------------------------------------------------------
# indexed range scan
# ----------------------------------------------------------------------
def indexed_scan(  # loomflow: borrows=scan
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    v_min: float = NEG_INF,
    v_max: float = POS_INF,
    stats: Optional[QueryStats] = None,
    use_time_index: bool = True,
    use_chunk_index: bool = True,
    copy: bool = True,
    trace: Optional[QueryTrace] = None,
) -> Iterator[Record]:
    """Yield records of ``source_id`` in the time range whose indexed value
    lies in ``[v_min, v_max]``, in ascending address (= arrival) order.

    The three-step access pattern of section 4.3: the timestamp index
    narrows the summary window, summaries filter chunks by bin occupancy,
    and only surviving chunks (plus the unsummarized active region) are
    scanned.

    ``copy=False`` yields records with memoryview payloads aliasing each
    chunk's scan buffer — cheaper, but only valid while iterating; callers
    that collect records into a list must keep the copying default.

    ``trace``, when given, receives stage events once the scan is driven
    to completion.
    """
    if t_end < t_start:
        return
    spec = index.spec
    relevant_bins = set(spec.bins_overlapping(v_min, v_max))

    examined = 0
    skipped = 0
    scanned = 0
    for summary in _candidate_summaries(snapshot, t_start, t_end, use_time_index, stats):
        examined += 1
        if stats is not None:
            stats.summaries_examined += 1
        info = summary.source_info(source_id)
        if info is None or info.t_min > t_end or info.t_max < t_start:
            skipped += 1
            if stats is not None:
                stats.chunks_skipped += 1
            continue
        if use_chunk_index:
            if stats is not None:
                stats.used_chunk_index = True
            bins = summary.bins_for(source_id, index.index_id)
            if not any(b in relevant_bins and bins[b].count > 0 for b in bins):
                skipped += 1
                if stats is not None:
                    stats.chunks_skipped += 1
                continue
        if not snapshot.record_log.chunk_index.is_scannable(summary.chunk_id):
            # Summary-only chunk: its raw bytes were dropped by retention,
            # so matching records cannot be materialized.
            skipped += 1
            if stats is not None:
                stats.chunks_skipped += 1
                stats.degraded = True
            continue
        scanned += 1
        if stats is not None:
            stats.chunks_scanned += 1
        yield from _scan_region(
            snapshot, summary.start_addr, summary.end_addr,
            source_id, index, t_start, t_end, v_min, v_max, stats, copy=copy,
        )
    if trace is not None:
        trace.add("summary-prune", f"skipped {skipped}", count=examined)
        trace.add("chunk-scan", f"value bins considered: {len(relevant_bins)}", count=scanned)

    active_start, active_end = snapshot.active_region()
    yield from _scan_region(
        snapshot, active_start, active_end,
        source_id, index, t_start, t_end, v_min, v_max, stats, copy=copy,
    )
    if trace is not None:
        trace.add(
            "active-scan",
            f"bytes {active_end - active_start}",
            count=1 if active_end > active_start else 0,
        )


def _candidate_summaries(
    snapshot: Snapshot,
    t_start: int,
    t_end: int,
    use_time_index: bool,
    stats: Optional[QueryStats],
) -> Iterator[ChunkSummary]:
    """Summaries overlapping the time range, in chunk order.

    With the time index this is a bisected window.  Without it, the query
    must discover the window by scanning summaries backward from the tail
    until it passes the range — cost proportional to lookback distance,
    which is the growth Figure 16 shows for the chunk-index-only ablation.
    """
    if use_time_index:
        if stats is not None:
            stats.used_time_index = True
        yield from snapshot.summaries_in_time_range(t_start, t_end)
        return
    collected: List[ChunkSummary] = []
    chunk_index = snapshot.record_log.chunk_index
    for i in range(snapshot.n_chunks - 1, -1, -1):
        summary = chunk_index.get(i)
        if stats is not None:
            stats.summaries_examined += 1
        if chunk_index.state_at(i) == STATE_RETIRED:
            continue
        if summary.t_min > t_end:
            continue
        if summary.t_max < t_start:
            break
        collected.append(summary)
    yield from reversed(collected)


def _scan_region(
    snapshot: Snapshot,
    start: int,
    end: int,
    source_id: int,
    index: Optional[IndexDefinition],
    t_start: int,
    t_end: int,
    v_min: float,
    v_max: float,
    stats: Optional[QueryStats],
    copy: bool = True,
) -> Iterator[Record]:
    """Scan ``[start, end)`` filtering by source, time, and value.

    The source and time predicates are evaluated as one vectorized mask
    over the region's header columns; Python-level work (payload slicing,
    the index UDF, ``Record`` construction) happens only for the records
    that survive.  When the record log cannot serve columns (e.g.
    ``verify_on_read``) the scan falls back to the per-record loop.

    ``copy=False`` is the zero-copy mode for consumers that never retain
    payloads past the iteration step (the aggregate operators): records
    come out with memoryview payloads aliasing the scan buffer.
    """
    columns = snapshot.region_columns(start, end, stats=stats)
    if columns is None:
        yield from _scan_region_scalar(
            snapshot, start, end, source_id, index,
            t_start, t_end, v_min, v_max, stats, copy=copy,
        )
        return
    n = len(columns)
    if stats is not None:
        stats.records_scanned += n
    if t_end < t_start or t_end < 0 or t_start > _U64_MAX:
        return
    # Clamp the time bounds into u64 so the comparison stays exact (mixed
    # uint64/int comparisons would round-trip through float64).
    lo = t_start if t_start > 0 else 0
    hi = t_end if t_end < _U64_MAX else _U64_MAX
    mask = columns.source_ids == source_id
    timestamps = columns.timestamps
    if lo > 0:
        mask &= timestamps >= np.uint64(lo)
    mask &= timestamps <= np.uint64(hi)
    matches = np.flatnonzero(mask)
    if matches.size == 0:
        return
    view = viewguard.as_view(columns.buffer)
    offsets = columns.offsets
    payload_starts = columns.payload_starts
    lengths = columns.lengths
    prev_addrs = columns.prev_addrs
    func = index.index_func if index is not None else None
    for i in matches.tolist():
        payload_start = int(payload_starts[i])
        payload = view[payload_start : payload_start + int(lengths[i])]
        if func is not None:
            value = func(viewguard.unwrap(payload))
            if value < v_min or value > v_max:
                continue
        if stats is not None:
            stats.records_matched += 1
        yield Record(
            source_id=source_id,
            timestamp=int(timestamps[i]),
            prev_addr=int(prev_addrs[i]),
            payload=bytes(payload) if copy else payload,
            address=start + int(offsets[i]),
        )


def _scan_region_scalar(
    snapshot: Snapshot,
    start: int,
    end: int,
    source_id: int,
    index: Optional[IndexDefinition],
    t_start: int,
    t_end: int,
    v_min: float,
    v_max: float,
    stats: Optional[QueryStats],
    copy: bool = True,
) -> Iterator[Record]:
    """Per-record fallback for :func:`_scan_region` (same contract)."""
    for record in snapshot.iter_region(start, end, copy=copy, stats=stats):
        if stats is not None:
            stats.records_scanned += 1
        if record.source_id != source_id:
            continue
        if record.timestamp < t_start or record.timestamp > t_end:
            continue
        if index is not None:
            value = index.index_func(viewguard.unwrap(record.payload))
            if value < v_min or value > v_max:
                continue
        if stats is not None:
            stats.records_matched += 1
        yield record


# ----------------------------------------------------------------------
# indexed aggregate
# ----------------------------------------------------------------------
@dataclass
class AggregateResult:
    """Result of :func:`indexed_aggregate` plus its work counters."""

    value: Optional[float]
    count: int
    stats: QueryStats = field(default_factory=QueryStats)


def indexed_aggregate(
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    method: str,
    percentile: Optional[float] = None,
    use_time_index: bool = True,
    use_chunk_index: bool = True,
    stats: Optional[QueryStats] = None,
    trace: Optional[QueryTrace] = None,
) -> AggregateResult:
    """Aggregate a source's indexed values over a time range.

    ``method`` is one of ``count``, ``sum``, ``min``, ``max``, ``mean``, or
    ``percentile`` (with ``percentile`` in [0, 100]).  Distributive methods
    come from bin statistics wherever a chunk lies fully inside the time
    range; chunks straddling a range edge are scanned.  Percentiles use the
    bin-counts-as-CDF strategy of section 4.3 and are *exact*: the returned
    value is the same order statistic a full sort would produce.

    A caller-supplied ``stats`` accumulates across calls (useful when one
    logical query issues several aggregates); otherwise a fresh
    :class:`QueryStats` is created and returned on the result.  ``trace``
    receives stage events (summary pruning, CDF resolution, bin scans).
    """
    if stats is None:
        stats = QueryStats()
    if method == "percentile":
        if percentile is None or not 0 <= percentile <= 100:
            raise LoomError("percentile method needs percentile in [0, 100]")
        return _aggregate_percentile(
            snapshot, source_id, index, t_start, t_end, percentile,
            use_time_index, use_chunk_index, stats, trace,
        )
    if method not in DISTRIBUTIVE_METHODS:
        raise LoomError(f"unknown aggregation method: {method!r}")
    return _aggregate_distributive(
        snapshot, source_id, index, t_start, t_end, method,
        use_time_index, use_chunk_index, stats, trace,
    )


def _aggregate_distributive(
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    method: str,
    use_time_index: bool,
    use_chunk_index: bool,
    stats: QueryStats,
    trace: Optional[QueryTrace] = None,
) -> AggregateResult:
    total = BinStats()
    aggregated = 0
    scanned = 0
    for summary, full in _classified_summaries(
        snapshot, source_id, t_start, t_end, use_time_index, stats
    ):
        if full and use_chunk_index:
            aggregated += 1
            stats.used_chunk_index = True
            stats.summaries_aggregated += 1
            for bin_stats in summary.bins_for(source_id, index.index_id).values():
                total.merge(bin_stats)
        elif not snapshot.record_log.chunk_index.is_scannable(summary.chunk_id):
            # A summary-only chunk straddling the range edge cannot be
            # scanned for the exact in-range subset; its contribution is
            # omitted and the result flagged as degraded.
            stats.chunks_skipped += 1
            stats.degraded = True
        else:
            scanned += 1
            stats.chunks_scanned += 1
            for record in _scan_region(
                snapshot, summary.start_addr, summary.end_addr,
                source_id, index, t_start, t_end, NEG_INF, POS_INF, stats,
                copy=False,
            ):
                total.update(index.index_func(viewguard.unwrap(record.payload)), record.timestamp)
    if trace is not None:
        trace.add("summary-prune", f"aggregated from bins: {aggregated}", count=aggregated + scanned)
        trace.add("chunk-scan", "straddling chunks", count=scanned)
    active_start, active_end = snapshot.active_region()
    for record in _scan_region(
        snapshot, active_start, active_end,
        source_id, index, t_start, t_end, NEG_INF, POS_INF, stats,
        copy=False,
    ):
        total.update(index.index_func(viewguard.unwrap(record.payload)), record.timestamp)
    if trace is not None:
        trace.add(
            "active-scan",
            f"bytes {active_end - active_start}",
            count=1 if active_end > active_start else 0,
        )

    if total.count == 0:
        return AggregateResult(value=None, count=0, stats=stats)
    if method == "count":
        value: float = float(total.count)
    elif method == "sum":
        value = total.sum
    elif method == "min":
        value = total.min
    elif method == "max":
        value = total.max
    else:  # mean
        value = total.sum / total.count
    return AggregateResult(value=value, count=total.count, stats=stats)


def _aggregate_percentile(
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    percentile: float,
    use_time_index: bool,
    use_chunk_index: bool,
    stats: QueryStats,
    trace: Optional[QueryTrace] = None,
) -> AggregateResult:
    """Exact percentile via the CDF-over-bins strategy (section 4.3).

    Pass 1 establishes per-bin counts: bin statistics for chunks fully
    inside the time range, record scans for straddling chunks and the
    active region (scanned values are retained per bin so they need not be
    re-read).  Pass 2 locates the target bin from the cumulative counts and
    scans only the fully-covered chunks that have records in that bin.
    """
    spec = index.spec
    bin_counts: Dict[int, int] = {}
    scanned_bin_values: Dict[int, List[float]] = {}
    full_summaries: List[ChunkSummary] = []

    for summary, full in _classified_summaries(
        snapshot, source_id, t_start, t_end, use_time_index, stats
    ):
        if full and use_chunk_index:
            stats.used_chunk_index = True
            stats.summaries_aggregated += 1
            full_summaries.append(summary)
            for bin_idx, bin_stats in summary.bins_for(source_id, index.index_id).items():
                bin_counts[bin_idx] = bin_counts.get(bin_idx, 0) + bin_stats.count
        elif not snapshot.record_log.chunk_index.is_scannable(summary.chunk_id):
            stats.chunks_skipped += 1
            stats.degraded = True
        else:
            stats.chunks_scanned += 1
            for record in _scan_region(
                snapshot, summary.start_addr, summary.end_addr,
                source_id, index, t_start, t_end, NEG_INF, POS_INF, stats,
                copy=False,
            ):
                value = index.index_func(viewguard.unwrap(record.payload))
                b = spec.bin_of(value)
                bin_counts[b] = bin_counts.get(b, 0) + 1
                scanned_bin_values.setdefault(b, []).append(value)
    active_start, active_end = snapshot.active_region()
    for record in _scan_region(
        snapshot, active_start, active_end,
        source_id, index, t_start, t_end, NEG_INF, POS_INF, stats,
        copy=False,
    ):
        value = index.index_func(viewguard.unwrap(record.payload))
        b = spec.bin_of(value)
        bin_counts[b] = bin_counts.get(b, 0) + 1
        scanned_bin_values.setdefault(b, []).append(value)
    if trace is not None:
        trace.add(
            "summary-prune",
            f"aggregated from bins: {len(full_summaries)}",
            count=len(full_summaries),
        )

    total_count = sum(bin_counts.values())
    if total_count == 0:
        if trace is not None:
            trace.add("cdf", "empty range", count=0)
        return AggregateResult(value=None, count=0, stats=stats)

    # Rank of the percentile using the nearest-rank (inverted CDF)
    # definition: the smallest value with CDF >= p. numpy's
    # method="inverted_cdf" matches this, which the tests rely on.
    rank = max(1, math.ceil(percentile / 100.0 * total_count))

    cumulative = 0
    target_bin = None
    for bin_idx in sorted(bin_counts):
        if bin_counts[bin_idx] == 0:
            continue
        if cumulative + bin_counts[bin_idx] >= rank:
            target_bin = bin_idx
            break
        cumulative += bin_counts[bin_idx]
    assert target_bin is not None
    if trace is not None:
        trace.add(
            "cdf",
            f"rank {rank}/{total_count} falls in bin {target_bin}",
            count=len(bin_counts),
        )

    # Collect the exact values in the target bin: retained scan values plus
    # a scan of each fully-covered chunk with records in that bin.
    values = list(scanned_bin_values.get(target_bin, ()))
    bin_scans = 0
    for summary in full_summaries:
        bins = summary.bins_for(source_id, index.index_id)
        bin_stats = bins.get(target_bin)
        if bin_stats is None or bin_stats.count == 0:
            if stats is not None:
                stats.chunks_skipped += 1
            continue
        if not snapshot.record_log.chunk_index.is_scannable(summary.chunk_id):
            # Summary-only chunk: its target-bin values cannot be
            # materialized.  Stand in the bin's recorded mean for each of
            # them — count stays exact, the value stays inside the bin,
            # and the result is flagged approximate (degraded).
            stats.degraded = True
            stats.chunks_skipped += 1
            values.extend([bin_stats.sum / bin_stats.count] * bin_stats.count)
            continue
        bin_scans += 1
        stats.chunks_scanned += 1
        for record in _scan_region(
            snapshot, summary.start_addr, summary.end_addr,
            source_id, index, t_start, t_end, NEG_INF, POS_INF, stats,
            copy=False,
        ):
            value = index.index_func(viewguard.unwrap(record.payload))
            if spec.bin_of(value) == target_bin:
                values.append(value)
    if trace is not None:
        trace.add(
            "bin-scan",
            f"{len(values)} values collected in target bin",
            count=bin_scans,
        )

    values.sort()
    k = rank - cumulative  # 1-based order statistic within the target bin
    assert 1 <= k <= len(values), (k, len(values), rank, cumulative)
    return AggregateResult(value=values[k - 1], count=total_count, stats=stats)


def bin_histogram(
    snapshot: Snapshot,
    source_id: int,
    index: IndexDefinition,
    t_start: int,
    t_end: int,
    use_time_index: bool = True,
    use_chunk_index: bool = True,
    stats: Optional[QueryStats] = None,
) -> Dict[int, int]:
    """Per-bin record counts for a source/index over a time range.

    This is pass 1 of the percentile algorithm exposed on its own: chunks
    fully inside the range contribute their bin statistics, straddling
    chunks and the active region are scanned.  The distributed coordinator
    (paper section 8) merges these histograms across nodes to locate a
    global percentile's bin without moving raw data.
    """
    if stats is None:
        stats = QueryStats()
    spec = index.spec
    counts: Dict[int, int] = {}

    def scan_into(start: int, end: int) -> None:
        for record in _scan_region(
            snapshot, start, end, source_id, index,
            t_start, t_end, NEG_INF, POS_INF, stats, copy=False,
        ):
            b = spec.bin_of(index.index_func(viewguard.unwrap(record.payload)))
            counts[b] = counts.get(b, 0) + 1

    for summary, full in _classified_summaries(
        snapshot, source_id, t_start, t_end, use_time_index, stats
    ):
        if full and use_chunk_index:
            for bin_idx, bin_stats in summary.bins_for(source_id, index.index_id).items():
                counts[bin_idx] = counts.get(bin_idx, 0) + bin_stats.count
        elif not snapshot.record_log.chunk_index.is_scannable(summary.chunk_id):
            stats.chunks_skipped += 1
            stats.degraded = True
        else:
            scan_into(summary.start_addr, summary.end_addr)
    active_start, active_end = snapshot.active_region()
    scan_into(active_start, active_end)
    return counts


def _classified_summaries(
    snapshot: Snapshot,
    source_id: int,
    t_start: int,
    t_end: int,
    use_time_index: bool,
    stats: QueryStats,
) -> Iterator[Tuple[ChunkSummary, bool]]:
    """Yield ``(summary, fully_inside)`` for chunks relevant to the query.

    ``fully_inside`` is judged on the *source's* time range within the
    chunk: if every one of the source's records in the chunk falls inside
    the query range, its bin statistics can be used without a scan.
    """
    if t_end < t_start:
        return
    for summary in _candidate_summaries(snapshot, t_start, t_end, use_time_index, stats):
        stats.summaries_examined += 1
        info = summary.source_info(source_id)
        if info is None or info.t_min > t_end or info.t_max < t_start:
            stats.chunks_skipped += 1
            continue
        full = t_start <= info.t_min and info.t_max <= t_end
        yield summary, full
