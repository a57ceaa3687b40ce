#!/usr/bin/env python3
"""The RocksDB case study (paper Figure 10b): aggregation drill-down.

Based on a classic Linux page-cache debugging session: a RocksDB
deployment shows latency spikes; the engineer aggregates request
latencies, then pread64 syscall latencies (~3% of the data), then counts
page-cache insertions (~0.5% of the data) to confirm cache misses.

Every answer below is computed two ways — through Loom's indexed
aggregates and from the generator's ground truth — and they match
exactly, including the 99.99th percentiles (Loom's percentiles are exact,
not approximations, despite being index-accelerated).

Run:  python examples/rocksdb_aggregation.py
"""

from repro.analysis import subset_percentile
from repro.core.histogram import exponential_edges
from repro.core.operators import bin_histogram
from repro.daemon import MonitoringDaemon
from repro.workloads import RocksDbCaseStudy, events

SCALE = 1e-3


def main() -> None:
    workload = RocksDbCaseStudy(scale=SCALE, phase_duration_s=10.0)
    daemon = MonitoringDaemon()
    daemon.enable_source("app", events.SRC_APP)
    daemon.enable_source("syscall", events.SRC_SYSCALL)
    daemon.enable_source("pagecache", events.SRC_PAGECACHE)
    daemon.add_index("app", "latency", events.latency_value,
                     exponential_edges(0.5, 500.0, 16))
    # Subset index: pread64 latency, everything else mapped to a sentinel
    # below the histogram (lands in the outlier bin; see
    # repro.analysis.queries for how subset percentiles use this).
    daemon.add_index(
        "syscall", "pread-latency",
        lambda p: (events.latency_value(p)
                   if events.latency_kind(p) == events.SYS_PREAD64 else -1.0),
        exponential_edges(0.5, 1000.0, 16),
    )
    daemon.add_index("pagecache", "kind", events.pagecache_kind,
                     [1.0, 2.0, 3.0, 4.0])

    phases = workload.generate_all()
    for phase in phases:
        daemon.replay(phase.records)
        print(f"phase {phase.phase}: ingested {phase.record_count:,} records")

    loom = daemon.loom

    # --- Phase 1: request latency aggregates ---------------------------
    p1 = phases[0]
    t1 = (p1.t_start_ns, p1.t_end_ns)
    app_index = daemon.index_id("app", "latency")
    max_result = loom.aggregate(events.SRC_APP, app_index, t1, "max")
    tail_result = loom.aggregate(
        events.SRC_APP, app_index, t1, "percentile", percentile=99.99
    )
    print("\nphase 1 — application request latency:")
    print(f"  max    = {max_result.value:8.2f} µs  "
          f"(truth {p1.truth['app_max_us']:8.2f})")
    print(f"  p99.99 = {tail_result.value:8.2f} µs  "
          f"(truth {p1.truth['app_p9999_us']:8.2f})")
    print(f"  served from {tail_result.stats.summaries_aggregated} chunk "
          f"summaries; scanned {tail_result.stats.records_scanned:,} records")

    # --- Phase 2: pread64 subset aggregates (~3% of the data) ----------
    p2 = phases[1]
    t2 = (p2.t_start_ns, p2.t_end_ns)
    pread_index = daemon.index_id("syscall", "pread-latency")
    pread_max = loom.aggregate(
        events.SRC_SYSCALL, pread_index, t2, "max"
    )
    pread_tail = subset_percentile(
        loom, events.SRC_SYSCALL, pread_index, t2, 99.99
    )
    print("\nphase 2 — pread64 latency (bimodal: cache hits vs misses):")
    print(f"  max    = {pread_max.value:8.2f} µs  "
          f"(truth {p2.truth['pread_max_us']:8.2f})")
    print(f"  p99.99 = {pread_tail:8.2f} µs  "
          f"(truth {p2.truth['pread_p9999_us']:8.2f})")

    # --- Phase 3: page-cache insertion count (~0.5% of the data) -------
    p3 = phases[2]
    t3 = (p3.t_start_ns, p3.t_end_ns)
    kind_index = loom.record_log.get_index(daemon.index_id("pagecache", "kind"))
    counts = bin_histogram(
        loom.snapshot(), events.SRC_PAGECACHE, kind_index, t3[0], t3[1]
    )
    adds = counts.get(1, 0)  # kind 1 = mm_filemap_add_to_page_cache
    print("\nphase 3 — page-cache events:")
    print(f"  mm_filemap_add_to_page_cache count = {adds} "
          f"(truth {int(p3.truth['pagecache_add_count'])})")
    print("  answered from chunk-summary bin counts "
          "(the paper: 'Loom uses counts stored in chunk summaries')")

    assert max_result.value == p1.truth["app_max_us"]
    assert tail_result.value == p1.truth["app_p9999_us"]
    assert pread_max.value == p2.truth["pread_max_us"]
    assert pread_tail == p2.truth["pread_p9999_us"]
    assert adds == int(p3.truth["pagecache_add_count"])
    print("\nall Loom answers match the ground truth exactly.")


if __name__ == "__main__":
    main()
