#!/usr/bin/env python3
"""Quickstart: capture and query high-frequency telemetry with Loom.

This walks the full Figure 9 API surface on a small synthetic stream:

1. define a source and a histogram index,
2. push records,
3. run the three query operators (raw scan, indexed scan, indexed
   aggregate — including an exact percentile), and
4. inspect Loom's resource footprint.

Run:  python examples/quickstart.py
"""

import random
import struct

from repro import HistogramSpec, Loom, LoomConfig, VirtualClock
from repro.core.clock import micros, seconds

VALUE = struct.Struct("<d")

LATENCY_SOURCE = 1


def main() -> None:
    # A virtual clock makes the example deterministic; drop it (Loom then
    # uses the monotonic clock) for live capture.
    clock = VirtualClock()
    loom = Loom(LoomConfig(chunk_size=16 * 1024), clock=clock)

    # --- schema: one source, one histogram index over its latency ------
    loom.define_source(LATENCY_SOURCE)
    latency_index = loom.define_index(
        LATENCY_SOURCE,
        index_func=lambda payload: VALUE.unpack(payload)[0],
        bins=[1.0, 10.0, 100.0, 1_000.0],  # µs edges; Loom adds outlier bins
    )

    # --- ingest: 50k latency records over 5 virtual seconds ------------
    rng = random.Random(42)
    for _ in range(50_000):
        latency_us = rng.lognormvariate(mu=3.0, sigma=1.0)  # median ~20 µs
        loom.push(LATENCY_SOURCE, VALUE.pack(latency_us))
        clock.advance(micros(100))  # 10k records/virtual second
    loom.sync()  # make everything queryable

    t_all = (0, clock.now())
    print(f"ingested {loom.total_records:,} records "
          f"({loom.footprint()['record_log_bytes']:,} bytes in the record log)")

    # --- indexed aggregates: served largely from chunk summaries -------
    for method in ("count", "min", "max", "mean"):
        result = loom.aggregate(LATENCY_SOURCE, latency_index, t_all, method)
        print(f"  {method:>5}: {result.value:,.2f}")

    p999 = loom.aggregate(
        LATENCY_SOURCE, latency_index, t_all, "percentile", percentile=99.9
    )
    print(f"  p99.9: {p999.value:.2f} µs (exact, via the bin-CDF walk; "
          f"scanned {p999.stats.records_scanned:,} of {loom.total_records:,} records)")

    # --- indexed range scan: the slow tail ------------------------------
    slow = loom.scan_indexed(
        LATENCY_SOURCE, latency_index, t_all, (p999.value, float("inf"))
    ).records
    print(f"  {len(slow)} records at or above p99.9")

    # --- raw scan: everything in the last virtual second ---------------
    last_second = (clock.now() - seconds(1), clock.now())
    recent = loom.scan(LATENCY_SOURCE, last_second).records
    print(f"  {len(recent):,} records in the last virtual second")

    # --- footprint: the layered indexes are tiny vs the record log -----
    fp = loom.footprint()
    print("footprint:")
    print(f"  record log      {fp['record_log_bytes']:>12,} B")
    print(f"  chunk index     {fp['chunk_index_bytes']:>12,} B "
          f"({fp['finalized_chunks']} summaries)")
    print(f"  timestamp index {fp['timestamp_index_bytes']:>12,} B "
          f"({fp['timestamp_entries']} entries)")

    loom.close()


if __name__ == "__main__":
    main()
