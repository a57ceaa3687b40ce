"""Read-path smoke benchmark: raw scan vs indexed scan throughput.

``BENCH_ingest.json`` tracks the write path; this is its read-side
counterpart.  It ingests a fixed log of float-valued records (batched,
with the virtual clock advancing between batches so time ranges mean
something), then measures three queries over it:

* **raw scan** — ``Loom.scan`` over the full time range, materializing
  every record.  This walks the source's back-pointer chain one record
  read at a time; it does not use the columnar ``region_columns``
  decode (only the indexed verbs do).
* **indexed scan (selective)** — ``Loom.scan_indexed`` with a value
  range matching ~1/16 of records, so most chunk summaries are skipped
  and the vectorized bin/time filter touches only candidate regions.
* **indexed aggregate** — ``Loom.aggregate(..., "count")`` over the full
  range, which should answer from summaries alone.

Reported figures are records/second *returned* (scans) or *covered*
(aggregate), best-of-``rounds`` to strip scheduler noise.  Results are
written to ``BENCH_scan.json`` so read-path gains are tracked alongside
ingest in CI's bench-smoke job.

Run directly (writes ``BENCH_scan.json``)::

    PYTHONPATH=src python benchmarks/bench_scan.py
    PYTHONPATH=src python benchmarks/bench_scan.py --duration 0.5
"""

from __future__ import annotations

import argparse
import json
import struct
import time

_VALUE = struct.Struct("<d")


def _build_payloads(count: int, record_size: int, modulus: int) -> list:
    """``count`` payloads of ``record_size`` bytes whose leading float
    cycles through ``0 .. modulus-1`` (uniform over the index bins)."""
    pad = b"\x00" * (record_size - _VALUE.size)
    return [_VALUE.pack(float(i % modulus)) + pad for i in range(count)]


def run_scan_smoke(
    duration_s: float = 2.5,
    record_count: int = 200_000,
    record_size: int = 64,
    batch_size: int = 512,
    rounds: int = 3,
    out_path: str = "BENCH_scan.json",
) -> dict:
    """Measure raw-scan, selective indexed-scan and summary-only
    aggregate throughput over a freshly ingested log.

    Each query gets ``rounds`` timed windows of ``duration_s / rounds``
    seconds; the reported number is the best window.  Returns (and
    writes) the result dict.
    """
    from repro.core import Loom, LoomConfig, VirtualClock

    modulus = 16
    clock = VirtualClock()
    loom = Loom(
        LoomConfig(chunk_size=64 * 1024, record_block_size=1 << 22),
        clock=clock,
    )
    loom.define_source(1)
    index_id = loom.define_index(
        1,
        lambda p: _VALUE.unpack_from(p)[0],
        [float(edge) for edge in range(1, modulus)],
    )

    payloads = _build_payloads(batch_size, record_size, modulus)
    pushed = 0
    while pushed < record_count:
        loom.push_many(1, payloads)
        clock.advance(1_000_000)  # 1 ms of virtual time per batch
        pushed += batch_size
    loom.sync()
    t_end = clock.now()

    snapshot = loom.snapshot()
    slice_s = duration_s / rounds

    def best_of(run) -> float:
        """Best records/second over ``rounds`` timed windows of ``run``."""
        best = 0.0
        for _ in range(rounds):
            covered = 0
            start = time.perf_counter()
            deadline = start + slice_s
            while time.perf_counter() < deadline:
                covered += run()
            best = max(best, covered / (time.perf_counter() - start))
        return best

    def raw_scan() -> int:
        result = loom.scan(1, (0, t_end), snapshot=snapshot)
        return len(result.records)

    # Value range [3.0, 4.0) → one of ``modulus`` uniform bins matches.
    def indexed_scan() -> int:
        result = loom.scan_indexed(
            1, index_id, (0, t_end), (3.0, 3.5), snapshot=snapshot
        )
        return len(result.records)

    def aggregate_count() -> int:
        result = loom.aggregate(1, index_id, (0, t_end), "count", snapshot=snapshot)
        return int(result.value or 0)

    raw_rps = best_of(raw_scan)
    selective_rps = best_of(indexed_scan)
    aggregate_rps = best_of(aggregate_count)
    loom.close()

    result = {
        "bench": "scan_smoke",
        "record_count": pushed,
        "record_size_bytes": record_size,
        "batch_size": batch_size,
        "duration_s_per_query": duration_s,
        "rounds": rounds,
        "raw_scan_records_per_s": round(raw_rps),
        "indexed_scan_selectivity": round(1.0 / modulus, 4),
        "indexed_scan_matched_per_s": round(selective_rps),
        "aggregate_count_covered_per_s": round(aggregate_rps),
    }
    with open(out_path, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    return result


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--duration",
        type=float,
        default=2.5,
        help="total timed seconds per query (split across rounds)",
    )
    parser.add_argument(
        "--records",
        type=int,
        default=200_000,
        help="records to ingest before measuring",
    )
    parser.add_argument("--out", default="BENCH_scan.json")
    cli = parser.parse_args()
    print(
        json.dumps(
            run_scan_smoke(
                duration_s=cli.duration,
                record_count=cli.records,
                out_path=cli.out,
            ),
            indent=2,
        )
    )
