"""Cold-tier smoke benchmark: migration throughput and cold scan cost.

``BENCH_scan.json`` tracks the hot read path; this measures what the
tiered-storage API adds on top.  It ingests a fixed log of float-valued
records (batched, virtual clock advancing between batches), scans it hot,
then migrates everything to the compressed archive and scans it cold:

* **compression ratio** — raw record bytes over archive bytes for the
  migrated chunks (delta-of-delta timestamps + columnar transpose +
  zlib).  CI gates on a floor of 4x for this telemetry shape.
* **migration throughput** — records/second and MB/second for one
  forced ``Loom.migrate`` pass over the whole log.
* **hot vs cold scan** — ``Loom.scan`` records/second over the full
  range before and after migration, so the decompress-on-read cost is
  tracked next to the mmap fast path it replaces.
* **hot vs cold indexed scan** — ``Loom.scan_indexed`` records/second
  returned for a value range matching ~1/16 of records, before and
  after migration; cold, every surviving chunk is served from its
  decoded archive columns (the chunk cache is cleared before each
  query, so each one decompresses and decodes what it reads).
* **summary-only aggregate** — ``Loom.aggregate(..., "count")`` after
  migration; answered from resident summaries, no decompression.
* **chunk codec** — per-chunk microseconds to encode a chunk region into
  its archive streams and to decode the streams back, for the columnar
  codec the archive uses and for the per-record scalar oracles it is
  tested against (best of ``rounds`` over a sample of migrated chunks;
  compression excluded).

An ``env`` block records the cores, Python, numpy and commit the
figures were measured on.

Reported figures are best-of-``rounds`` (migration is a single timed
pass).  Results are written to ``BENCH_archive.json`` for CI's
bench-smoke job.

Run directly (writes ``BENCH_archive.json``)::

    PYTHONPATH=src python benchmarks/bench_archive.py
    PYTHONPATH=src python benchmarks/bench_archive.py --duration 0.5
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import struct
import subprocess
import time

_VALUE = struct.Struct("<d")


def _build_payloads(count: int, record_size: int, modulus: int) -> list:
    pad = b"\x00" * (record_size - _VALUE.size)
    return [_VALUE.pack(float(i % modulus)) + pad for i in range(count)]


def env_block() -> dict:
    """Where the figures were measured: cores, Python, numpy, commit."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def codec_us_per_chunk(regions: list, rounds: int) -> dict:
    """Best-of-``rounds`` mean microseconds per chunk to encode each
    region into archive streams and to decode them back, for the
    columnar codec and the per-record scalar oracles."""
    from repro.core.archive import (
        decode_chunk_columns,
        decode_chunk_region,
        encode_chunk_streams,
        encode_chunk_streams_scalar,
    )

    def best_us(run, items: list) -> float:
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for item in items:
                run(*item)
            best = min(best, time.perf_counter() - start)
        return round(best / len(items) * 1e6, 1)

    encode_args = [(region, start) for start, region in regions]
    decode_args = []
    for region, start in encode_args:
        header, blob, count, flags = encode_chunk_streams(region, start)
        decode_args.append((header, blob, start, count, len(region), flags))
    encode_columnar = best_us(encode_chunk_streams, encode_args)
    encode_scalar = best_us(encode_chunk_streams_scalar, encode_args)
    decode_columnar = best_us(decode_chunk_columns, decode_args)
    decode_scalar = best_us(decode_chunk_region, decode_args)
    return {
        "chunks": len(regions),
        "encode_columnar_us": encode_columnar,
        "encode_scalar_us": encode_scalar,
        "decode_columnar_us": decode_columnar,
        "decode_scalar_us": decode_scalar,
    }


def run_archive_smoke(
    duration_s: float = 2.0,
    record_count: int = 200_000,
    record_size: int = 64,
    batch_size: int = 512,
    rounds: int = 3,
    out_path: str = "BENCH_archive.json",
) -> dict:
    """Measure compression ratio, migration throughput and the hot→cold
    scan cost delta over a freshly ingested log.

    Each scan gets ``rounds`` timed windows of ``duration_s / rounds``
    seconds; the reported number is the best window.  Returns (and
    writes) the result dict.
    """
    from repro.core import Loom, LoomConfig, TierConfig, VirtualClock

    modulus = 16
    clock = VirtualClock()
    loom = Loom(
        LoomConfig(
            chunk_size=64 * 1024,
            record_block_size=1 << 22,
            tier=TierConfig(auto_migrate=False),
        ),
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
    slice_s = duration_s / rounds

    def best_of(run) -> float:
        best = 0.0
        for _ in range(rounds):
            covered = 0
            start = time.perf_counter()
            deadline = start + slice_s
            while time.perf_counter() < deadline:
                covered += run()
            best = max(best, covered / (time.perf_counter() - start))
        return best

    def full_scan() -> int:
        return len(loom.scan(1, (0, t_end)).records)

    def aggregate_count() -> int:
        result = loom.aggregate(1, index_id, (0, t_end), "count")
        return int(result.value or 0)

    def indexed_scan() -> int:
        archive = loom.record_log.archive
        if archive is not None:
            archive._cache.clear()
        return loom.scan_indexed(1, index_id, (0, t_end), (3.0, 3.0)).count

    hot_rps = best_of(full_scan)
    hot_indexed_rps = best_of(indexed_scan)
    summaries = loom.record_log.chunk_index
    sample = [summaries.get(i) for i in range(min(32, len(summaries)))]
    regions = [
        (s.start_addr, loom.record_log.log.read(s.start_addr, s.end_addr - s.start_addr))
        for s in sample
    ]

    migrate_start = time.perf_counter()
    report = loom.migrate(force=True)
    migrate_s = time.perf_counter() - migrate_start

    cold_rps = best_of(full_scan)
    cold_indexed_rps = best_of(indexed_scan)
    aggregate_rps = best_of(aggregate_count)
    codec = codec_us_per_chunk(regions, rounds)

    footprint = loom.footprint()
    ratio = (
        report.raw_bytes / report.compressed_bytes
        if report.compressed_bytes
        else 0.0
    )
    loom.close()

    result = {
        "bench": "archive_smoke",
        "record_count": pushed,
        "record_size_bytes": record_size,
        "duration_s_per_query": duration_s,
        "rounds": rounds,
        "chunks_migrated": report.chunks_migrated,
        "records_migrated": report.records_migrated,
        "raw_bytes": report.raw_bytes,
        "compressed_bytes": report.compressed_bytes,
        "compression_ratio": round(ratio, 2),
        "migrate_records_per_s": round(
            report.records_migrated / migrate_s if migrate_s else 0.0
        ),
        "migrate_mb_per_s": round(
            report.raw_bytes / migrate_s / 1e6 if migrate_s else 0.0, 1
        ),
        "hot_scan_records_per_s": round(hot_rps),
        "cold_scan_records_per_s": round(cold_rps),
        "cold_over_hot_scan": round(cold_rps / hot_rps if hot_rps else 0.0, 3),
        "hot_indexed_scan_records_per_s": round(hot_indexed_rps),
        "cold_indexed_scan_records_per_s": round(cold_indexed_rps),
        "codec": codec,
        "aggregate_count_covered_per_s": round(aggregate_rps),
        "archive_log_bytes": footprint["archive_log_bytes"],
        "env": env_block(),
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
        default=2.0,
        help="total timed seconds per scan (split across rounds)",
    )
    parser.add_argument(
        "--records",
        type=int,
        default=200_000,
        help="records to ingest before measuring",
    )
    parser.add_argument("--out", default="BENCH_archive.json")
    cli = parser.parse_args()
    print(
        json.dumps(
            run_archive_smoke(
                duration_s=cli.duration,
                record_count=cli.records,
                out_path=cli.out,
            ),
            indent=2,
        )
    )
