"""Configuration for a Loom instance.

The paper's prototype uses 64 MiB hybrid-log blocks and 64 KiB chunks.
Those defaults make sense for a Rust system ingesting millions of records
per second; for this Python reproduction the defaults are scaled down so
that tests and examples exercise many chunk-finalization and block-flush
events in milliseconds.  Every size is configurable, and the benchmark
harness picks sizes appropriate to each experiment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TierConfig:
    """Cold-tier (archive) policy: when and how chunks leave the hot log.

    Attributes:
        migrate_high_watermark: number of finalized, fully persisted hot
            chunks that triggers a migration pass (hysteresis high mark).
        migrate_low_watermark: migration stops once the finalized hot
            chunk count drops to this mark (hysteresis low mark).
        auto_migrate: run the migrator opportunistically from the writer
            thread whenever a chunk is finalized past the high watermark.
            Off leaves migration to explicit ``Loom.migrate()`` calls or
            an external driver.
        compression_level: zlib level for both the header-column stream
            and the payload stream of every archive frame.
        cache_chunks: archived chunks kept decoded in the archive read
            cache (each entry is one chunk's read-only header columns
            plus its owned payload blob, shared by every query).

    Recycling a migrated prefix of the hot record log is a metadata-only
    boundary: the bytes stay in the file until it is compacted offline.
    """

    migrate_high_watermark: int = 8
    migrate_low_watermark: int = 2
    auto_migrate: bool = True
    compression_level: int = 6
    cache_chunks: int = 4

    def __post_init__(self) -> None:
        if self.migrate_low_watermark < 0:
            raise ValueError("migrate_low_watermark must be >= 0")
        if self.migrate_high_watermark < self.migrate_low_watermark:
            raise ValueError(
                "migrate_high_watermark must be >= migrate_low_watermark"
            )
        if not 0 <= self.compression_level <= 9:
            raise ValueError("compression_level must be in [0, 9]")
        if self.cache_chunks < 1:
            raise ValueError("cache_chunks must be >= 1")


@dataclass(frozen=True)
class RetentionPolicy:
    """What happens to archived chunks past the retention horizon.

    Attributes:
        horizon_ns: age (vs. the ingest clock) past which an archived
            chunk becomes eligible for retirement.
        mode: ``"drop"`` removes the chunk entirely (summary and data);
            ``"downsample"`` keeps every ``keep_every``-th chunk's
            summary resident (so distributive aggregates and histograms
            retain downsampled coverage) while dropping all raw data.
        keep_every: downsample stride — a chunk is kept summary-only
            when ``chunk_id % keep_every == 0``.  Ignored for ``drop``.
    """

    horizon_ns: int
    mode: str = "drop"
    keep_every: int = 4

    def __post_init__(self) -> None:
        if self.horizon_ns < 0:
            raise ValueError("horizon_ns must be >= 0")
        if self.mode not in ("drop", "downsample"):
            raise ValueError("mode must be 'drop' or 'downsample'")
        if self.keep_every < 1:
            raise ValueError("keep_every must be >= 1")


@dataclass(frozen=True)
class LoomConfig:
    """Tunables for one Loom instance.

    Attributes:
        chunk_size: record-log bytes per chunk, the unit of sparse indexing
            (paper default 64 KiB).
        record_block_size: staging block size of the record log's hybrid
            log (paper default 64 MiB; two blocks are allocated).
        index_block_size: staging block size for the chunk-index log.
        timestamp_block_size: staging block size for the timestamp-index log.
        timestamp_interval: records per source between timestamp-index
            RECORD entries.
        publish_interval: records between watermark publications.  1 means
            every record is immediately queryable; larger values batch the
            publication step (``sync`` always forces it).
        threaded_flush: flush full blocks on a background thread (the
            paper's behaviour) instead of inline.
        data_dir: directory for the log files, or ``None`` to keep all
            logs in memory (tests, benchmarks).  Every persisted log gets
            a sidecar frame journal (``<log>.crc``) checksumming each
            flushed extent, so recovery can detect bulk bit-rot without
            decoding records.
        verify_on_read: CRC-check every record as it is decoded from the
            persisted log (reads of corrupt records raise
            :class:`~repro.core.errors.CorruptionError`).  Off by default —
            record CRCs are always *written*; this knob governs paying the
            verification cost on the hot read path.
        flush_retries: times a failed block flush is retried (with
            exponential backoff) before the log enters the FAILED state.
        flush_backoff: base backoff in seconds between flush retries
            (doubles per attempt).
        metrics_enabled: maintain the loomscope self-observation
            registry (ingest counters, flush-latency histograms, reader
            fallback counters — see :mod:`repro.core.metrics`).  On by
            default; the observability overhead benchmark uses the off
            mode as its uninstrumented baseline.
        tier: cold-tier (archive) policy, or ``None`` for a hot-only log.
        retention: what happens to archived chunks past the retention
            horizon, or ``None`` to keep them forever; requires ``tier``.
    """

    chunk_size: int = 16 * 1024
    record_block_size: int = 1 << 20
    index_block_size: int = 1 << 18
    timestamp_block_size: int = 1 << 16
    timestamp_interval: int = 64
    publish_interval: int = 1
    threaded_flush: bool = False
    data_dir: Optional[str] = None
    verify_on_read: bool = False
    flush_retries: int = 3
    flush_backoff: float = 0.001
    metrics_enabled: bool = True
    tier: Optional[TierConfig] = None
    retention: Optional[RetentionPolicy] = None

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.publish_interval < 1:
            raise ValueError("publish_interval must be >= 1")
        if self.timestamp_interval < 1:
            raise ValueError("timestamp_interval must be >= 1")
        if self.flush_retries < 0:
            raise ValueError("flush_retries must be >= 0")
        if self.flush_backoff < 0:
            raise ValueError("flush_backoff must be >= 0")
        if self.retention is not None and self.tier is None:
            raise ValueError("retention requires a tier (archive) config")

    def record_log_path(self) -> Optional[str]:
        return self._path("records.log")

    def chunk_index_path(self) -> Optional[str]:
        return self._path("chunks.idx")

    def timestamp_index_path(self) -> Optional[str]:
        return self._path("timestamps.idx")

    def archive_log_path(self) -> Optional[str]:
        return self._path("archive.log")

    def archive_journal_path(self) -> Optional[str]:
        return self._journal_path(self.archive_log_path())

    def record_log_journal_path(self) -> Optional[str]:
        return self._journal_path(self.record_log_path())

    def chunk_index_journal_path(self) -> Optional[str]:
        return self._journal_path(self.chunk_index_path())

    def timestamp_index_journal_path(self) -> Optional[str]:
        return self._journal_path(self.timestamp_index_path())

    def _journal_path(self, log_path: Optional[str]) -> Optional[str]:
        if log_path is None:
            return None
        return log_path + ".crc"

    def _path(self, name: str) -> Optional[str]:
        if self.data_dir is None:
            return None
        return os.path.join(self.data_dir, name)


#: Configuration mirroring the paper's prototype constants.  Useful for
#: sizing experiments; heavyweight for unit tests.
PAPER_CONFIG = LoomConfig(
    chunk_size=64 * 1024,
    record_block_size=64 << 20,
    index_block_size=8 << 20,
    timestamp_block_size=1 << 20,
    timestamp_interval=256,
    publish_interval=64,
    threaded_flush=True,
)
