"""Cold-tier fault injection: torn archive tails and aborted migrations.

Exercises the crash-safety claims of the migration commit protocol
(DESIGN.md §15):

* a torn, unratified suffix on the archive log is truncated on reopen
  without touching ratified frames;
* a crash between the ``DATA`` frames and the ``RECYCLE`` frame leaves
  the hot chunks authoritative — no loss, no duplication — and recovery
  drops the unratified frames;
* a storage failure mid-pass aborts the whole pass cleanly and a retry
  succeeds with byte-identical answers.
"""

import struct

import pytest

from repro.core import Health, StorageError
from repro.core.archive import ArchiveLog
from repro.core.clock import VirtualClock
from repro.core.config import LoomConfig, TierConfig
from repro.core.faults import FaultInjectingStorage
from repro.core.loom import Loom
from repro.core.recovery import check_data_dir

pytestmark = pytest.mark.faults

_VALUE = struct.Struct("<d")
ALL_TIME = (0, 2**62)


def _payload(value, pad=40):
    return _VALUE.pack(float(value)) + b"\x00" * pad


def _tiered_config(tmp_path=None, **overrides):
    kwargs = dict(
        chunk_size=2048,
        record_block_size=4096,
        timestamp_interval=4,
        tier=TierConfig(auto_migrate=False),
    )
    if tmp_path is not None:
        kwargs["data_dir"] = str(tmp_path)
    kwargs.update(overrides)
    return LoomConfig(**kwargs)


def _fill(loom, clock, count=400):
    loom.define_source(1)
    for i in range(count):
        loom.push(1, _payload(i % 100))
        clock.advance(1)


def _scan_bytes(loom):
    return [
        (r.address, r.timestamp, bytes(r.payload))
        for r in loom.scan(1, ALL_TIME).records
    ]


class TestTornArchiveTail:
    def test_torn_unratified_suffix_truncated_on_reopen(self, tmp_path):
        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        report = loom.migrate(force=True)
        assert report.chunks_migrated > 0
        boundary = loom.record_log.cold_boundary
        before = _scan_bytes(loom)
        loom.close()

        # A crash mid-append leaves a partial, unratified frame at the
        # tail of the archive log.
        archive_path = cfg.archive_log_path()
        with open(archive_path, "ab") as f:
            f.write(b"\x7f" * 37)

        checked = check_data_dir(str(tmp_path), repair=True)
        assert checked.ok
        assert any("archive" in r for r in checked.repairs)

        reopened = Loom.open(cfg, clock=VirtualClock(10**7))
        assert reopened.record_log.cold_boundary == boundary
        assert _scan_bytes(reopened) == before
        reopened.close()


class TestCrashBeforeRecycle:
    def test_failed_recycle_keeps_hot_authoritative(self, monkeypatch):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        before = _scan_bytes(loom)

        def boom(self, boundary):
            raise StorageError("injected: crash before RECYCLE")

        monkeypatch.setattr(ArchiveLog, "append_recycle", boom)
        with pytest.raises(StorageError, match="injected"):
            loom.migrate(force=True)
        monkeypatch.undo()

        # The pass never ratified: the boundary did not move, the hot
        # chunks answer, and the writer stays healthy.
        log = loom.record_log
        assert log.cold_boundary == 0
        assert log.health() == Health.HEALTHY
        assert _scan_bytes(loom) == before

        # A retry ratifies and the answers do not change.
        report = loom.migrate(force=True)
        assert report.chunks_migrated > 0
        assert log.cold_boundary == report.cold_boundary > 0
        assert _scan_bytes(loom) == before
        loom.close()

    def test_unratified_frames_dropped_on_reopen(self, tmp_path, monkeypatch):
        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        before = _scan_bytes(loom)
        total = loom.record_log.total_records

        def boom(self, boundary):
            raise StorageError("injected: crash before RECYCLE")

        monkeypatch.setattr(ArchiveLog, "append_recycle", boom)
        with pytest.raises(StorageError, match="injected"):
            loom.migrate(force=True)
        monkeypatch.undo()
        loom.close()

        # Recovery truncates the unratified DATA frames; the hot log is
        # the sole authority again — no loss, no duplication.
        checked = check_data_dir(str(tmp_path), repair=True)
        assert checked.ok
        reopened = Loom.open(cfg, clock=VirtualClock(10**7))
        assert reopened.record_log.cold_boundary == 0
        assert reopened.record_log.total_records == total
        assert _scan_bytes(reopened) == before
        reopened.close()


class TestMidPassFailure:
    def test_data_frame_failure_aborts_pass_and_retry_succeeds(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        before = _scan_bytes(loom)
        archive = loom.record_log.archive
        faulty = FaultInjectingStorage(archive._storage).fail_once()
        archive._storage = faulty

        with pytest.raises(StorageError):
            loom.migrate(force=True)
        assert faulty.faults_injected == 1
        assert loom.record_log.cold_boundary == 0
        assert _scan_bytes(loom) == before

        # The fault is one-shot: the retried pass commits.
        report = loom.migrate(force=True)
        assert report.chunks_migrated > 0
        assert loom.record_log.cold_boundary > 0
        assert _scan_bytes(loom) == before
        loom.close()


class TestColdBitRot:
    """Bit-rot in archived bytes surfaces as a typed CorruptionError at
    the chunk's address on the next cache miss — never as a bare
    ``zlib.error`` or a silently different record."""

    def _flip(self, path, offset):
        with open(path, "r+b") as f:
            f.seek(offset)
            byte = f.read(1)
            f.seek(offset)
            f.write(bytes([byte[0] ^ 0x40]))

    def test_flipped_payload_stream_byte_raises_corruption(self, tmp_path):
        from repro.core.archive import FRAME_HEADER
        from repro.core.errors import CorruptionError

        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        loom.sync()
        before = _scan_bytes(loom)
        archive = loom.record_log.archive
        entry = archive.entries()[0]
        offset = entry.frame_addr + FRAME_HEADER.size + entry.header_len + 1
        self._flip(cfg.archive_log_path(), offset)
        archive._cache.clear()

        with pytest.raises(CorruptionError) as exc_info:
            loom.scan(1, ALL_TIME)
        assert exc_info.value.address == entry.start_addr
        assert "CRC" in str(exc_info.value)

        # Repaired bytes read back identically once the cache is cold.
        self._flip(cfg.archive_log_path(), offset)
        archive._cache.clear()
        assert _scan_bytes(loom) == before
        loom.close()

    def test_undecompressable_stream_raises_corruption(self):
        """A stream whose CRC matches but that zlib cannot inflate (or
        that inflates to the wrong shape) is corruption too."""
        import zlib

        from repro.core.archive import (
            FRAME_HEADER,
            ArchiveEntry,
            encode_chunk_streams,
            read_archive_entry,
        )
        from repro.core.errors import CorruptionError
        from repro.core.record import encode_record
        from repro.core.storage import MemoryStorage

        def entry_over(streams, **fields):
            storage = MemoryStorage()
            storage.append(bytes(FRAME_HEADER.size) + streams)
            header_len = fields.pop("header_len")
            entry = ArchiveEntry(
                chunk_id=9,
                start_addr=4096,
                end_addr=4096 + fields["raw_len"],
                record_count=fields["record_count"],
                frame_addr=0,
                header_len=header_len,
                payload_len=len(streams) - header_len,
                raw_len=fields["raw_len"],
                flags=fields["flags"],
                crc=zlib.crc32(streams),
            )
            return storage, entry

        storage, entry = entry_over(
            bytes(16), header_len=8, record_count=1, raw_len=30, flags=0
        )
        with pytest.raises(CorruptionError, match="decompress") as exc_info:
            read_archive_entry(storage, entry)
        assert exc_info.value.address == 4096

        region = encode_record(1, 5, 2**64 - 1, b"xy")
        header, blob, count, flags = encode_chunk_streams(region, 4096)
        streams = zlib.compress(header) + zlib.compress(blob)
        storage, entry = entry_over(
            streams,
            header_len=len(zlib.compress(header)),
            record_count=count + 1,
            raw_len=len(region),
            flags=flags,
        )
        with pytest.raises(CorruptionError) as exc_info:
            read_archive_entry(storage, entry)
        assert exc_info.value.address == 4096
