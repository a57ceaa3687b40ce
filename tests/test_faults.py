"""Fault tolerance: flaky backends, torn writes, corruption, health states.

Exercises the acceptance scenarios of the durability layer with
:class:`~repro.core.faults.FaultInjectingStorage`:

* a flaky backend whose every flush fails once is survived transparently
  (retry path; HEALTHY afterwards; no data loss);
* a permanently failing backend drives the log to FAILED — ingest raises
  :class:`StorageError` while queries over published data keep working;
* single-bit corruption in a persisted log is detected with
  :class:`CorruptionError` naming the address, and ``repair=True``
  truncates the log at the first bad frame.
"""

import pytest

from repro.core import (
    CorruptionError,
    Health,
    HybridLog,
    Loom,
    LoomConfig,
    MemoryStorage,
    StorageError,
    VirtualClock,
    corrupt_byte,
    recover,
    verify_frames,
)
from repro.core.faults import FaultInjectingStorage
from repro.core.record import HEADER_SIZE
from repro.core.record_log import RecordLog
from repro.core.recovery import scan_persisted_records
from repro.daemon.cli import LoomCli
from repro.daemon.monitor import MonitoringDaemon

pytestmark = pytest.mark.faults


class TestFaultInjectingStorage:
    def test_transparent_proxy_when_unarmed(self):
        storage = FaultInjectingStorage()
        addr = storage.append(b"hello")
        assert addr == 0
        assert storage.read(0, 5) == b"hello"
        assert storage.size == 5
        assert storage.faults_injected == 0

    def test_fail_once_then_recover(self):
        storage = FaultInjectingStorage().fail_once()
        with pytest.raises(StorageError):
            storage.append(b"x")
        assert storage.append(b"x") == 0  # nothing was persisted by the fault
        assert storage.faults_injected == 1

    def test_flaky_period_two_alternates(self):
        storage = FaultInjectingStorage().make_flaky(period=2)
        results = []
        for _ in range(6):
            try:
                storage.append(b"d")
                results.append("ok")
            except StorageError:
                results.append("fail")
        assert results == ["fail", "ok"] * 3

    def test_torn_write_persists_a_prefix(self):
        storage = FaultInjectingStorage().fail_once().tear_writes(0.5)
        with pytest.raises(StorageError):
            storage.append(b"abcdefgh")
        assert storage.size == 4  # half the data landed
        assert storage.read(0, 4) == b"abcd"

    def test_corrupt_byte_flips_bits(self):
        storage = FaultInjectingStorage()
        storage.append(b"\x00\x00")
        storage.corrupt_byte(1, mask=0xFF)
        assert storage.read(0, 2) == b"\x00\xff"


class TestFlushRetry:
    def test_flaky_backend_survived_transparently(self):
        """Each flush fails on its first attempt; the retry path re-drives
        it and the caller never notices."""
        storage = FaultInjectingStorage().make_flaky(period=2)
        log = HybridLog(storage=storage, block_size=64, flush_backoff=0.0)
        payload = bytes(range(64))
        for i in range(8):
            log.append(payload)
        log.publish()
        assert log.health is Health.HEALTHY
        assert log.stats.flush_retries >= 8
        assert storage.faults_injected >= 8
        # No data loss and no duplicated extents.
        for i in range(8):
            assert log.read(i * 64, 64) == payload

    def test_torn_flush_is_undone_before_retry(self):
        storage = FaultInjectingStorage().make_flaky(period=2).tear_writes(0.5)
        log = HybridLog(storage=storage, block_size=64, flush_backoff=0.0)
        for i in range(8):
            log.append(bytes([i]) * 64)
        log.close()
        assert storage.size == 8 * 64
        for i in range(8):
            assert storage.read(i * 64, 64) == bytes([i]) * 64
        # The frame journal (memory-backed here: none) aside, a recovery
        # scan of the raw storage sees exactly the appended bytes.

    def test_permanent_failure_enters_failed_state(self):
        storage = FaultInjectingStorage()
        log = HybridLog(
            storage=storage, block_size=32, flush_retries=2, flush_backoff=0.0
        )
        log.append(b"a" * 32)  # fills the block; flushed successfully
        log.publish()
        storage.fail_next_appends(100)
        with pytest.raises(StorageError):
            log.append(b"b" * 32)  # rotation flush fails 3 times
        assert log.health is Health.FAILED
        # Every subsequent append raises a *fresh* wrapped error.
        with pytest.raises(StorageError) as exc_info:
            log.append(b"c")
        assert exc_info.value.__cause__ is not None
        # Published data stays readable (graceful read-only degradation).
        assert log.read(0, 32) == b"a" * 32

    def test_degraded_health_reported_mid_retry(self):
        health_seen = []

        class Spy(FaultInjectingStorage):
            def append(self, data):
                health_seen.append(log.health)
                return super().append(data)

        storage = Spy().fail_next_appends(1)
        log = HybridLog(storage=storage, block_size=16, flush_backoff=0.0)
        log.append(b"x" * 16)
        log.append(b"y")
        assert Health.DEGRADED in health_seen  # the retry attempt saw it
        assert log.health is Health.HEALTHY


class TestLoomHealth:
    def _loom_on(self, storage):
        cfg = LoomConfig(chunk_size=256, record_block_size=256)
        clock = VirtualClock(1)
        log = RecordLog(config=cfg, clock=clock)
        # Swap the record log's backend for the fault-injecting one.
        log.log._storage = storage
        loom = Loom.__new__(Loom)
        loom._record_log = log
        return loom, clock

    def test_flaky_loom_stays_healthy_with_no_data_loss(self):
        storage = FaultInjectingStorage().make_flaky(period=2)
        loom, clock = self._loom_on(storage)
        loom.define_source(1)
        for i in range(100):
            clock.advance(10)
            loom.push(1, b"p%04d" % i)
        loom.sync()
        assert loom.health() is Health.HEALTHY
        assert storage.faults_injected > 0
        assert len(loom.scan(1, (0, 10**9)).records) == 100

    def test_failed_loom_rejects_ingest_but_serves_queries(self):
        storage = FaultInjectingStorage()
        loom, clock = self._loom_on(storage)
        loom.define_source(1)
        for i in range(20):
            clock.advance(10)
            loom.push(1, b"q%04d" % i)
        loom.sync()
        storage.fail_next_appends(10**6)
        with pytest.raises(StorageError):
            for i in range(100):
                clock.advance(10)
                loom.push(1, b"r%04d" % i)
        assert loom.health() is Health.FAILED
        with pytest.raises(StorageError):
            loom.push(1, b"more")
        # Everything published before the failure is still queryable.
        records = loom.scan(1, (0, 10**9)).records
        assert len(records) >= 20
        assert bytes(records[-1].payload) == b"q0000"


class TestCorruptionDetection:
    def _persisted_log(self, n=50):
        storage = MemoryStorage()
        log = HybridLog(storage=storage, block_size=128)
        journal = MemoryStorage()
        log._journal = journal
        addresses = []
        from repro.core.record import encode_record

        prev = 0xFFFF_FFFF_FFFF_FFFF
        for i in range(n):
            framed = encode_record(1, 1000 + i, prev, b"payload-%02d" % i)
            prev = log.append(framed)
            addresses.append(prev)
        log.close()
        return storage, journal, addresses

    def test_single_bit_corruption_raises_with_address(self):
        storage, _journal, addresses = self._persisted_log()
        victim = addresses[20]
        corrupt_byte(storage, victim + HEADER_SIZE + 2)  # payload byte
        with pytest.raises(CorruptionError) as exc_info:
            list(scan_persisted_records(storage))
        assert exc_info.value.address == victim
        assert str(victim) in str(exc_info.value)

    def test_header_corruption_detected_too(self):
        storage, _journal, addresses = self._persisted_log()
        victim = addresses[7]
        corrupt_byte(storage, victim + 4)  # timestamp byte
        with pytest.raises(CorruptionError) as exc_info:
            recover(storage, verify=True)
        assert exc_info.value.address == victim

    def test_repair_truncates_at_first_bad_frame(self):
        storage, journal, addresses = self._persisted_log()
        victim = addresses[20]
        corrupt_byte(storage, victim + HEADER_SIZE)
        state = recover(storage, repair=True, record_journal=journal)
        assert state.total_records == 20
        assert storage.size == victim
        assert state.repairs  # the action was recorded
        # The surviving prefix is fully valid.
        assert len(list(scan_persisted_records(storage))) == 20

    def test_frame_journal_catches_bit_rot_in_bulk(self):
        storage, journal, addresses = self._persisted_log()
        corrupt_byte(storage, addresses[10])
        with pytest.raises(CorruptionError):
            verify_frames(storage, journal)

    def test_frame_journal_tolerates_unjournaled_tail(self):
        storage, journal, _ = self._persisted_log()
        frames_before = verify_frames(storage, journal)
        storage.append(b"torn-tail-bytes")  # flushed data, journal lost
        assert verify_frames(storage, journal) == frames_before

    def test_verify_on_read_detects_corruption(self, tmp_path):
        cfg = LoomConfig(
            data_dir=str(tmp_path / "d"),
            chunk_size=512,
            record_block_size=512,
            verify_on_read=True,
        )
        clock = VirtualClock(1)
        loom = Loom(cfg, clock=clock)
        loom.define_source(1)
        addresses = []
        for i in range(30):
            clock.advance(10)
            addresses.append(loom.push(1, b"value-%02d" % i))
        loom.sync()
        # Scans work while the data is intact.
        assert len(loom.scan(1, (0, 10**9)).records) == 30
        victim = addresses[3]  # old enough to be flushed to the file
        assert victim + HEADER_SIZE < loom.record_log.log.persisted_tail
        corrupt_byte(loom.record_log.log.storage, victim + HEADER_SIZE + 1)
        with pytest.raises(CorruptionError) as exc_info:
            loom.record_log.read_record(victim)
        assert exc_info.value.address == victim

    def test_verify_on_read_off_by_default(self, tmp_path):
        cfg = LoomConfig(
            data_dir=str(tmp_path / "d"), chunk_size=512, record_block_size=512
        )
        clock = VirtualClock(1)
        loom = Loom(cfg, clock=clock)
        loom.define_source(1)
        addresses = [loom.push(1, b"value-%02d" % i) for i in range(30)]
        loom.sync()
        victim = addresses[3]
        if victim + HEADER_SIZE < loom.record_log.log.persisted_tail:
            corrupt_byte(loom.record_log.log.storage, victim + HEADER_SIZE + 1)
            loom.record_log.read_record(victim)  # no check, no raise


class TestCliRecovery:
    def _crashed_dir(self, tmp_path):
        cfg = LoomConfig(
            data_dir=str(tmp_path / "d"),
            chunk_size=256,
            record_block_size=256,
            timestamp_interval=4,
        )
        clock = VirtualClock(1)
        loom = Loom(cfg, clock=clock)
        loom.define_source(1)
        for i in range(60):
            clock.advance(10)
            loom.push(1, b"cli-%03d" % i)
        loom.close()
        return cfg

    def test_fsck_reports_clean_directory(self, tmp_path):
        cfg = self._crashed_dir(tmp_path)
        cli = LoomCli(MonitoringDaemon())
        result = cli.execute(f"fsck {cfg.data_dir}")
        assert "60 records" in result.text
        assert result.value.ok
        assert result.value.state.total_records == 60
        assert result.exit_code == 0

    def test_recover_subcommand_repairs_torn_tail(self, tmp_path):
        cfg = self._crashed_dir(tmp_path)
        # Tear the record log mid-record.
        path = cfg.record_log_path()
        import os

        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 5)
        cli = LoomCli(MonitoringDaemon())
        # Read-only check: reports the corruption (no exception), no fix.
        checked = cli.execute(f"fsck {cfg.data_dir}")
        assert not checked.value.ok
        assert checked.exit_code == 1
        assert "corrupt" in checked.text
        result = cli.execute(f"recover {cfg.data_dir}")
        assert result.value.state.total_records == 59
        assert result.value.repairs
        # After repair, fsck is clean and the directory reopens.
        clean = cli.execute(f"fsck {cfg.data_dir}")
        assert clean.value.ok and clean.value.state.total_records == 59
        reopened = Loom.open(cfg)
        assert reopened.total_records == 59
        reopened.close()

    def test_health_verb(self):
        daemon = MonitoringDaemon()
        cli = LoomCli(daemon)
        result = cli.execute("health")
        assert result.text.startswith("health: healthy")
        assert result.value.health is Health.HEALTHY
