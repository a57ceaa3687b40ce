"""Failure injection: storage faults must surface, never corrupt.

Errors should never pass silently: a failing flush must raise (in sync
mode immediately, in threaded mode on the next append), reads past
injected corruption must raise, and a Loom instance whose storage dies
must refuse further ingest rather than silently dropping data — dropping
is the one thing Loom promises not to do.
"""

import pytest

from repro.core import Loom, LoomConfig
from repro.core.errors import StorageError
from repro.core.hybridlog import HybridLog
from repro.core.storage import MemoryStorage, Storage

pytestmark = pytest.mark.faults


class FailingStorage(Storage):
    """MemoryStorage that starts failing after ``fail_after`` bytes."""

    def __init__(self, fail_after: int) -> None:
        self._inner = MemoryStorage()
        self.fail_after = fail_after
        self.failed = False

    def append(self, data: bytes) -> int:
        if self._inner.size + len(data) > self.fail_after:
            self.failed = True
            raise StorageError("injected: device full")
        return self._inner.append(data)

    def read(self, address: int, length: int) -> bytes:
        return self._inner.read(address, length)

    @property
    def size(self) -> int:
        return self._inner.size

    def close(self) -> None:
        self._inner.close()


class TestHybridLogFaults:
    def test_sync_flush_failure_raises_immediately(self):
        storage = FailingStorage(fail_after=16)
        log = HybridLog(storage=storage, block_size=16)
        log.append(b"x" * 16)  # first block flushes fine
        with pytest.raises(StorageError):
            log.append(b"y" * 16)  # second flush hits the fault
        assert storage.failed

    def test_threaded_flush_failure_surfaces_on_later_append(self):
        storage = FailingStorage(fail_after=16)
        log = HybridLog(storage=storage, block_size=16, threaded_flush=True)
        log.append(b"x" * 16)
        # The async flush of block 2 fails; the error must surface on a
        # subsequent append rather than vanish in the worker thread.
        with pytest.raises(StorageError):
            for _ in range(64):
                log.append(b"y" * 16)

    def test_close_failure_raises(self):
        storage = FailingStorage(fail_after=4)
        log = HybridLog(storage=storage, block_size=64)
        log.append(b"x" * 8)  # staged only
        with pytest.raises(StorageError):
            log.close()

    def test_data_before_fault_remains_readable(self):
        storage = FailingStorage(fail_after=16)
        log = HybridLog(storage=storage, block_size=16)
        log.append(b"a" * 16)
        try:
            log.append(b"b" * 16)
        except StorageError:
            pass
        assert log.read(0, 16) == b"a" * 16


class TestLoomUnderStorageFaults:
    def test_push_raises_not_drops(self, clock):
        """When the record log's storage dies, push must raise — data is
        never silently dropped (the Figure 11 completeness contract)."""
        config = LoomConfig(chunk_size=256, record_block_size=256)
        loom = Loom(config, clock=clock)
        # Swap in a failing backend under the record log.
        loom.record_log.log._storage = FailingStorage(fail_after=512)
        loom.define_source(1)
        pushed = 0
        with pytest.raises(StorageError):
            for i in range(1000):
                loom.push(1, b"p" * 40)
                pushed += 1
        # Everything acknowledged before the fault is still queryable.
        loom.sync()
        records = loom.scan(1, (0, 2**63 - 1)).records
        assert len(records) == pushed

    def test_failed_instance_keeps_failing_loud(self, clock):
        config = LoomConfig(chunk_size=256, record_block_size=128)
        loom = Loom(config, clock=clock)
        loom.record_log.log._storage = FailingStorage(fail_after=128)
        loom.define_source(1)
        with pytest.raises(StorageError):
            for _ in range(100):
                loom.push(1, b"x" * 32)
        with pytest.raises(StorageError):
            for _ in range(100):
                loom.push(1, b"x" * 32)
