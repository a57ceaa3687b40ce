"""Tests for the monitoring-daemon substrate (paper Figure 4, §5.3)."""

import pytest

from repro.core import MonotonicClock
from repro.core.errors import LoomError
from repro.daemon import MonitoringDaemon
from repro.workloads import events, latency_stream


class TestSourceManagement:
    def test_enable_and_receive(self):
        with MonitoringDaemon() as daemon:
            daemon.enable_source("app")
            daemon.clock.set(100)
            daemon.receive("app", b"payload")
            daemon.sync()
            handle = daemon.source("app")
            assert handle.records_received == 1
            records = daemon.loom.scan(handle.source_id, (0, 200)).records
            assert len(records) == 1

    def test_auto_assigned_ids_are_unique(self):
        with MonitoringDaemon() as daemon:
            a = daemon.enable_source("a")
            b = daemon.enable_source("b")
            assert a.source_id != b.source_id

    def test_explicit_source_id(self):
        with MonitoringDaemon() as daemon:
            handle = daemon.enable_source("app", source_id=42)
            assert handle.source_id == 42

    def test_duplicate_name_rejected(self):
        with MonitoringDaemon() as daemon:
            daemon.enable_source("app")
            with pytest.raises(LoomError):
                daemon.enable_source("app")

    def test_disable_then_unknown(self):
        with MonitoringDaemon() as daemon:
            daemon.enable_source("app")
            daemon.disable_source("app")
            with pytest.raises(LoomError):
                daemon.source("app")

    def test_source_names(self):
        with MonitoringDaemon() as daemon:
            daemon.enable_source("x")
            daemon.enable_source("y")
            assert set(daemon.source_names()) == {"x", "y"}


class TestIndexLifecycle:
    def test_add_and_query_index(self):
        with MonitoringDaemon() as daemon:
            daemon.enable_source("syscall", events.SRC_SYSCALL)
            daemon.add_index(
                "syscall", "latency", events.latency_value, [10.0, 100.0]
            )
            daemon.replay(latency_stream(2000, 1.0, seed=3))
            index_id = daemon.index_id("syscall", "latency")
            result = daemon.loom.aggregate(
                events.SRC_SYSCALL, index_id, (0, daemon.clock.now()), "count"
            )
            assert result.value == 2000.0

    def test_duplicate_index_name_rejected(self):
        with MonitoringDaemon() as daemon:
            daemon.enable_source("s")
            daemon.add_index("s", "v", events.latency_value, [1.0])
            with pytest.raises(LoomError):
                daemon.add_index("s", "v", events.latency_value, [2.0])

    def test_remove_missing_index(self):
        with MonitoringDaemon() as daemon:
            daemon.enable_source("s")
            with pytest.raises(LoomError):
                daemon.remove_index("s", "nope")

    def test_redefine_index_gets_new_id(self):
        """The §5.3 changing-workload flow: close stale, define fresh."""
        with MonitoringDaemon() as daemon:
            daemon.enable_source("s", events.SRC_SYSCALL)
            old = daemon.add_index("s", "lat", events.latency_value, [10.0])
            new = daemon.redefine_index(
                "s", "lat", events.latency_value, [100.0, 1000.0]
            )
            assert new != old
            assert daemon.index_id("s", "lat") == new


class TestReplay:
    def test_replay_preserves_virtual_timestamps(self):
        with MonitoringDaemon() as daemon:
            daemon.enable_source("syscall", events.SRC_SYSCALL)
            stream = latency_stream(1000, 2.0, seed=5)
            count = daemon.replay(stream)
            assert count == len(stream)
            records = daemon.loom.scan(
                events.SRC_SYSCALL, (0, daemon.clock.now())
            ).records
            got_ts = sorted(r.timestamp for r in records)
            assert got_ts == [t for t, _, _ in stream]

    def test_replay_never_drops(self):
        """Loom's completeness guarantee, via the daemon path."""
        with MonitoringDaemon() as daemon:
            daemon.enable_source("syscall", events.SRC_SYSCALL)
            stream = latency_stream(5000, 1.0, seed=6)
            assert daemon.replay(stream) == 5000
            assert daemon.loom.total_records == 5000

    def test_replay_requires_virtual_clock(self):
        daemon = MonitoringDaemon(clock=MonotonicClock())
        daemon.enable_source("s", 1)
        with pytest.raises(LoomError):
            daemon.replay([(0, 1, b"x")])
        daemon.close()

    def test_replay_tolerates_equal_timestamps(self):
        with MonitoringDaemon() as daemon:
            daemon.enable_source("s", 1)
            daemon.replay([(100, 1, b"a"), (100, 1, b"b"), (100, 1, b"c")])
            assert daemon.loom.total_records == 3
