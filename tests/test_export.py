"""Tests for long-term retention export (paper §3)."""

import pytest

from repro.core.clock import seconds
from repro.daemon import (
    LoomSink,
    MonitoringDaemon,
    StreamingAggregator,
    export_range,
    iter_archive,
    read_archive,
)
from repro.workloads import events, latency_stream


@pytest.fixture
def populated_daemon():
    daemon = MonitoringDaemon()
    daemon.enable_source("syscall", events.SRC_SYSCALL)
    daemon.enable_source("app", events.SRC_APP)
    from repro.workloads import merge_streams

    syscalls = latency_stream(1000, 4.0, seed=1)
    app = latency_stream(
        500, 4.0, source_id=events.SRC_APP, kind=events.OP_GET, seed=2
    )
    daemon.replay(list(merge_streams([syscalls, app])))
    yield daemon
    daemon.close()


class TestExportRange:
    def test_roundtrip_all_sources(self, populated_daemon, tmp_path):
        daemon = populated_daemon
        path = str(tmp_path / "archive.loom.gz")
        t_range = (0, daemon.clock.now())
        info = export_range(
            daemon.loom, [events.SRC_SYSCALL, events.SRC_APP], t_range, path
        )
        assert info.record_count == daemon.loom.total_records
        read_info, rows = read_archive(path)
        assert read_info == info
        assert len(rows) == info.record_count

    def test_time_window_restricts_export(self, populated_daemon, tmp_path):
        daemon = populated_daemon
        path = str(tmp_path / "window.loom.gz")
        window = (seconds(1), seconds(2))
        info = export_range(daemon.loom, [events.SRC_SYSCALL], window, path)
        _, rows = read_archive(path)
        assert all(window[0] <= ts <= window[1] for _, ts, _ in rows)
        assert all(sid == events.SRC_SYSCALL for sid, _, _ in rows)
        expected = len(daemon.loom.scan(events.SRC_SYSCALL, window).records)
        assert info.record_count == expected > 0

    def test_records_oldest_first_per_source(self, populated_daemon, tmp_path):
        daemon = populated_daemon
        path = str(tmp_path / "ordered.loom.gz")
        export_range(daemon.loom, [events.SRC_SYSCALL], (0, daemon.clock.now()), path)
        _, rows = read_archive(path)
        timestamps = [ts for _, ts, _ in rows]
        assert timestamps == sorted(timestamps)

    def test_payloads_preserved_exactly(self, populated_daemon, tmp_path):
        daemon = populated_daemon
        path = str(tmp_path / "payloads.loom.gz")
        t_range = (0, daemon.clock.now())
        export_range(daemon.loom, [events.SRC_APP], t_range, path)
        _, rows = read_archive(path)
        original = {
            r.timestamp: r.payload
            for r in daemon.loom.scan(events.SRC_APP, t_range).records
        }
        for _, ts, payload in rows:
            assert original[ts] == payload

    def test_iter_archive_streams(self, populated_daemon, tmp_path):
        daemon = populated_daemon
        path = str(tmp_path / "stream.loom.gz")
        info = export_range(
            daemon.loom, [events.SRC_SYSCALL], (0, daemon.clock.now()), path
        )
        assert sum(1 for _ in iter_archive(path)) == info.record_count

    def test_bad_magic_rejected(self, tmp_path):
        import gzip

        path = str(tmp_path / "bogus.gz")
        with gzip.open(path, "wb") as f:
            f.write(b"NOTLOOM!")
        with pytest.raises(ValueError):
            read_archive(path)

    def test_export_does_not_block_ingest(self, populated_daemon, tmp_path):
        """Export reads through a snapshot: pushes during/after export are
        unaffected and invisible to the archive."""
        daemon = populated_daemon
        snap = daemon.loom.snapshot()
        before = daemon.loom.total_records
        daemon.receive("app", events.pack_latency(9, 1.0, events.OP_GET))
        path = str(tmp_path / "snap.loom.gz")
        info = export_range(
            daemon.loom, [events.SRC_APP], (0, daemon.clock.now()),
            path, snapshot=snap,
        )
        app_before = before - 4000  # syscall records
        assert info.record_count == app_before
        assert daemon.loom.total_records == before + 1


class TestFrontEndSink:
    """Paper §8: streaming aggregation discards; a Loom sink retains."""

    def _spec(self):
        from repro.core import HistogramSpec

        return HistogramSpec([5.0, 20.0, 80.0, 320.0])

    def test_aggregator_histograms_match(self):
        from repro.core import Loom, LoomConfig, VirtualClock

        loom = Loom(LoomConfig(chunk_size=2048), clock=VirtualClock())
        sink = LoomSink(loom, events.SRC_SYSCALL, events.latency_value, self._spec())
        plain = StreamingAggregator(spec=self._spec(), value_of=events.latency_value)
        stream = latency_stream(2000, 2.0, seed=5)
        for t, _, payload in stream:
            loom.clock.set(max(t, loom.clock.now()))
            sink.observe(payload)
            plain.observe(payload)
        assert sink.histogram() == plain.histogram()
        assert sink.events_seen == plain.events_seen == len(stream)
        loom.close()

    def test_only_sink_can_drill_down(self):
        from repro.core import Loom, LoomConfig, VirtualClock

        loom = Loom(LoomConfig(chunk_size=2048), clock=VirtualClock())
        sink = LoomSink(loom, events.SRC_SYSCALL, events.latency_value, self._spec())
        plain = StreamingAggregator(spec=self._spec(), value_of=events.latency_value)
        stream = latency_stream(2000, 2.0, sigma=1.2, seed=6)
        for t, _, payload in stream:
            loom.clock.set(max(t, loom.clock.now()))
            sink.observe(payload)
            plain.observe(payload)
        # The suspicious bucket: the high outlier bin.
        outlier_bin = self._spec().high_outlier_bin
        expected = sink.histogram().get(outlier_bin, 0)
        assert expected > 0
        # Status quo front-end: nothing to investigate.
        assert plain.drill_down(outlier_bin) == []
        # Loom sink: the raw events behind the bucket.
        records = sink.drill_down(outlier_bin)
        assert len(records) == expected
        assert all(
            events.latency_value(r.payload) >= 320.0 for r in records
        )
        loom.close()
