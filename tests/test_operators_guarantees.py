"""Cross-cutting guarantee tests: the §4.5 consistency/completeness
contracts exercised through realistic multi-phase usage."""

import numpy as np
import pytest

from repro.core.clock import seconds
from repro.daemon import MonitoringDaemon
from repro.workloads import RedisCaseStudy, events, latency_stream



class TestQueryEquivalence:
    """Every operator path must agree with every other on shared data."""

    @pytest.fixture(scope="class")
    def loaded(self):
        daemon = MonitoringDaemon()
        daemon.enable_source("syscall", events.SRC_SYSCALL)
        daemon.add_index(
            "syscall", "latency", events.latency_value,
            [2.0, 8.0, 32.0, 128.0],
        )
        stream = latency_stream(2000, 8.0, sigma=1.0, seed=77)
        daemon.replay(stream)
        return daemon, stream

    def test_raw_scan_vs_indexed_scan_full_range(self, loaded):
        daemon, stream = loaded
        t_range = (0, daemon.clock.now())
        index_id = daemon.index_id("syscall", "latency")
        raw = daemon.loom.scan(events.SRC_SYSCALL, t_range).records
        indexed = daemon.loom.scan_indexed(events.SRC_SYSCALL, index_id, t_range).records
        assert {r.address for r in raw} == {r.address for r in indexed}

    def test_aggregate_vs_scan_consistency(self, loaded):
        daemon, stream = loaded
        t_range = (seconds(2), seconds(6))
        index_id = daemon.index_id("syscall", "latency")
        records = daemon.loom.scan_indexed(events.SRC_SYSCALL, index_id, t_range).records
        values = [events.latency_value(r.payload) for r in records]
        for method, expected in (
            ("count", float(len(values))),
            ("min", min(values)),
            ("max", max(values)),
            ("sum", sum(values)),
        ):
            result = daemon.loom.aggregate(
                events.SRC_SYSCALL, index_id, t_range, method
            )
            assert result.value == pytest.approx(expected)

    def test_percentile_vs_full_materialization(self, loaded):
        daemon, stream = loaded
        t_range = (seconds(1), seconds(7))
        index_id = daemon.index_id("syscall", "latency")
        records = daemon.loom.scan(events.SRC_SYSCALL, t_range).records
        values = [events.latency_value(r.payload) for r in records]
        for p in (1.0, 25.0, 50.0, 75.0, 99.0, 99.99):
            result = daemon.loom.aggregate(
                events.SRC_SYSCALL, index_id, t_range, "percentile", percentile=p
            )
            assert result.value == float(
                np.percentile(values, p, method="inverted_cdf")
            )

    def test_adjacent_windows_partition_exactly(self, loaded):
        """Counts over [a, b) + [b, c) must equal the count over [a, c)
        — no double counting or gaps at window boundaries."""
        daemon, stream = loaded
        index_id = daemon.index_id("syscall", "latency")
        a, b, c = seconds(1), seconds(4), seconds(7)
        left = daemon.loom.aggregate(
            events.SRC_SYSCALL, index_id, (a, b - 1), "count"
        ).value or 0
        right = daemon.loom.aggregate(
            events.SRC_SYSCALL, index_id, (b, c), "count"
        ).value or 0
        whole = daemon.loom.aggregate(
            events.SRC_SYSCALL, index_id, (a, c), "count"
        ).value or 0
        assert left + right == whole


class TestEndToEndCompleteness:
    def test_multi_phase_case_study_is_lossless(self):
        """The Figure 11 contract through the full daemon path: every
        generated record is ingested, queryable, and correctly sourced."""
        workload = RedisCaseStudy(scale=2e-4, phase_duration_s=5.0, seed=55)
        daemon = MonitoringDaemon()
        for name, sid in (("app", events.SRC_APP),
                          ("syscall", events.SRC_SYSCALL),
                          ("packet", events.SRC_PACKET)):
            daemon.enable_source(name, sid)
        expected = {}
        total = 0
        for phase in workload.generate_all():
            daemon.replay(phase.records)
            total += phase.record_count
            for _, sid, _ in phase.records:
                expected[sid] = expected.get(sid, 0) + 1
        assert daemon.loom.total_records == total
        t_all = (0, daemon.clock.now())
        for sid, count in expected.items():
            assert len(daemon.loom.scan(sid, t_all).records) == count
        daemon.close()
