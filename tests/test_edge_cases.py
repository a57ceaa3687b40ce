"""Edge cases across the core: speculative reads, bulk decodes spanning
blocks, queries against empty/closed sources, extreme time ranges, and
large/odd payloads."""

import pytest

from repro.core import (
    HistogramSpec,
    Loom,
    LoomConfig,
)
from repro.core.errors import AddressError
from repro.core.hybridlog import HybridLog

from conftest import payload_value, value_payload


class TestReadUpto:
    def test_clamps_to_tail(self):
        log = HybridLog(block_size=64)
        log.append(b"0123456789")
        assert log.read_upto(0, 100) == b"0123456789"
        assert log.read_upto(5, 100) == b"56789"
        assert log.read_upto(10, 100) == b""

    def test_beyond_tail_raises(self):
        log = HybridLog(block_size=64)
        log.append(b"abc")
        with pytest.raises(AddressError):
            log.read_upto(4, 10)

    def test_spans_storage_and_memory(self):
        log = HybridLog(block_size=8)
        log.append(b"a" * 8)  # flushed
        log.append(b"b" * 4)  # staged
        assert log.read_upto(6, 100) == b"aabbbb"


class TestBulkRegionDecode:
    def test_records_spanning_blocks_decode_correctly(self, clock):
        """Bulk region decode must survive records split across staging
        blocks and across the storage/memory boundary."""
        config = LoomConfig(chunk_size=128, record_block_size=64)
        loom = Loom(config, clock=clock)
        loom.define_source(1)
        payloads = [bytes([i]) * (20 + i % 50) for i in range(60)]
        for p in payloads:
            loom.push(1, p)
            clock.advance(10)
        loom.sync()
        records = list(
            loom.record_log.iter_records_between(0, loom.record_log.log.watermark)
        )
        assert [r.payload for r in records] == payloads
        loom.close()

    def test_payload_larger_than_speculative_read(self, clock):
        """Payloads beyond the inline-read window need the two-step path."""
        config = LoomConfig(chunk_size=4096, record_block_size=8192)
        loom = Loom(config, clock=clock)
        loom.define_source(1)
        big = bytes(range(256)) * 4  # 1024 B > _INLINE_READ_SIZE
        address = loom.push(1, big)
        loom.sync()
        assert loom.record_log.read_record(address).payload == big
        loom.close()


class TestDegenerateQueries:
    def test_scan_source_with_no_records(self, loom):
        loom.define_source(1)
        loom.define_source(2)
        loom.push(2, value_payload(1.0))
        loom.sync()
        assert loom.scan(1, (0, 2**62)).records == []

    def test_indexed_scan_before_any_chunk_finalizes(self, clock):
        """All data in the active chunk: only the unindexed scan runs."""
        config = LoomConfig(chunk_size=1 << 20)  # one giant chunk
        loom = Loom(config, clock=clock)
        loom.define_source(1)
        index_id = loom.define_index(1, payload_value, HistogramSpec([10.0]))
        for i in range(100):
            loom.push(1, value_payload(float(i)))
            clock.advance(10)
        loom.sync()
        result = loom.scan_indexed(
            1, index_id, (0, clock.now()), (50.0, float("inf"))
        )
        stats = result.stats
        assert len(result.records) == 50
        assert stats.summaries_examined == 0  # nothing finalized yet
        loom.close()

    def test_zero_width_time_range_exact_hit(self, indexed_loom):
        loom, sid, index_id, values, timestamps = indexed_loom
        t = timestamps[100]
        records = loom.scan(sid, (t, t)).records
        assert len(records) == 1
        assert records[0].timestamp == t

    def test_huge_time_range(self, indexed_loom):
        loom, sid, index_id, values, _ = indexed_loom
        records = loom.scan_indexed(sid, index_id, (0, 2**62)).records
        assert len(records) == len(values)

    def test_aggregate_on_closed_source_data(self, loom, clock):
        """Closing a source keeps its captured data fully queryable."""
        loom.define_source(1)
        index_id = loom.define_index(1, payload_value, HistogramSpec([10.0]))
        for i in range(50):
            loom.push(1, value_payload(float(i)))
            clock.advance(10)
        loom.sync()
        t_range = (0, clock.now())
        # Closing the source also closes its indexes, so aggregate first.
        before = loom.aggregate(1, index_id, t_range, "max").value
        loom.close_source(1)
        assert loom.scan(1, t_range).records[0].timestamp > 0
        assert before == 49.0

    def test_empty_payload_records(self, loom, clock):
        loom.define_source(1)
        for _ in range(10):
            loom.push(1, b"")
            clock.advance(10)
        loom.sync()
        records = loom.scan(1, (0, clock.now())).records
        assert len(records) == 10
        assert all(r.payload == b"" for r in records)

    def test_identical_timestamps(self, loom):
        """Many records at the same instant (clock does not advance)."""
        loom.define_source(1)
        for i in range(20):
            loom.push(1, value_payload(float(i)))
        loom.sync()
        records = loom.scan(1, (0, 0)).records
        assert len(records) == 20


class TestHistogramExtremes:
    def test_values_at_exact_edges(self, loom, clock):
        loom.define_source(1)
        index_id = loom.define_index(1, payload_value, HistogramSpec([10.0, 20.0]))
        for v in (10.0, 20.0, 9.999999, 19.999999):
            loom.push(1, value_payload(v))
            clock.advance(10)
        loom.sync()
        t_range = (0, clock.now())
        # Closed range [10, 20] must include both edges.
        records = loom.scan_indexed(1, index_id, t_range, (10.0, 20.0)).records
        got = sorted(payload_value(r.payload) for r in records)
        assert got == [10.0, 19.999999, 20.0]

    def test_negative_values(self, loom, clock):
        loom.define_source(1)
        index_id = loom.define_index(1, payload_value, HistogramSpec([0.0, 10.0]))
        values = [-5.0, -0.001, 0.0, 5.0, 15.0]
        for v in values:
            loom.push(1, value_payload(v))
            clock.advance(10)
        loom.sync()
        t_range = (0, clock.now())
        below = loom.scan_indexed(1, index_id, t_range, (float("-inf"), -0.001)).records
        assert sorted(payload_value(r.payload) for r in below) == [-5.0, -0.001]
        result = loom.aggregate(1, index_id, t_range, "min")
        assert result.value == -5.0
