"""Tests for the scan operators (paper §4.3): raw_scan and indexed_scan
against naive reference implementations."""

import pytest

from repro.core import QueryStats
from repro.core.operators import indexed_scan, raw_scan

from conftest import payload_value


def reference_filter(values, timestamps, t_range, v_range=None):
    """Naive (index-free) reference: which (value, ts) pairs qualify."""
    out = []
    for value, ts in zip(values, timestamps):
        if not t_range[0] <= ts <= t_range[1]:
            continue
        if v_range is not None and not v_range[0] <= value <= v_range[1]:
            continue
        out.append((value, ts))
    return out


class TestRawScan:
    def test_full_range_returns_everything_newest_first(self, indexed_loom):
        loom, sid, _, values, timestamps = indexed_loom
        records = loom.scan(sid, (0, timestamps[-1])).records
        assert len(records) == len(values)
        got = [payload_value(r.payload) for r in records]
        assert got == list(reversed(values))

    def test_time_window(self, indexed_loom):
        loom, sid, _, values, timestamps = indexed_loom
        t_range = (timestamps[500], timestamps[700])
        records = loom.scan(sid, t_range).records
        expected = reference_filter(values, timestamps, t_range)
        assert len(records) == len(expected) == 201

    def test_empty_window(self, indexed_loom):
        loom, sid, _, _, timestamps = indexed_loom
        between = timestamps[10] + 1  # no record exactly here
        assert loom.scan(sid, (between, between)).records == []

    def test_inverted_window(self, indexed_loom):
        loom, sid, _, _, timestamps = indexed_loom
        assert loom.scan(sid, (timestamps[700], timestamps[500])).records == []

    def test_window_in_future(self, indexed_loom):
        loom, sid, _, _, timestamps = indexed_loom
        future = timestamps[-1] + 10**12
        assert loom.scan(sid, (future, future + 1000)).records == []

    def test_func_form_streams(self, indexed_loom):
        loom, sid, _, values, timestamps = indexed_loom
        seen = []
        result = loom.scan(
            sid, (0, timestamps[-1]), func=lambda r: seen.append(r)
        ).records
        assert result is None
        assert len(seen) == len(values)

    def test_time_index_bounds_scanning(self, indexed_loom):
        """The timestamp index must let a recent-window scan avoid walking
        the whole history (this is Figure 16's 'time index' effect)."""
        loom, sid, _, values, timestamps = indexed_loom
        t_range = (timestamps[-50], timestamps[-1])
        assert loom.scan(sid, t_range).stats.used_time_index
        # Old-window query: without the index hint, it starts at the tail.
        t_old = (timestamps[0], timestamps[50])
        old_stats = QueryStats()
        snap = loom.snapshot()
        list(raw_scan(snap, sid, t_old[0], t_old[1], stats=old_stats))
        no_index = QueryStats()
        list(
            raw_scan(
                snap, sid, t_old[0], t_old[1], stats=no_index, use_time_index=False
            )
        )
        assert old_stats.records_scanned < no_index.records_scanned
        assert no_index.records_scanned >= len(values) - 51


class TestIndexedScan:
    @pytest.mark.parametrize(
        "v_range",
        [(10.0, 100.0), (0.0, 1.0), (1000.0, float("inf")), (20.0, 20.0)],
    )
    def test_matches_reference(self, indexed_loom, v_range):
        loom, sid, index_id, values, timestamps = indexed_loom
        t_range = (timestamps[300], timestamps[1500])
        records = loom.scan_indexed(sid, index_id, t_range, v_range).records
        expected = reference_filter(values, timestamps, t_range, v_range)
        got = sorted(payload_value(r.payload) for r in records)
        assert got == sorted(v for v, _ in expected)

    def test_results_in_arrival_order(self, indexed_loom):
        loom, sid, index_id, values, timestamps = indexed_loom
        records = loom.scan_indexed(
            sid, index_id, (0, timestamps[-1]), (0.0, float("inf"))
        ).records
        addresses = [r.address for r in records]
        assert addresses == sorted(addresses)
        assert len(records) == len(values)

    def test_includes_active_chunk_data(self, indexed_loom, clock):
        """Recent records not yet covered by a finalized summary must still
        be found (the paper's unindexed in-memory scan)."""
        loom, sid, index_id, values, timestamps = indexed_loom
        from conftest import value_payload

        loom.push(sid, value_payload(7777.0))
        loom.sync()
        records = loom.scan_indexed(
            sid, index_id, (0, clock.now()), (7777.0, 7777.0)
        ).records
        assert len(records) == 1

    def test_skips_chunks_via_bins(self, indexed_loom):
        """Chunks with no records in the queried bins are never scanned —
        the zone-map effect that Figure 16's chunk index provides."""
        loom, sid, index_id, values, timestamps = indexed_loom
        t_range = (0, timestamps[-1])
        # Rare high values: most chunks should be skipped.
        rare = [v for v in values if v >= 1000.0]
        result = loom.scan_indexed(sid, index_id, t_range, (1000.0, float("inf")))
        stats = result.stats
        assert len(result.records) == len(rare)
        assert stats.chunks_skipped > stats.chunks_scanned
        assert stats.records_scanned < len(values)

    def test_no_chunk_index_scans_everything_in_window(self, indexed_loom):
        loom, sid, index_id, values, timestamps = indexed_loom
        snap = loom.snapshot()
        index = loom.record_log.get_index(index_id)
        with_idx, without_idx = QueryStats(), QueryStats()
        a = list(
            indexed_scan(
                snap, sid, index, 0, timestamps[-1], 1000.0, float("inf"),
                stats=with_idx,
            )
        )
        b = list(
            indexed_scan(
                snap, sid, index, 0, timestamps[-1], 1000.0, float("inf"),
                stats=without_idx, use_chunk_index=False,
            )
        )
        assert [r.address for r in a] == [r.address for r in b]
        assert without_idx.records_scanned > with_idx.records_scanned

    def test_wrong_source_for_index_rejected(self, indexed_loom):
        loom, sid, index_id, _, timestamps = indexed_loom
        loom.define_source(99)
        from repro.core.errors import LoomError

        with pytest.raises(LoomError):
            loom.scan_indexed(99, index_id, (0, timestamps[-1]))

    def test_unknown_index_rejected(self, indexed_loom):
        loom, sid, _, _, timestamps = indexed_loom
        from repro.core.errors import UnknownIndexError

        with pytest.raises(UnknownIndexError):
            loom.scan_indexed(sid, 424242, (0, timestamps[-1]))

    def test_multi_source_isolation(self, loom, clock):
        """Records from other sources interleaved in the same chunks must
        never leak into a source's scan results."""
        from conftest import value_payload
        from repro.core import HistogramSpec

        loom.define_source(1)
        loom.define_source(2)
        i1 = loom.define_index(1, payload_value, HistogramSpec([10.0]))
        for i in range(200):
            loom.push(1, value_payload(float(i % 30)))
            loom.push(2, value_payload(999.0))
            clock.advance(50)
        loom.sync()
        records = loom.scan_indexed(1, i1, (0, clock.now()), (0.0, float("inf"))).records
        assert len(records) == 200
        assert all(r.source_id == 1 for r in records)
