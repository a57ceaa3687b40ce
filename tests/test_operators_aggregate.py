"""Tests for indexed_aggregate (paper §4.3): distributive aggregates from
bin statistics and exact holistic percentiles via the CDF-over-bins walk."""


import numpy as np
import pytest

from repro.core.errors import LoomError
from repro.core.operators import bin_histogram, indexed_aggregate

from conftest import payload_value, value_payload


def in_window(values, timestamps, t_range):
    return [v for v, t in zip(values, timestamps) if t_range[0] <= t <= t_range[1]]


class TestDistributiveAggregates:
    @pytest.mark.parametrize("method", ["count", "sum", "min", "max", "mean"])
    def test_full_range_matches_reference(self, indexed_loom, method):
        loom, sid, index_id, values, timestamps = indexed_loom
        result = loom.aggregate(sid, index_id, (0, timestamps[-1]), method)
        reference = {
            "count": float(len(values)),
            "sum": sum(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
        }[method]
        assert result.value == pytest.approx(reference)
        assert result.count == len(values)

    @pytest.mark.parametrize("method", ["count", "sum", "min", "max", "mean"])
    def test_partial_window_matches_reference(self, indexed_loom, method):
        loom, sid, index_id, values, timestamps = indexed_loom
        t_range = (timestamps[333], timestamps[1444])
        subset = in_window(values, timestamps, t_range)
        result = loom.aggregate(sid, index_id, t_range, method)
        reference = {
            "count": float(len(subset)),
            "sum": sum(subset),
            "min": min(subset),
            "max": max(subset),
            "mean": sum(subset) / len(subset),
        }[method]
        assert result.value == pytest.approx(reference)

    def test_empty_window_returns_none(self, indexed_loom):
        loom, sid, index_id, _, timestamps = indexed_loom
        future = timestamps[-1] + 10**12
        result = loom.aggregate(sid, index_id, (future, future + 1), "max")
        assert result.value is None
        assert result.count == 0

    def test_aggregation_uses_summaries_not_scans(self, indexed_loom):
        """Chunks fully inside the window must be answered from their bin
        statistics (the Figure 13 fast path)."""
        loom, sid, index_id, values, timestamps = indexed_loom
        result = loom.aggregate(sid, index_id, (0, timestamps[-1]), "max")
        stats = result.stats
        assert stats.summaries_aggregated > 0
        # Only edge chunks and the active region get scanned.
        assert stats.records_scanned < len(values) / 2

    def test_unknown_method_rejected(self, indexed_loom):
        loom, sid, index_id, _, timestamps = indexed_loom
        with pytest.raises(LoomError):
            loom.aggregate(sid, index_id, (0, timestamps[-1]), "median")


class TestPercentiles:
    @pytest.mark.parametrize("percentile", [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0])
    def test_exact_vs_numpy_inverted_cdf(self, indexed_loom, percentile):
        loom, sid, index_id, values, timestamps = indexed_loom
        result = loom.aggregate(
            sid, index_id, (0, timestamps[-1]), "percentile", percentile=percentile
        )
        expected = float(
            np.percentile(values, percentile, method="inverted_cdf")
        )
        assert result.value == pytest.approx(expected, rel=0, abs=0)

    def test_percentile_partial_window(self, indexed_loom):
        loom, sid, index_id, values, timestamps = indexed_loom
        t_range = (timestamps[100], timestamps[1900])
        subset = in_window(values, timestamps, t_range)
        result = loom.aggregate(
            sid, index_id, t_range, "percentile", percentile=95.0
        )
        expected = float(np.percentile(subset, 95.0, method="inverted_cdf"))
        assert result.value == expected

    def test_percentile_scans_only_target_bin_chunks(self, indexed_loom):
        """The CDF walk must identify one bin and scan only chunks with
        records in it — not every chunk."""
        loom, sid, index_id, values, timestamps = indexed_loom
        result = loom.aggregate(
            sid, index_id, (0, timestamps[-1]), "percentile", percentile=99.9
        )
        total_chunks = len(loom.record_log.chunk_index)
        assert result.stats.chunks_scanned < total_chunks

    def test_percentile_requires_valid_argument(self, indexed_loom):
        loom, sid, index_id, _, timestamps = indexed_loom
        with pytest.raises(LoomError):
            loom.aggregate(sid, index_id, (0, timestamps[-1]), "percentile")
        with pytest.raises(LoomError):
            loom.aggregate(
                sid, index_id, (0, timestamps[-1]), "percentile", percentile=101.0
            )

    def test_percentile_empty_window(self, indexed_loom):
        loom, sid, index_id, _, timestamps = indexed_loom
        future = timestamps[-1] + 10**12
        result = loom.aggregate(
            sid, index_id, (future, future + 1), "percentile", percentile=50.0
        )
        assert result.value is None

    def test_single_record(self, loom, clock):
        from repro.core import HistogramSpec

        loom.define_source(1)
        index_id = loom.define_index(1, payload_value, HistogramSpec([10.0]))
        loom.push(1, value_payload(5.0))
        loom.sync()
        for p in (0.0, 50.0, 100.0):
            result = loom.aggregate(
                1, index_id, (0, clock.now()), "percentile", percentile=p
            )
            assert result.value == 5.0

    def test_all_values_in_one_bin(self, loom, clock):
        """Degenerate histogram: everything lands in one outlier bin; the
        percentile must still be exact (pure scan of that bin)."""
        from repro.core import HistogramSpec

        loom.define_source(1)
        index_id = loom.define_index(1, payload_value, HistogramSpec([1e12]))
        values = [float(i) for i in range(100)]
        for v in values:
            loom.push(1, value_payload(v))
            clock.advance(10)
        loom.sync()
        result = loom.aggregate(
            1, index_id, (0, clock.now()), "percentile", percentile=90.0
        )
        assert result.value == float(
            np.percentile(values, 90.0, method="inverted_cdf")
        )


class TestBinHistogram:
    def test_counts_match_reference(self, indexed_loom):
        loom, sid, index_id, values, timestamps = indexed_loom
        snap = loom.snapshot()
        index = loom.record_log.get_index(index_id)
        histogram = bin_histogram(snap, sid, index, 0, timestamps[-1])
        assert sum(histogram.values()) == len(values)
        spec = index.spec
        reference = {}
        for v in values:
            b = spec.bin_of(v)
            reference[b] = reference.get(b, 0) + 1
        assert histogram == reference

    def test_window_restricts_counts(self, indexed_loom):
        loom, sid, index_id, values, timestamps = indexed_loom
        snap = loom.snapshot()
        index = loom.record_log.get_index(index_id)
        t_range = (timestamps[100], timestamps[299])
        histogram = bin_histogram(snap, sid, index, t_range[0], t_range[1])
        assert sum(histogram.values()) == 200
