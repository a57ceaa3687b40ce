"""Tests for the analysis helpers: stats, composed queries, correlation,
and report formatting."""

import numpy as np
import pytest

from repro.analysis import (
    cdf_target_bin,
    correlate_windows,
    drill_down,
    format_table,
    merge_histograms,
    nearest_rank_percentile,
    ratio,
    records_above_percentile,
    summarize,
)

from conftest import payload_value


class TestStats:
    def test_nearest_rank_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = list(rng.random(503) * 1000)
        for p in (0.0, 25.0, 50.0, 99.0, 100.0):
            assert nearest_rank_percentile(values, p) == float(
                np.percentile(values, p, method="inverted_cdf")
            )

    def test_nearest_rank_validation(self):
        with pytest.raises(ValueError):
            nearest_rank_percentile([], 50.0)
        with pytest.raises(ValueError):
            nearest_rank_percentile([1.0], 101.0)

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["count"] == 3.0
        assert s["mean"] == 2.0
        assert summarize([])["count"] == 0.0

    def test_merge_histograms(self):
        merged = merge_histograms([{0: 1, 2: 3}, {2: 2, 5: 1}])
        assert merged == {0: 1, 2: 5, 5: 1}

    def test_cdf_target_bin(self):
        counts = {0: 10, 1: 80, 2: 10}
        bin_idx, rank, before = cdf_target_bin(counts, 50.0)
        assert bin_idx == 1
        assert rank == 50
        assert before == 10
        assert cdf_target_bin(counts, 0.0)[0] == 0
        assert cdf_target_bin(counts, 100.0)[0] == 2
        with pytest.raises(ValueError):
            cdf_target_bin({}, 50.0)


class TestComposedQueries:
    def test_records_above_percentile(self, indexed_loom):
        loom, sid, index_id, values, timestamps = indexed_loom
        threshold, records = records_above_percentile(
            loom, sid, index_id, (0, timestamps[-1]), 99.0
        )
        expected_threshold = float(
            np.percentile(values, 99.0, method="inverted_cdf")
        )
        assert threshold == expected_threshold
        expected_count = sum(1 for v in values if v >= expected_threshold)
        assert len(records) == expected_count
        assert all(payload_value(r.payload) >= threshold for r in records)

    def test_records_above_percentile_empty_window(self, indexed_loom):
        loom, sid, index_id, _, timestamps = indexed_loom
        future = timestamps[-1] + 10**12
        threshold, records = records_above_percentile(
            loom, sid, index_id, (future, future + 1), 99.0
        )
        assert threshold is None
        assert records == []

    def test_correlate_windows_finds_neighbours(self, loom, clock):
        loom.define_source(1)
        loom.define_source(2)
        # Source 2 record exactly 500ns before each source-1 anchor.
        anchor_times = [10_000, 20_000, 30_000]
        for t in anchor_times:
            clock.set(t - 500)
            loom.push(2, b"cause")
            clock.set(t)
            loom.push(1, b"anchor")
        loom.sync()
        anchors = loom.scan(1, (0, clock.now())).records
        report = correlate_windows(loom, anchors, 2, 1000, 1000)
        assert report.anchor_count == 3
        assert report.correlated_count == 3
        assert len(report.all_correlates()) == 3

    def test_correlate_windows_predicate_filters(self, loom, clock):
        loom.define_source(1)
        loom.define_source(2)
        clock.set(1000)
        loom.push(2, b"noise")
        clock.set(1100)
        loom.push(1, b"anchor")
        loom.sync()
        anchors = loom.scan(1, (0, clock.now())).records
        report = correlate_windows(
            loom, anchors, 2, 1000, 1000, predicate=lambda r: r.payload != b"noise"
        )
        assert report.correlated_count == 0

    def test_drill_down_composes(self, indexed_loom):
        loom, sid, index_id, values, timestamps = indexed_loom
        loom.define_source(55)
        threshold, report = drill_down(
            loom, sid, index_id, (0, timestamps[-1]), 99.5, 55, 10_000
        )
        assert threshold is not None
        assert report.anchor_count > 0
        assert report.correlated_count == 0  # source 55 has no records


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(
            "Fig X", ["name", "value"], [["loom", 1.5], ["fish", 20.25]]
        )
        lines = text.splitlines()
        assert lines[0] == "== Fig X =="
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_note(self):
        text = format_table("T", ["a"], [[1]], note="simulated")
        assert text.splitlines()[-1] == "note: simulated"

    def test_number_formatting(self):
        text = format_table("T", ["a"], [[123456.0], [0.1234567], [3.14159]])
        assert "123,456" in text
        assert "0.1235" in text
        assert "3.14" in text

    def test_ratio(self):
        assert ratio(10.0, 2.0) == "5.0x"
        assert ratio(1.0, 0.0) == "inf"
