"""The compressed cold tier: archive codec, migration, retention, and the
unified tiered-storage surface.

ACCEPTANCE scenarios for the tiered-storage API:

* the archive codec round-trips chunk regions *byte-identically* (framing
  and CRCs are deterministic functions of the columns), and its columnar
  encoder and decoder agree byte for byte with the per-record scalar
  oracles, including on the inputs that force the scalar fallback;
* migrating finalized chunks into the archive changes no query answer,
  and the cold read path decompresses only the chunks a query actually
  needs (counter-backed: summary-only aggregates decompress nothing);
* a zero-copy scan view that outlives a migration pass raises a typed
  :class:`StaleViewError` naming the borrow site, and a rescan after the
  migration returns byte-identical records;
* retention (drop and downsample) makes retired data invisible while
  downsampled summaries keep distributive aggregates exact;
* a data directory with an archive reopens to the same answers, and the
  typed ``check_data_dir`` report covers all eight files.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.archive import (
    FLAG_TRANSPOSED,
    _unpack_varints,
    decode_chunk_columns,
    decode_chunk_region,
    encode_chunk_streams,
    encode_chunk_streams_scalar,
    iter_region_records,
)
from repro.core.chunk_index import STATE_SUMMARY_ONLY
from repro.core.clock import VirtualClock
from repro.core.config import LoomConfig, RetentionPolicy, TierConfig
from repro.core.errors import AddressError, LoomError, StaleViewError
from repro.core.hybridlog import NULL_ADDRESS
from repro.core.loom import Loom
from repro.core.operators import QueryStats
from repro.core.record import HEADER_SIZE, encode_record, frame_columns
from repro.core.record_log import RecordLog
from repro.core.recovery import check_data_dir, fsck

_VALUE = struct.Struct("<d")
EDGES = [0.0, 25.0, 50.0, 75.0, 100.0]
ALL_TIME = (0, 2**62)


def _payload(value, pad=40):
    return _VALUE.pack(float(value)) + b"\x00" * pad


def _index_func(payload):
    return _VALUE.unpack_from(payload)[0]


def _tiered_config(tmp_path=None, **overrides):
    kwargs = dict(
        chunk_size=2048,
        record_block_size=4096,
        timestamp_interval=4,
        tier=TierConfig(migrate_high_watermark=4, migrate_low_watermark=1),
    )
    if tmp_path is not None:
        kwargs["data_dir"] = str(tmp_path)
    kwargs.update(overrides)
    return LoomConfig(**kwargs)


def _fill(loom, clock, count=600, sources=(1, 2)):
    """Push ``count`` float records round-robin over ``sources``."""
    index_ids = {}
    for sid in sources:
        loom.define_source(sid)
        index_ids[sid] = loom.define_index(sid, _index_func, EDGES)
    for i in range(count):
        sid = sources[i % len(sources)]
        loom.push(sid, _payload(i % 100))
        clock.advance(10)
    loom.sync()
    return index_ids


def _columns_rows(columns):
    """Per-record ``(address, sid, ts, prev, payload)`` of decoded columns."""
    return [
        (
            columns.start + int(columns.offsets[i]),
            int(columns.source_ids[i]),
            int(columns.timestamps[i]),
            int(columns.prev_addrs[i]),
            bytes(columns.payload_view(i)),
        )
        for i in range(len(columns))
    ]


def _region_rows(region, start_addr):
    """The same rows walked from a framed region (the scalar side)."""
    base = start_addr - HEADER_SIZE
    return [
        (address, sid, ts, prev, region[address - base : address - base + length])
        for address, sid, ts, prev, length in iter_region_records(
            region, start_addr
        )
    ]


# ----------------------------------------------------------------------
# Codec: byte-identical round trips
# ----------------------------------------------------------------------
class TestCodec:
    def _roundtrip(self, region, start_addr=0):
        """Round-trip ``region`` through both codecs: the columnar encoder
        must emit the scalar oracle's exact streams, and the columnar
        decode must hold the scalar decode's records and re-frame to the
        original bytes."""
        streams = encode_chunk_streams(region, start_addr)
        assert streams == encode_chunk_streams_scalar(region, start_addr)
        header, blob, count, flags = streams
        rebuilt = decode_chunk_region(
            header, blob, start_addr, count, len(region), flags
        )
        assert rebuilt == region
        columns = decode_chunk_columns(
            header, blob, start_addr, count, len(region), flags
        )
        assert _columns_rows(columns) == _region_rows(region, start_addr)
        assert frame_columns(columns) == region
        return header, blob

    def test_uniform_records_round_trip(self):
        region = b"".join(
            encode_record(7, 1_000 + 10 * i, NULL_ADDRESS if i == 0 else 28 * (i - 1), b"")
            for i in range(5)
        )
        self._roundtrip(region)

    def test_mixed_sources_and_payload_sizes(self):
        region = b""
        prev = {1: NULL_ADDRESS, 2: NULL_ADDRESS}
        ts = 5_000
        for i in range(40):
            sid = 1 + (i % 2)
            payload = bytes([i % 251]) * (i % 17)
            addr = len(region)
            region += encode_record(sid, ts, prev[sid], payload)
            prev[sid] = addr
            ts += (i * 37) % 113  # non-monotone deltas exercise zigzag
        self._roundtrip(region, start_addr=123 * 28)

    def test_empty_payloads_and_null_prevs(self):
        region = b"".join(
            encode_record(i + 1, 99, NULL_ADDRESS, b"") for i in range(8)
        )
        self._roundtrip(region)

    def test_fixed_width_payloads_transpose(self):
        region = b""
        for i in range(16):
            region += encode_record(3, 10 * i, NULL_ADDRESS, _VALUE.pack(float(i)))
        _header, _blob = self._roundtrip(region)
        assert encode_chunk_streams(region, 0)[3] & FLAG_TRANSPOSED

    def test_single_record_chunk(self):
        self._roundtrip(encode_record(5, 2**61, NULL_ADDRESS, b"only"), 4096)

    def test_out_of_range_inputs_fall_back_to_scalar(self):
        """Timestamps >= 2**62 leave the columnar encoder's range and a
        delta of delta over 63 bits leaves the columnar decoder's: both
        fall back to the scalar codec, still byte for byte."""
        region = b""
        for i, ts in enumerate((0, 2**64 - 1, 3, 2**63)):
            region += encode_record(1, ts, NULL_ADDRESS, bytes([i]) * i)
        header, _blob = self._roundtrip(region)
        assert _unpack_varints(header, 1 + 4 * 4, 0) is None

    def test_compression_beats_raw_on_telemetry_shapes(self):
        import zlib

        region = b""
        prev = NULL_ADDRESS
        for i in range(64):
            addr = len(region)
            region += encode_record(1, 1_000_000 + 250 * i, prev, _payload(i % 8))
            prev = addr
        header, blob, _count, _flags = encode_chunk_streams(region, 0)
        compressed = len(zlib.compress(header, 6)) + len(zlib.compress(blob, 6))
        assert compressed * 4 <= len(region)


#: Timestamp shapes: monotone telemetry clocks, arbitrary (non-monotone)
#: values inside the columnar range, and values at or above 2**62 that
#: force the scalar fallback on both sides of the codec.
_timestamps = st.one_of(
    st.integers(0, 2**40).flatmap(
        lambda base: st.lists(st.integers(0, 1000), min_size=1, max_size=40).map(
            lambda steps: [base + sum(steps[: i + 1]) for i in range(len(steps))]
        )
    ),
    st.lists(st.integers(0, 2**62 - 1), min_size=1, max_size=40),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40),
)


@st.composite
def _chunk_regions(draw):
    """A framed chunk region: mixed sources and payload widths (or one
    shared width, which transposes), zero-length payloads, chained and
    NULL back-pointers."""
    timestamps = draw(_timestamps)
    n = len(timestamps)
    sids = draw(
        st.lists(
            st.sampled_from([0, 1, 7, 2**32 - 1]), min_size=n, max_size=n
        )
    )
    width = draw(st.one_of(st.none(), st.integers(0, 24)))
    payloads = [
        draw(st.binary(min_size=width, max_size=width))
        if width is not None
        else draw(st.binary(max_size=40))
        for _ in range(n)
    ]
    start_addr = draw(st.integers(0, 2**40))
    region = b""
    heads = {}
    for sid, ts, payload in zip(sids, timestamps, payloads):
        prev = heads.get(sid, NULL_ADDRESS) if draw(st.booleans()) else NULL_ADDRESS
        heads[sid] = start_addr + len(region)
        region += encode_record(sid, ts, prev, payload)
    return region, start_addr


class TestColumnarCodec:
    """The vectorized chunk codec against the per-record scalar oracles."""

    @settings(max_examples=150, deadline=None)
    @given(_chunk_regions())
    def test_columnar_codec_matches_scalar_oracles(self, drawn):
        region, start_addr = drawn
        streams = encode_chunk_streams(region, start_addr)
        assert streams == encode_chunk_streams_scalar(region, start_addr)
        header, blob, count, flags = streams
        columns = decode_chunk_columns(
            header, blob, start_addr, count, len(region), flags
        )
        rebuilt = decode_chunk_region(
            header, blob, start_addr, count, len(region), flags
        )
        assert rebuilt == region
        assert _columns_rows(columns) == _region_rows(rebuilt, start_addr)
        assert frame_columns(columns) == region

    def test_count_and_length_mismatches_raise_corruption(self):
        from repro.core.errors import CorruptionError

        region = b"".join(
            encode_record(1, i, NULL_ADDRESS, b"ab") for i in range(4)
        )
        header, blob, count, flags = encode_chunk_streams(region, 64)
        with pytest.raises(CorruptionError) as exc_info:
            decode_chunk_columns(header, blob, 64, count + 1, len(region), flags)
        assert exc_info.value.address == 64
        with pytest.raises(CorruptionError):
            decode_chunk_columns(header, blob, 64, count, len(region) + 1, flags)
        with pytest.raises(CorruptionError):
            decode_chunk_columns(header, blob[:-1], 64, count, len(region), flags)

    def test_cached_cold_columns_are_read_only(self):
        """Cold columns are cached and shared across queries: neither the
        cached chunk nor a slice served by region_columns is writable."""
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        log = loom.record_log
        entry = log.archive.entries()[0]
        cached = log.archive.read_chunk_bytes(entry.chunk_id)
        assert log.archive.read_chunk_bytes(entry.chunk_id) is cached
        sliced = log.region_columns(
            entry.start_addr + int(cached.offsets[1]), entry.end_addr
        )
        for columns in (cached, sliced):
            assert isinstance(columns.buffer, bytes)
            for array in (
                columns.source_ids,
                columns.timestamps,
                columns.prev_addrs,
                columns.lengths,
                columns.offsets,
                columns.payload_starts,
            ):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
        assert _columns_rows(sliced) == _columns_rows(cached)[1:]
        loom.close()

    def test_concurrent_cold_reads_get_their_own_records(self):
        """Reader threads share the chunk cache and the cold-record memo:
        with a short switch interval, every thread hopping between chunks
        in its own random order still gets exactly the record at the
        address it asked for."""
        import random
        import sys
        import threading

        clock = VirtualClock(1_000)
        loom = Loom(
            _tiered_config(
                tier=TierConfig(auto_migrate=False, cache_chunks=2)
            ),
            clock=clock,
        )
        _fill(loom, clock)
        loom.migrate(force=True)
        log = loom.record_log
        expected = {
            r.address: (r.source_id, r.timestamp, r.prev_addr, bytes(r.payload))
            for r in log.iter_records_between(0, log.cold_boundary)
        }
        addresses = sorted(expected)
        errors = []

        def reader(seed):
            order = addresses * 4
            random.Random(seed).shuffle(order)
            for address in order:
                r = log.read_record(address)
                got = (r.source_id, r.timestamp, r.prev_addr, bytes(r.payload))
                if r.address != address or got != expected[address]:
                    errors.append(address)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(k,)) for k in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        loom.close()

    def test_cold_region_spanning_chunks_and_boundary(self):
        """A region from the archive across the cold boundary into the
        hot log decodes to the same rows as the byte-level iterator."""
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        log = loom.record_log
        start = log.archive.entries()[1].start_addr
        end = log.log.watermark
        assert start < log.cold_boundary < end
        columns = log.region_columns(start, end)
        expected = [
            (r.address, r.source_id, r.timestamp, r.prev_addr, bytes(r.payload))
            for r in log.iter_records_between(start, end)
        ]
        assert _columns_rows(columns) == expected
        assert np.all(np.diff(columns.addresses) > 0)
        loom.close()


# ----------------------------------------------------------------------
# Migration: answers unchanged, reads stay targeted
# ----------------------------------------------------------------------
class TestMigration:
    def test_migration_preserves_every_answer(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        index_ids = _fill(loom, clock)
        before_scan = [
            (r.address, r.timestamp, bytes(r.payload))
            for r in loom.scan(1, ALL_TIME).records
        ]
        before_sum = loom.aggregate(1, index_ids[1], ALL_TIME, "sum").value
        before_p90 = loom.aggregate(
            1, index_ids[1], ALL_TIME, "percentile", percentile=90.0
        ).value

        report = loom.migrate(force=True)
        assert report.chunks_migrated > 0
        assert report.compressed_bytes < report.raw_bytes
        assert loom.record_log.cold_boundary == report.cold_boundary > 0

        after_scan = [
            (r.address, r.timestamp, bytes(r.payload))
            for r in loom.scan(1, ALL_TIME).records
        ]
        assert after_scan == before_scan
        assert loom.aggregate(1, index_ids[1], ALL_TIME, "sum").value == before_sum
        assert (
            loom.aggregate(
                1, index_ids[1], ALL_TIME, "percentile", percentile=90.0
            ).value
            == before_p90
        )
        loom.close()

    def test_summary_only_aggregate_decompresses_nothing(self):
        """The cold tier's "summaries first" guarantee, counter-backed: a
        whole-range distributive aggregate over migrated data answers
        from resident summaries with zero archive decompressions."""
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        index_ids = _fill(loom, clock)
        loom.migrate(force=True)
        assert loom.record_log.cold_boundary > 0

        snapshot = loom.snapshot()
        stats = QueryStats()
        from repro.core.operators import indexed_aggregate

        index = loom.record_log.get_index(index_ids[1])
        agg = indexed_aggregate(
            snapshot, 1, index, 0, clock.now(), "count", stats=stats
        )
        assert agg.count == 300
        assert stats.cold_chunks_decompressed == 0

    def test_windowed_percentile_decompresses_only_target_chunks(self):
        """A percentile over a narrow cold window touches only the chunks
        overlapping that window — not the whole archive."""
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        index_ids = _fill(loom, clock)
        loom.migrate(force=True)
        archive = loom.record_log.archive
        total_chunks = archive.chunk_count
        assert total_chunks >= 8

        snapshot = loom.snapshot()
        stats = QueryStats()
        from repro.core.operators import indexed_aggregate

        index = loom.record_log.get_index(index_ids[1])
        # A window around one-tenth of ingested time, deep in the cold zone.
        t_mid = 1_000 + 600  # ~60 records in
        agg = indexed_aggregate(
            snapshot, 1, index, t_mid, t_mid + 500, "percentile",
            percentile=50.0, stats=stats,
        )
        assert agg.value is not None
        assert 0 < stats.cold_chunks_decompressed < total_chunks
        loom.close()

    def test_cold_reads_hit_the_decompression_cache(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        boundary = loom.record_log.cold_boundary
        stats = QueryStats()
        first = loom.record_log.read_record(0, stats)
        again = loom.record_log.read_record(0, QueryStats())
        assert bytes(first.payload) == bytes(again.payload)
        assert stats.cold_chunks_decompressed == 1
        assert boundary > 0
        loom.close()

    def test_migration_is_idempotent_without_new_chunks(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        first = loom.migrate(force=True)
        second = loom.migrate(force=True)
        assert second.chunks_migrated == 0
        assert second.cold_boundary == first.cold_boundary
        loom.close()


# ----------------------------------------------------------------------
# Zero-copy views racing migration
# ----------------------------------------------------------------------
class TestViewsAcrossMigration:
    def test_migration_poisons_outstanding_scan_view(self, tmp_path):
        """ACCEPTANCE: a copy=False scan view taken before a migration
        pass is poisoned when the hot prefix is recycled under it —
        touching it raises StaleViewError naming the borrow site — and a
        rescan after the migration is byte-identical to the answer the
        view-based scan produced before it."""
        from repro.core import viewguard

        viewguard.activate()
        try:
            cfg = _tiered_config(
                tmp_path, tier=TierConfig(migrate_high_watermark=64, auto_migrate=False)
            )
            clock = VirtualClock(1_000)
            log = RecordLog(cfg, clock=clock)
            log.define_source(1)
            for i in range(600):
                log.push(1, _payload(i % 100))
                clock.advance(10)
            log.sync()
            # The mmap view tier serves only the fully persisted prefix;
            # pick the last chunk boundary below the persisted tail.
            persisted = log.log._storage.size
            scan_end = max(
                (
                    log.chunk_index.get(i).end_addr
                    for i in range(len(log.chunk_index))
                    if log.chunk_index.get(i).end_addr <= persisted
                ),
                default=0,
            )
            assert scan_end > 0
            records = list(log.iter_records_between(0, scan_end, copy=False))
            assert records
            before = [
                (r.address, r.timestamp, bytes(r.payload)) for r in records
            ]
            payload_view = records[0].payload

            report = log.migrate(force=True)
            assert report.chunks_migrated > 0

            with pytest.raises(StaleViewError) as exc_info:
                bytes(payload_view)
            assert exc_info.value.borrow_site is not None
            assert "iter_records_between" in exc_info.value.borrow_site

            after = [
                (r.address, r.timestamp, bytes(r.payload))
                for r in log.iter_records_between(0, scan_end)
            ]
            assert after == before
            log.close()
        finally:
            viewguard.deactivate()


# ----------------------------------------------------------------------
# Retention
# ----------------------------------------------------------------------
class TestRetention:
    def _loom_with_horizon(self, mode, keep_every=2, tmp_path=None):
        cfg = _tiered_config(
            tmp_path,
            retention=RetentionPolicy(
                horizon_ns=2_000, mode=mode, keep_every=keep_every
            ),
        )
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        index_ids = _fill(loom, clock)
        loom.migrate(force=True)
        return loom, clock, index_ids

    def test_drop_makes_old_data_invisible(self):
        loom, clock, index_ids = self._loom_with_horizon("drop")
        total_before = loom.aggregate(1, index_ids[1], ALL_TIME, "count").value
        report = loom.apply_retention()
        assert report.floor_addr > 0
        assert report.dropped_chunk_ids and not report.kept_chunk_ids
        after = loom.aggregate(1, index_ids[1], ALL_TIME, "count").value
        assert after < total_before
        # Retired addresses read as typed errors, not garbage.
        with pytest.raises(AddressError):
            loom.record_log.read_record(0)
        loom.close()

    def test_downsample_keeps_summary_aggregates_exact(self):
        loom, clock, index_ids = self._loom_with_horizon("downsample")
        before_count = loom.aggregate(1, index_ids[1], ALL_TIME, "count").value
        report = loom.apply_retention()
        assert report.kept_chunk_ids and report.dropped_chunk_ids
        index = loom.record_log.chunk_index
        # Dropped chunks' summaries are unreachable; kept ones answer.
        for cid in report.dropped_chunk_ids:
            assert index.summary_for_chunk(cid) is None
        dropped_source_1 = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for summary in index.iter_persisted():
                if summary.chunk_id in report.dropped_chunk_ids:
                    info = summary.source_info(1)
                    dropped_source_1 += info.record_count if info else 0
        # The exact whole-range count = pre-retention count minus only the
        # records in fully dropped chunks (summary-only records still fold
        # in via their resident bins).
        after_count = loom.aggregate(1, index_ids[1], ALL_TIME, "count").value
        assert after_count == before_count - dropped_source_1
        # Scanning into the retired range degrades instead of erroring.
        stats_result = loom.scan(1, (0, 1_000 + 600))
        assert stats_result.stats.degraded
        loom.close()

    def test_retention_floor_is_monotone_across_passes(self):
        loom, clock, index_ids = self._loom_with_horizon("downsample")
        first = loom.apply_retention()
        for i in range(300):
            loom.push(1, _payload(i % 100))
            clock.advance(10)
        loom.sync()
        loom.migrate(force=True)
        second = loom.apply_retention()
        assert second.floor_addr >= first.floor_addr
        # Chunks kept by the first pass are not demoted by the second.
        kept_then = set(first.kept_chunk_ids)
        index = loom.record_log.chunk_index
        for cid in kept_then:
            assert index.state_for_chunk(cid) == STATE_SUMMARY_ONLY
        loom.close()

    def test_retention_requires_policy(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock, count=50)
        with pytest.raises(LoomError):
            loom.apply_retention()
        loom.close()


# ----------------------------------------------------------------------
# Reopen / recovery with an archive
# ----------------------------------------------------------------------
class TestReopenWithArchive:
    def test_reopen_restores_cold_boundary_and_answers(self, tmp_path):
        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        boundary = loom.record_log.cold_boundary
        assert boundary > 0
        before = [
            (r.address, r.timestamp, bytes(r.payload))
            for r in loom.scan(1, ALL_TIME).records
        ]
        loom.close()

        reopened = Loom.open(cfg, clock=VirtualClock(10**7))
        assert reopened.record_log.cold_boundary == boundary
        after = [
            (r.address, r.timestamp, bytes(r.payload))
            for r in reopened.scan(1, ALL_TIME).records
        ]
        assert after == before
        reopened.close()

    def test_reopen_after_retention_restores_floor(self, tmp_path):
        cfg = _tiered_config(
            tmp_path,
            retention=RetentionPolicy(horizon_ns=2_000, mode="downsample", keep_every=2),
        )
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        report = loom.apply_retention()
        assert report.floor_addr > 0
        before = loom.scan(1, ALL_TIME)
        assert before.stats.degraded  # range reaches into dropped history
        before_records = [
            (r.address, r.timestamp, bytes(r.payload)) for r in before.records
        ]
        loom.close()

        reopened = Loom.open(cfg, clock=VirtualClock(10**7))
        assert reopened.record_log.retention_floor == report.floor_addr
        # Recovery reconstructs the same keep/drop decision per chunk.
        index = reopened.record_log.chunk_index
        for cid in report.kept_chunk_ids:
            assert index.state_for_chunk(cid) == STATE_SUMMARY_ONLY
        # Dropped chunks are not resident after recovery: their summaries
        # are unreachable, so no query path can route to them.
        for cid in report.dropped_chunk_ids:
            assert index.summary_for_chunk(cid) is None
        after = reopened.scan(1, ALL_TIME)
        assert after.stats.degraded
        after_records = [
            (r.address, r.timestamp, bytes(r.payload)) for r in after.records
        ]
        assert after_records == before_records
        # The recovered log keeps ingesting.
        reopened.define_source(1)
        addr = reopened.record_log.push(1, _payload(7.0))
        assert addr >= report.floor_addr
        reopened.close()

    def test_check_data_dir_reports_all_tiers(self, tmp_path):
        cfg = _tiered_config(
            tmp_path,
            retention=RetentionPolicy(horizon_ns=2_000, mode="drop"),
        )
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        loom.apply_retention()
        loom.close()

        report = check_data_dir(str(tmp_path))
        assert report.ok
        labels = {check.label for check in report.logs}
        assert "archive log" in labels
        state = report.state
        assert state is not None
        assert state.archived_chunks > 0
        assert state.retired_chunks > 0
        assert state.recycled_upto > 0
        assert state.retention_floor > 0
        assert state.archive_compressed_bytes < state.archive_raw_bytes

    def test_fsck_shim_warns_and_delegates(self, tmp_path):
        cfg = _tiered_config(tmp_path)
        clock = VirtualClock(1_000)
        loom = Loom(cfg, clock=clock)
        _fill(loom, clock, count=100)
        loom.close()
        with pytest.warns(DeprecationWarning, match="check_data_dir"):
            state = fsck(str(tmp_path))
        assert state.total_records == 100


# ----------------------------------------------------------------------
# Config and facade surface
# ----------------------------------------------------------------------
class TestTieredSurface:
    def test_flat_config_kwargs_warn_and_fold(self):
        with pytest.warns(DeprecationWarning, match="TierConfig"):
            cfg = LoomConfig(archive_enabled=True)
        assert cfg.tier is not None

    def test_flat_retention_kwargs_warn_and_fold(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = LoomConfig(
                archive_enabled=True,
                retention_horizon_ns=10_000,
                retention_downsample=3,
            )
        messages = [str(w.message) for w in caught]
        assert any("RetentionPolicy" in m for m in messages)
        assert cfg.retention is not None
        assert cfg.retention.mode == "downsample"
        assert cfg.retention.keep_every == 3

    def test_retention_requires_tier(self):
        with pytest.raises(ValueError, match="tier"):
            LoomConfig(retention=RetentionPolicy(horizon_ns=1))

    def test_footprint_reports_per_tier_bytes(self):
        clock = VirtualClock(1_000)
        loom = Loom(
            _tiered_config(tier=TierConfig(auto_migrate=False)), clock=clock
        )
        _fill(loom, clock)
        pre = loom.footprint()
        assert pre["hot_bytes"] == pre["record_log_bytes"]
        assert pre["cold_bytes_compressed"] == 0
        loom.migrate(force=True)
        post = loom.footprint()
        assert post["recycled_upto"] > 0
        assert post["hot_bytes"] == post["record_log_bytes"] - post["recycled_upto"]
        assert 0 < post["cold_bytes_compressed"] < post["cold_bytes_raw"]
        assert post["archived_chunks"] > 0
        loom.close()

    def test_footprint_without_tier_keeps_zero_cold_keys(self):
        loom = Loom(LoomConfig(), clock=VirtualClock())
        loom.define_source(1)
        loom.push(1, b"x")
        fp = loom.footprint()
        assert fp["cold_bytes_raw"] == 0
        assert fp["archived_chunks"] == 0
        assert fp["retention_floor"] == 0
        loom.close()

    def test_migration_metrics_exported(self):
        clock = VirtualClock(1_000)
        loom = Loom(_tiered_config(), clock=clock)
        _fill(loom, clock)
        loom.migrate(force=True)
        snapshot = loom.metrics.snapshot()
        migrated = snapshot.get("loom.archive.chunks_migrated_total")
        ratio = snapshot.get("loom.archive.compression_ratio")
        assert migrated is not None and migrated.value > 0
        assert ratio is not None and ratio.value > 1.0
        loom.close()
