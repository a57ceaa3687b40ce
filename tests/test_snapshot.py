"""Tests for query snapshots (paper §4.4–4.5): linearization, pinning,
and the consistency guarantee that post-snapshot data is invisible."""


from repro.core import Loom, LoomConfig
from repro.core.hybridlog import NULL_ADDRESS
from repro.core.snapshot import Snapshot

from conftest import payload_value, value_payload


class TestSnapshotCapture:
    def test_snapshot_pins_watermark(self, loom, clock):
        loom.define_source(1)
        for i in range(20):
            loom.push(1, value_payload(float(i)))
            clock.advance(100)
        loom.sync()
        snap = loom.snapshot()
        before = snap.watermark
        loom.push(1, value_payload(99.0))
        loom.sync()
        assert snap.watermark == before
        assert loom.snapshot().watermark > before

    def test_data_after_snapshot_is_invisible(self, loom, clock):
        """Section 4.5: all data that arrived before the snapshot is
        included; data arriving afterwards is not."""
        loom.define_source(1)
        for i in range(10):
            loom.push(1, value_payload(float(i)))
            clock.advance(100)
        loom.sync()
        snap = loom.snapshot()
        for i in range(10, 20):
            loom.push(1, value_payload(float(i)))
            clock.advance(100)
        loom.sync()
        t_range = (0, clock.now())
        old_view = loom.scan(1, t_range, snapshot=snap).records
        live_view = loom.scan(1, t_range).records
        assert len(old_view) == 10
        assert len(live_view) == 20

    def test_chain_head_respects_watermark(self, clock):
        config = LoomConfig(chunk_size=512, publish_interval=100)
        loom = Loom(config, clock=clock)
        loom.define_source(1)
        loom.push(1, b"unpublished")
        snap = loom.snapshot()
        assert snap.chain_head(1) == NULL_ADDRESS
        loom.sync()
        assert loom.snapshot().chain_head(1) == 0
        loom.close()

    def test_unknown_source_chain_head_is_null(self, loom):
        loom.define_source(1)
        snap = loom.snapshot()
        assert snap.chain_head(777) == NULL_ADDRESS

    def test_snapshot_pins_chunk_count(self, loom, clock):
        loom.define_source(1)
        for i in range(200):
            loom.push(1, value_payload(float(i)))
            clock.advance(10)
        loom.sync()
        snap = loom.snapshot()
        pinned = snap.n_chunks
        for i in range(200):
            loom.push(1, value_payload(float(i)))
            clock.advance(10)
        loom.sync()
        assert snap.n_chunks == pinned
        assert loom.snapshot().n_chunks > pinned

    def test_summaries_below_watermark_only(self, clock):
        """A summary whose chunk data reaches past the watermark must not
        be pinned (publication-order safety)."""
        config = LoomConfig(chunk_size=256, publish_interval=1)
        loom = Loom(config, clock=clock)
        loom.define_source(1)
        for i in range(100):
            loom.push(1, value_payload(float(i)))
            clock.advance(10)
        snap = loom.snapshot()
        for pos in range(snap.n_chunks):
            assert loom.record_log.chunk_index.get(pos).end_addr <= snap.watermark
        loom.close()


class TestSnapshotIteration:
    def test_iter_chain_newest_first(self, loom, clock):
        loom.define_source(1)
        for i in range(5):
            loom.push(1, value_payload(float(i)))
            clock.advance(100)
        loom.sync()
        snap = loom.snapshot()
        values = [payload_value(r.payload) for r in snap.iter_chain(1)]
        assert values == [4.0, 3.0, 2.0, 1.0, 0.0]

    def test_iter_chain_with_hint_skips_newer(self, loom, clock):
        loom.define_source(1)
        addresses = []
        for i in range(5):
            addresses.append(loom.push(1, value_payload(float(i))))
            clock.advance(100)
        loom.sync()
        snap = loom.snapshot()
        values = [
            payload_value(r.payload) for r in snap.iter_chain(1, start=addresses[2])
        ]
        assert values == [2.0, 1.0, 0.0]

    def test_iter_region_clamps_to_watermark(self, clock):
        config = LoomConfig(chunk_size=512, publish_interval=3)
        loom = Loom(config, clock=clock)
        loom.define_source(1)
        for i in range(3):
            loom.push(1, value_payload(float(i)))
        snap = loom.snapshot()
        loom.push(1, value_payload(99.0))  # beyond snapshot watermark
        records = list(snap.iter_region(0, loom.record_log.log.tail_address))
        assert len(records) == 3
        loom.close()

    def test_active_region_bounds(self, loom, clock):
        loom.define_source(1)
        for i in range(100):
            loom.push(1, value_payload(float(i)))
            clock.advance(10)
        loom.sync()
        snap = loom.snapshot()
        start, end = snap.active_region()
        assert start <= end == snap.watermark
        if snap.n_chunks:
            assert start == loom.record_log.chunk_index.get(snap.n_chunks - 1).end_addr
