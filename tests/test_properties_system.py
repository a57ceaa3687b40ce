"""System-level property tests: recovery faithfulness and snapshot
isolation under randomized operation interleavings."""


from hypothesis import given, settings, strategies as st

from repro.core import HistogramSpec, Loom, LoomConfig, VirtualClock
from repro.core.recovery import recover, scan_persisted_records
from repro.core.storage import MemoryStorage

from conftest import payload_value, value_payload

SETTINGS = settings(max_examples=25, deadline=None)

OPS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),  # source id
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),  # value
    ),
    min_size=1,
    max_size=150,
)


class TestRecoveryRoundtrip:
    @SETTINGS
    @given(ops=OPS, chunk_size=st.integers(min_value=64, max_value=1024))
    def test_recovered_state_matches_ingested(self, ops, chunk_size):
        """After a clean close, recovery from the persisted logs must
        reproduce exactly what was pushed: counts, order, payloads."""
        record_storage = MemoryStorage()
        clock = VirtualClock()
        loom = Loom(
            LoomConfig(chunk_size=chunk_size, record_block_size=512),
            clock=clock,
        )
        # Swap the record log's backend so we can inspect it post-close.
        loom.record_log.log._storage = record_storage
        for sid in (1, 2, 3):
            loom.define_source(sid)
        for sid, value in ops:
            loom.push(sid, value_payload(value))
            clock.advance(17)
        loom.close()

        state = recover(record_storage)
        assert state.total_records == len(ops)
        per_source = {}
        for sid, _ in ops:
            per_source[sid] = per_source.get(sid, 0) + 1
        for sid, count in per_source.items():
            assert state.sources[sid].record_count == count
        recovered = [
            (r.source_id, payload_value(r.payload))
            for r in scan_persisted_records(record_storage)
        ]
        assert recovered == [(sid, v) for sid, v in ops]

    @SETTINGS
    @given(ops=OPS)
    def test_crash_recovery_is_a_prefix(self, ops):
        """Without close(), whatever is recoverable must be a strict
        prefix of what was ingested — never reordered, never invented."""
        record_storage = MemoryStorage()
        clock = VirtualClock()
        loom = Loom(
            LoomConfig(chunk_size=128, record_block_size=256), clock=clock
        )
        loom.record_log.log._storage = record_storage
        for sid in (1, 2, 3):
            loom.define_source(sid)
        for sid, value in ops:
            loom.push(sid, value_payload(value))
            clock.advance(13)
        # No close: the staged blocks are "lost".
        recovered = [
            (r.source_id, payload_value(r.payload))
            for r in scan_persisted_records(record_storage)
        ]
        assert recovered == [(sid, v) for sid, v in ops][: len(recovered)]


class TestSnapshotIsolationProperty:
    @SETTINGS
    @given(
        batches=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                min_size=1,
                max_size=30,
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_snapshots_pin_prefix_counts(self, batches):
        """Take a snapshot between every batch of pushes; each snapshot
        must forever answer with exactly the records pushed before it."""
        clock = VirtualClock()
        loom = Loom(
            LoomConfig(chunk_size=256, record_block_size=512), clock=clock
        )
        loom.define_source(1)
        index_id = loom.define_index(1, payload_value, HistogramSpec([100.0]))
        snapshots = []
        prefix_counts = []
        total = 0
        for batch in batches:
            for value in batch:
                loom.push(1, value_payload(value))
                clock.advance(11)
            loom.sync()
            total += len(batch)
            snapshots.append(loom.snapshot())
            prefix_counts.append(total)
        t_range = (0, 2**62)
        for snap, expected in zip(snapshots, prefix_counts):
            result = loom.aggregate(
                1, index_id, t_range, "count", snapshot=snap
            )
            assert int(result.value or 0) == expected
        loom.close()
