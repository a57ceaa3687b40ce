"""Cold tier: the compressed archive log and the chunk migrator.

At millions of users the record log cannot stay uncompressed forever, yet
Loom's summary-first query model means cold bytes should almost never be
touched: ``indexed_aggregate`` keeps answering from resident chunk
summaries, and only a scan that must materialize raw records from a cold
range pays a decompression.  This module implements that trade
(DESIGN.md §15):

* **Codec** — one archive frame per migrated chunk.  The 28-byte record
  headers are split into columns (source ids, delta-of-delta zigzag
  timestamps, back-pointer deltas, payload lengths), varint-packed and
  zlib-compressed; payloads are concatenated into a separate blob,
  byte-transposed when every record in the chunk has the same payload
  width (a shuffle filter: fixed-width telemetry payloads compress far
  better column-of-bytes-wise), and zlib-compressed.  Both directions
  are columnar (array operations, no per-record Python); the per-record
  encoder and decoder stay as byte-identity oracles and as the fallback
  for inputs outside the vectorized range.
* **Columns-first reads** — a cache miss decodes a chunk straight into
  read-only query columns plus its payload blob
  (:func:`decode_chunk_columns`); cold ``region_columns`` slices them
  and cold record reads index into them.  The frame's stored
  ``crc32(streams)``, re-checked on every miss, is what protects cold
  bytes.  The byte-identical region, record CRCs included, is rebuilt
  (:func:`~repro.core.record.frame_columns`) only for callers that need
  bytes (:meth:`ArchiveLog.read_range`).
* **Archive log** — an append-only file of CRC-framed entries with the
  same sidecar frame-journal scheme as the hot logs.  ``DATA`` frames
  carry one compressed chunk; a ``RECYCLE`` frame *ratifies* all data
  frames before it and advances the recycled boundary (the hot prefix
  below it may be reclaimed); ``RETIRE`` frames persist retention
  decisions.  A crash between data frames and their recycle frame leaves
  an unratified suffix that reopen truncates: the hot chunk stays
  authoritative, nothing is lost or duplicated.
* **Migrator** — moves finalized, fully persisted chunks into the
  archive with watermark hysteresis, then routes the hot-prefix recycle
  through the storage poison hooks so outstanding zero-copy views fail
  with a typed :class:`~repro.core.errors.StaleViewError` instead of
  reading recompressed bytes.

Reader-path discipline: decompressed chunk reads are reachable from
query threads (``RecordLog.read_record`` is a loomlint LOOM101 reader
root), so this module's read side takes no locks — the chunk cache uses
only GIL-atomic dict and deque operations and tolerates racy evictions.
"""

from __future__ import annotations

import struct
import threading
import zlib
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import AddressError, CorruptionError
from .hybridlog import FRAME_ENTRY
from .metrics import Counter
from .record import (
    BODY_DTYPE,
    BODY_SIZE,
    HEADER_SIZE,
    RegionColumns,
    decode_header,
    encode_record,
    frame_columns,
    record_offsets,
)
from .storage import Storage

if TYPE_CHECKING:  # avoid an import cycle: record_log imports this module
    from .config import TierConfig
    from .operators import QueryStats
    from .record_log import RecordLog

__all__ = [
    "ArchiveLog",
    "ArchiveEntry",
    "ArchiveScan",
    "ChunkMigrator",
    "MigrationReport",
    "RetentionReport",
    "encode_chunk_streams",
    "encode_chunk_streams_scalar",
    "decode_chunk_columns",
    "decode_chunk_region",
    "iter_region_records",
    "read_archive_entry",
    "read_frame_streams",
]

#: Archive frame header: kind, flags, a, b, c, record_count, raw_len,
#: header_stream_len, payload_stream_len, crc32(streams).  Field meaning
#: by kind — DATA: a=chunk_id, b=start_addr, c=end_addr; RECYCLE:
#: b=recycled_upto; RETIRE: flags=mode, a=keep_every, b=floor_addr.
FRAME_HEADER = struct.Struct("<IIQQQIIIII")

KIND_DATA = 1
KIND_RECYCLE = 2
KIND_RETIRE = 3

#: DATA flag: the payload blob was byte-transposed before compression.
FLAG_TRANSPOSED = 1

RETIRE_DROP = 1
RETIRE_DOWNSAMPLE = 2

_RETIRE_MODES = {"drop": RETIRE_DROP, "downsample": RETIRE_DOWNSAMPLE}
_RETIRE_NAMES = {RETIRE_DROP: "drop", RETIRE_DOWNSAMPLE: "downsample"}

_NULL = 0xFFFF_FFFF_FFFF_FFFF
_U32_MAX = 0xFFFF_FFFF
#: The columnar encoder computes delta-of-deltas in int64; timestamps at
#: or above this bound go to the scalar encoder.
_TS_LIMIT = 1 << 62


# ----------------------------------------------------------------------
# varint / zigzag primitives
# ----------------------------------------------------------------------
def _put_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _get_varint(data: bytes, pos: int) -> Tuple[int, int]:
    value = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# ----------------------------------------------------------------------
# Chunk codec
# ----------------------------------------------------------------------
def iter_region_records(
    region: bytes, start_addr: int
) -> Iterator[Tuple[int, int, int, int, int]]:
    """Walk a raw chunk region, yielding per-record header columns.

    Yields ``(address, source_id, timestamp, prev_addr, payload_len)``
    for each record; raises :class:`CorruptionError` if the records do
    not tile the region exactly.
    """
    offset = 0
    size = len(region)
    while offset < size:
        if offset + HEADER_SIZE > size:
            raise CorruptionError(
                "record header straddles the chunk region end",
                address=start_addr + offset,
            )
        source_id, timestamp, prev_addr, length = decode_header(region, offset)
        if offset + HEADER_SIZE + length > size:
            raise CorruptionError(
                "record payload straddles the chunk region end",
                address=start_addr + offset,
            )
        yield start_addr + offset, source_id, timestamp, prev_addr, length
        offset += HEADER_SIZE + length


def encode_chunk_streams_scalar(
    region: bytes, start_addr: int
) -> Tuple[bytes, bytes, int, int]:
    """Per-record reference encoder: the byte-identity oracle of
    :func:`encode_chunk_streams`, and its fallback for inputs outside
    the vectorized range (timestamps at or above 2**62, varints over 63
    bits, regions whose records do not tile)."""
    sids: List[int] = []
    timestamps: List[int] = []
    prev_deltas: List[int] = []
    lengths: List[int] = []
    payloads: List[bytes] = []
    for address, sid, timestamp, prev_addr, length in iter_region_records(
        region, start_addr
    ):
        sids.append(sid)
        timestamps.append(timestamp)
        prev_deltas.append(0 if prev_addr == _NULL else address - prev_addr)
        lengths.append(length)
        offset = address - start_addr + HEADER_SIZE
        payloads.append(region[offset : offset + length])

    stream = bytearray()
    count = len(sids)
    _put_varint(stream, count)
    for sid in sids:
        _put_varint(stream, sid)
    prev_ts = 0
    prev_delta = 0
    for i, timestamp in enumerate(timestamps):
        if i == 0:
            _put_varint(stream, timestamp)
        else:
            delta = timestamp - prev_ts
            _put_varint(stream, _zigzag(delta - prev_delta))
            prev_delta = delta
        prev_ts = timestamp
    for back in prev_deltas:
        _put_varint(stream, back)
    for length in lengths:
        _put_varint(stream, length)

    blob = b"".join(payloads)
    flags = 0
    if count > 0 and lengths[0] > 0 and all(n == lengths[0] for n in lengths):
        width = lengths[0]
        blob = (
            np.frombuffer(blob, dtype=np.uint8)
            .reshape(count, width)
            .T.tobytes()
        )
        flags |= FLAG_TRANSPOSED
    return bytes(stream), blob, count, flags


def encode_chunk_streams(
    region: bytes, start_addr: int
) -> Tuple[bytes, bytes, int, int]:
    """Split a chunk region into compressible column streams.

    Returns ``(header_stream, payload_blob, record_count, flags)``, both
    streams uncompressed.  The header stream packs, per column: source
    ids (varint), timestamps (first absolute, then delta-of-delta zigzag
    varints), back pointers (0 for NULL, else the positive distance
    ``address - prev_addr``), and payload lengths (varint).  When every
    payload has the same non-zero width the blob is byte-transposed
    (``FLAG_TRANSPOSED``) so same-position bytes of consecutive records
    become runs.

    Columnar: the headers are gathered into one structured array, then
    zigzag, delta-of-delta and varint packing are array operations.  The
    streams are byte-identical to :func:`encode_chunk_streams_scalar`'s,
    which serves inputs outside the vectorized range.
    """
    size = len(region)
    if size < HEADER_SIZE:
        return encode_chunk_streams_scalar(region, start_addr)
    offsets = record_offsets(region, size)
    n = len(offsets)
    if int(offsets[-1]) + HEADER_SIZE > size:
        return encode_chunk_streams_scalar(region, start_addr)  # raises
    raw = np.frombuffer(region, np.uint8)
    bodies = (
        raw[(offsets[:, None] + np.arange(BODY_SIZE)).ravel()]
        .view(BODY_DTYPE)
    )
    lengths = bodies["len"].astype(np.uint64)
    timestamps = bodies["ts"]
    prevs = bodies["prev"]
    addresses = offsets.astype(np.uint64) + np.uint64(start_addr)
    chained = prevs != np.uint64(_NULL)
    if (
        int(offsets[-1]) + HEADER_SIZE + int(lengths[-1]) != size
        or int(timestamps.max()) >= _TS_LIMIT
        or bool((prevs[chained] > addresses[chained]).any())
    ):
        return encode_chunk_streams_scalar(region, start_addr)
    ts = timestamps.astype(np.int64)
    dod = np.diff(np.diff(ts), prepend=0)
    zigzag = ((dod << 1) ^ (dod >> 63)).view(np.uint64)
    backs = np.where(chained, addresses - prevs, np.uint64(0))
    # The count and the first (absolute, usually widest) timestamp are
    # packed one by one, so the vector passes stay as short as the
    # widest delta, back distance or length.
    sid_stream = _pack_varints(bodies["sid"].astype(np.uint64))
    rest = _pack_varints(np.concatenate((zigzag, backs, lengths)))
    if sid_stream is None or rest is None:
        return encode_chunk_streams_scalar(region, start_addr)
    stream = bytearray()
    _put_varint(stream, n)
    stream += sid_stream
    _put_varint(stream, int(timestamps[0]))
    stream += rest

    width = int(lengths[0])
    if width > 0 and bool((lengths == np.uint64(width)).all()):
        rows = raw.reshape(n, HEADER_SIZE + width)[:, HEADER_SIZE:]
        return bytes(stream), rows.T.tobytes(), n, FLAG_TRANSPOSED
    # Header and payload byte runs alternate: drop every header run.
    runs = np.empty(2 * n, np.int64)
    runs[0::2] = HEADER_SIZE
    runs[1::2] = lengths
    is_payload = np.repeat(np.tile(np.array([False, True]), n), runs)
    return bytes(stream), raw[is_payload].tobytes(), n, 0


#: ``_VARINT_LIMITS[k]`` is the least value whose varint needs ``k + 2``
#: bytes; the last entry (2**63) is past the columnar codec's range.
_VARINT_LIMITS = np.array([1 << (7 * k) for k in range(1, 10)], np.uint64)


def _pack_varints(values: np.ndarray) -> Optional[bytes]:
    """LEB128-pack a u64 vector; ``None`` if a value needs over 63 bits.

    Byte ``k`` of every varint at least ``k + 1`` bytes long is written
    in one vector step, over the shrinking subset of longer varints.
    """
    widths = np.searchsorted(_VARINT_LIMITS, values, side="right") + 1
    most = int(widths.max())
    if most > 9:
        return None
    ends = np.cumsum(widths)
    out = np.empty(int(ends[-1]), np.uint8)
    at = ends - widths
    for k in range(most):
        more = widths > k + 1
        out[at] = (values & np.uint64(0x7F)).astype(np.uint8) | (
            more.astype(np.uint8) << 7
        )
        at = at[more] + 1
        values = values[more] >> np.uint64(7)
        widths = widths[more]
    return out.tobytes()


def _unpack_varints(stream: bytes, count: int, address: int) -> Optional[np.ndarray]:
    """Decode exactly ``count`` LEB128 varints filling ``stream``, as u64.

    Each terminator byte (high bit clear) ends one varint; the bytes of
    each are shifted into place and summed with one ``reduceat``.
    Returns ``None`` when a varint is over 9 bytes (63 bits): the scalar
    decoder then takes over.
    """
    raw = np.frombuffer(stream, np.uint8)
    ends = np.flatnonzero(raw < 0x80)
    if len(ends) != count or int(ends[-1]) != len(raw) - 1:
        raise CorruptionError(
            f"archive header stream holds {len(ends)} varints, "
            f"expected {count}",
            address=address,
        )
    if len(ends) == len(raw):
        return raw.astype(np.uint64)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    widths = ends - starts + 1
    if int(widths.max()) > 9:
        return None
    shift = (np.arange(len(raw)) - np.repeat(starts, widths)) * 7
    parts = (raw & 0x7F).astype(np.uint64) << shift.astype(np.uint64)
    return np.add.reduceat(parts, starts)


def _decode_header_stream_scalar(
    header_stream: bytes, start_addr: int, record_count: int
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Per-record parse of a header stream into its four columns:
    ``(source_ids, timestamps, back_distances, lengths)``."""
    pos = 0
    count, pos = _get_varint(header_stream, pos)
    if count != record_count:
        raise CorruptionError(
            f"archive frame record count mismatch ({count} != {record_count})",
            address=start_addr,
        )
    sids: List[int] = []
    for _ in range(count):
        sid, pos = _get_varint(header_stream, pos)
        sids.append(sid)
    timestamps: List[int] = []
    prev_ts = 0
    prev_delta = 0
    for i in range(count):
        if i == 0:
            prev_ts, pos = _get_varint(header_stream, pos)
            timestamps.append(prev_ts)
        else:
            dod, pos = _get_varint(header_stream, pos)
            prev_delta += _unzigzag(dod)
            prev_ts += prev_delta
            timestamps.append(prev_ts)
    backs: List[int] = []
    for _ in range(count):
        back, pos = _get_varint(header_stream, pos)
        backs.append(back)
    lengths: List[int] = []
    for _ in range(count):
        length, pos = _get_varint(header_stream, pos)
        lengths.append(length)
    return sids, timestamps, backs, lengths


def _untranspose(payload_blob: bytes, count: int, flags: int) -> bytes:
    """Undo the encoder's byte transpose (``FLAG_TRANSPOSED``), if any."""
    if flags & FLAG_TRANSPOSED and count > 0:
        width = len(payload_blob) // count
        return (
            np.frombuffer(payload_blob, dtype=np.uint8)
            .reshape(width, count)
            .T.tobytes()
        )
    return payload_blob


def decode_chunk_region(
    header_stream: bytes,
    payload_blob: bytes,
    start_addr: int,
    record_count: int,
    raw_len: int,
    flags: int,
) -> bytes:
    """Per-record reference decoder: rebuild the byte-identical original
    chunk region from its streams.

    Re-frames every record through :func:`~repro.core.record.encode_record`
    (framing and CRC are deterministic functions of the columns).  The
    oracle of :func:`decode_chunk_columns` and
    :func:`~repro.core.record.frame_columns`.
    """
    sids, timestamps, backs, lengths = _decode_header_stream_scalar(
        header_stream, start_addr, record_count
    )
    payload_blob = _untranspose(payload_blob, record_count, flags)
    parts: List[bytes] = []
    address = start_addr
    payload_offset = 0
    for i in range(record_count):
        length = lengths[i]
        payload = payload_blob[payload_offset : payload_offset + length]
        payload_offset += length
        prev_addr = _NULL if backs[i] == 0 else address - backs[i]
        encoded = encode_record(sids[i], timestamps[i], prev_addr, payload)
        parts.append(encoded)
        address += len(encoded)
    region = b"".join(parts)
    if len(region) != raw_len:
        raise CorruptionError(
            f"archive frame decoded to {len(region)} bytes, expected {raw_len}",
            address=start_addr,
        )
    return region


def decode_chunk_columns(
    header_stream: bytes,
    payload_blob: bytes,
    start_addr: int,
    record_count: int,
    raw_len: int,
    flags: int,
) -> RegionColumns:
    """Decode a chunk's streams straight into read-only query columns.

    No record is re-framed: varints are unpacked with one ``reduceat``,
    timestamps rebuilt from the delta-of-deltas with two cumsums (exact
    modulo 2**64, so any u64 timestamp survives), back-pointers resolved
    against the offset cumsum, and the payload blob untransposed once.
    The result's ``buffer`` is that blob.  Raises
    :class:`CorruptionError` when the streams disagree with the frame's
    record count or raw length.
    """
    n = record_count
    values = _unpack_varints(header_stream, 1 + 4 * n, start_addr)
    if values is None:
        sids, timestamps, backs, lengths = (
            np.array(column, np.uint64)
            for column in _decode_header_stream_scalar(header_stream, start_addr, n)
        )
    else:
        if int(values[0]) != n:
            raise CorruptionError(
                f"archive frame record count mismatch ({int(values[0])} != {n})",
                address=start_addr,
            )
        sids = values[1 : 1 + n]
        backs = values[1 + 2 * n : 1 + 3 * n]
        lengths = values[1 + 3 * n :]
        timestamps = np.empty(n, np.uint64)
        if n:
            zigzag = values[2 + n : 1 + 2 * n]
            dod = (zigzag >> np.uint64(1)) ^ np.negative(zigzag & np.uint64(1))
            delta = np.cumsum(dod.view(np.int64))
            timestamps[0] = values[1 + n]
            timestamps[1:] = np.cumsum(delta).view(np.uint64) + timestamps[0]
    if n and (int(sids.max()) > _U32_MAX or int(lengths.max()) > _U32_MAX):
        raise CorruptionError(
            "archive header stream holds a source id or length over 32 bits",
            address=start_addr,
        )
    offsets = np.zeros(n, np.int64)
    payload_starts = np.zeros(n, np.int64)
    if n:
        np.cumsum(lengths[:-1].astype(np.int64) + HEADER_SIZE, out=offsets[1:])
        np.cumsum(lengths[:-1].astype(np.int64), out=payload_starts[1:])
    payload_len = int(payload_starts[-1]) + int(lengths[-1]) if n else 0
    if (
        payload_len + HEADER_SIZE * n != raw_len
        or payload_len != len(payload_blob)
        or (flags & FLAG_TRANSPOSED and n and payload_len % n)
    ):
        raise CorruptionError(
            f"archive frame decoded to {payload_len + HEADER_SIZE * n} bytes "
            f"of records and {len(payload_blob)} of payload, expected "
            f"{raw_len} and {payload_len}",
            address=start_addr,
        )
    payload_blob = _untranspose(payload_blob, n, flags)
    addresses = offsets.astype(np.uint64) + np.uint64(start_addr)
    prevs = np.where(backs == 0, np.uint64(_NULL), addresses - backs)
    columns = RegionColumns(
        start=start_addr,
        source_ids=sids.astype(np.uint32),
        timestamps=timestamps,
        prev_addrs=prevs,
        lengths=lengths.astype(np.uint32),
        offsets=offsets,
        payload_starts=payload_starts,
        buffer=payload_blob,
    )
    for array in (
        columns.source_ids,
        columns.timestamps,
        columns.prev_addrs,
        columns.lengths,
        offsets,
        payload_starts,
    ):
        array.flags.writeable = False
    return columns


def read_frame_streams(storage: Storage, entry: "ArchiveEntry") -> Tuple[bytes, bytes]:
    """Read one ``DATA`` frame's streams, verified and inflated.

    Returns ``(header_stream, payload_blob)``.  The frame's stored
    ``crc32(streams)`` is re-checked first: it is what protects cold
    bytes (the original records' CRCs are not stored, only recomputed
    when bytes are rebuilt).  A CRC mismatch or a stream zlib cannot
    inflate raises :class:`CorruptionError` at the chunk's start address.
    """
    streams = bytes(
        storage.read(entry.frame_addr + FRAME_HEADER.size, entry.compressed_len)
    )
    if zlib.crc32(streams) != entry.crc:
        raise CorruptionError(
            f"archived chunk {entry.chunk_id} fails its stream CRC",
            address=entry.start_addr,
        )
    try:
        return (
            zlib.decompress(streams[: entry.header_len]),
            zlib.decompress(streams[entry.header_len :]),
        )
    except zlib.error as exc:
        raise CorruptionError(
            f"archived chunk {entry.chunk_id} does not decompress ({exc})",
            address=entry.start_addr,
        ) from exc


def read_archive_entry(storage: Storage, entry: "ArchiveEntry") -> RegionColumns:
    """Read, verify and decode one ``DATA`` frame into chunk columns
    (:func:`read_frame_streams`, then :func:`decode_chunk_columns`, which
    raises :class:`CorruptionError` when the streams disagree with the
    frame's record count or length)."""
    header_stream, payload_blob = read_frame_streams(storage, entry)
    return decode_chunk_columns(
        header_stream,
        payload_blob,
        entry.start_addr,
        entry.record_count,
        entry.raw_len,
        entry.flags,
    )


# ----------------------------------------------------------------------
# Archive log
# ----------------------------------------------------------------------
class ArchiveEntry:
    """Directory entry for one archived chunk (one ``DATA`` frame)."""

    __slots__ = (
        "chunk_id",
        "start_addr",
        "end_addr",
        "record_count",
        "frame_addr",
        "header_len",
        "payload_len",
        "raw_len",
        "flags",
        "crc",
        "retired",
    )

    def __init__(
        self,
        chunk_id: int,
        start_addr: int,
        end_addr: int,
        record_count: int,
        frame_addr: int,
        header_len: int,
        payload_len: int,
        raw_len: int,
        flags: int,
        crc: int,
    ) -> None:
        self.chunk_id = chunk_id
        self.start_addr = start_addr
        self.end_addr = end_addr
        self.record_count = record_count
        self.frame_addr = frame_addr
        self.header_len = header_len
        self.payload_len = payload_len
        self.raw_len = raw_len
        self.flags = flags
        #: The frame's stored ``crc32(streams)``.
        self.crc = crc
        self.retired = False

    @property
    def compressed_len(self) -> int:
        return self.header_len + self.payload_len


@dataclass
class ArchiveScan:
    """Result of walking an archive log's frames from address zero."""

    entries: List[ArchiveEntry] = field(default_factory=list)
    recycled_upto: int = 0
    retention_floor: int = 0
    retention_mode: int = 0
    retention_keep_every: int = 1
    #: End of the *ratified* prefix: everything past it is an orphaned
    #: suffix (data frames with no covering RECYCLE, or a torn tail) that
    #: reopen truncates — the hot log stays authoritative for it.
    ratified_end: int = 0
    #: End of the last structurally valid frame (>= ratified_end).
    valid_end: int = 0
    findings: List[str] = field(default_factory=list)

    @property
    def orphan_entries(self) -> List[ArchiveEntry]:
        return [e for e in self.entries if e.frame_addr >= self.ratified_end]

    @property
    def ratified_entries(self) -> List[ArchiveEntry]:
        return [e for e in self.entries if e.frame_addr < self.ratified_end]


def scan_archive_frames(storage: Storage) -> ArchiveScan:
    """Walk every self-describing frame; stop at the first torn/corrupt one.

    Pure read — the caller decides whether to truncate the unratified
    suffix (``ArchiveLog.open`` and ``recover`` both do).
    """
    scan = ArchiveScan()
    size = storage.size
    pos = 0
    while pos + FRAME_HEADER.size <= size:
        header = storage.read(pos, FRAME_HEADER.size)
        kind, flags, a, b, c, count, raw_len, hdr_len, pay_len, crc = (
            FRAME_HEADER.unpack(header)
        )
        frame_end = pos + FRAME_HEADER.size + hdr_len + pay_len
        if kind not in (KIND_DATA, KIND_RECYCLE, KIND_RETIRE) or frame_end > size:
            scan.findings.append(
                f"archive: torn or invalid frame at {pos} (kind={kind})"
            )
            break
        if kind == KIND_DATA:
            streams = storage.read(pos + FRAME_HEADER.size, hdr_len + pay_len)
            if zlib.crc32(streams) != crc:
                scan.findings.append(f"archive: stream CRC mismatch at {pos}")
                break
            scan.entries.append(
                ArchiveEntry(
                    chunk_id=a,
                    start_addr=b,
                    end_addr=c,
                    record_count=count,
                    frame_addr=pos,
                    header_len=hdr_len,
                    payload_len=pay_len,
                    raw_len=raw_len,
                    flags=flags,
                    crc=crc,
                )
            )
        elif kind == KIND_RECYCLE:
            scan.recycled_upto = max(scan.recycled_upto, b)
            scan.ratified_end = frame_end
        else:  # KIND_RETIRE
            scan.retention_floor = max(scan.retention_floor, b)
            scan.retention_mode = flags
            scan.retention_keep_every = max(1, a)
            scan.ratified_end = frame_end
        pos = frame_end
    scan.valid_end = pos
    if scan.valid_end > scan.ratified_end:
        scan.findings.append(
            f"archive: {scan.valid_end - scan.ratified_end} unratified bytes "
            f"past {scan.ratified_end} (hot log stays authoritative)"
        )
    for entry in scan.entries:
        if entry.frame_addr < scan.ratified_end:
            entry.retired = entry.start_addr < scan.retention_floor
    return scan


class ArchiveLog:
    """Append-only compressed chunk store with a sidecar frame journal.

    Single-writer (the migrator / retention enforcer); the read side
    (:meth:`read_chunk_bytes`, :meth:`read_range`) is lock-free and may
    be called from any query thread.
    """

    def __init__(
        self,
        storage: Storage,
        journal: Optional[Storage] = None,
        compression_level: int = 6,
        cache_chunks: int = 4,
        decompress_counter: Optional[Counter] = None,
    ) -> None:
        self._storage = storage
        self._journal = journal
        self._level = compression_level
        self._cache_chunks = max(1, cache_chunks)
        self._decompress_counter = decompress_counter
        self._entries: List[ArchiveEntry] = []
        self._starts: List[int] = []
        self._by_chunk: Dict[int, ArchiveEntry] = {}
        #: Decoded chunk columns by chunk id (see :meth:`read_chunk_bytes`).
        self._cache: Dict[int, RegionColumns] = {}
        #: ``(chunk_id, columns)`` in insertion order: the eviction queue.
        self._cache_order: Deque[Tuple[int, RegionColumns]] = deque()
        self.recycled_upto = 0
        self.retention_floor = 0
        self.retention_mode = 0
        self.retention_keep_every = 1
        self.raw_bytes = 0
        self.compressed_bytes = 0
        self.decompressions = 0
        self.repairs: List[str] = []

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def open(
        cls,
        storage: Storage,
        journal: Optional[Storage] = None,
        compression_level: int = 6,
        cache_chunks: int = 4,
        decompress_counter: Optional[Counter] = None,
    ) -> "ArchiveLog":
        """Load an archive log, truncating any unratified suffix.

        Data frames past the last ``RECYCLE``/``RETIRE`` frame were never
        ratified — their chunks are still hot-authoritative — so dropping
        them loses nothing and keeps the append position consistent.
        """
        log = cls(
            storage,
            journal,
            compression_level=compression_level,
            cache_chunks=cache_chunks,
            decompress_counter=decompress_counter,
        )
        scan = scan_archive_frames(storage)
        if storage.size > scan.ratified_end:
            storage.truncate(scan.ratified_end)
            log.repairs.append(
                f"archive: truncated unratified suffix to {scan.ratified_end}"
            )
        if journal is not None:
            _trim_frame_journal(journal, scan.ratified_end)
        log.recycled_upto = scan.recycled_upto
        log.retention_floor = scan.retention_floor
        log.retention_mode = scan.retention_mode
        log.retention_keep_every = scan.retention_keep_every
        for entry in scan.ratified_entries:
            log._admit(entry)
        return log

    def _admit(self, entry: ArchiveEntry) -> None:
        self._entries.append(entry)
        self._starts.append(entry.start_addr)
        self._by_chunk[entry.chunk_id] = entry
        self.raw_bytes += entry.raw_len
        self.compressed_bytes += entry.compressed_len

    def sync(self) -> None:
        self._storage.sync()
        if self._journal is not None:
            self._journal.sync()

    def close(self) -> None:
        self._storage.close()
        if self._journal is not None:
            self._journal.close()

    # -- write side (migrator / retention only) --------------------------
    def _append_frame(
        self,
        kind: int,
        flags: int,
        a: int,
        b: int,
        c: int,
        count: int,
        raw_len: int,
        header_stream: bytes,
        payload_stream: bytes,
    ) -> Tuple[int, int]:
        """Append one frame; returns its address and stream CRC."""
        crc = zlib.crc32(payload_stream, zlib.crc32(header_stream))
        frame = (
            FRAME_HEADER.pack(
                kind,
                flags,
                a,
                b,
                c,
                count,
                raw_len,
                len(header_stream),
                len(payload_stream),
                crc,
            )
            + header_stream
            + payload_stream
        )
        address = self._storage.append(frame)
        if self._journal is not None:
            self._journal.append(
                FRAME_ENTRY.pack(address, len(frame), zlib.crc32(frame))
            )
        return address, crc

    def append_chunk(
        self, chunk_id: int, start_addr: int, end_addr: int, region: bytes
    ) -> ArchiveEntry:
        """Compress and append one chunk region as a ``DATA`` frame."""
        header_stream, payload_blob, count, flags = encode_chunk_streams(
            region, start_addr
        )
        header_comp = zlib.compress(header_stream, self._level)
        payload_comp = zlib.compress(payload_blob, self._level)
        frame_addr, crc = self._append_frame(
            KIND_DATA,
            flags,
            chunk_id,
            start_addr,
            end_addr,
            count,
            len(region),
            header_comp,
            payload_comp,
        )
        entry = ArchiveEntry(
            chunk_id=chunk_id,
            start_addr=start_addr,
            end_addr=end_addr,
            record_count=count,
            frame_addr=frame_addr,
            header_len=len(header_comp),
            payload_len=len(payload_comp),
            raw_len=len(region),
            flags=flags,
            crc=crc,
        )
        self._admit(entry)
        return entry

    def append_recycle(self, upto: int) -> None:
        """Ratify all preceding data frames and persist the boundary."""
        self._append_frame(KIND_RECYCLE, 0, 0, upto, 0, 0, 0, b"", b"")
        self.recycled_upto = max(self.recycled_upto, upto)

    def append_retire(self, floor_addr: int, mode: str, keep_every: int) -> None:
        """Persist a retention decision (monotonic floor advance)."""
        self._append_frame(
            KIND_RETIRE,
            _RETIRE_MODES[mode],
            keep_every,
            floor_addr,
            0,
            0,
            0,
            b"",
            b"",
        )
        self.retention_floor = max(self.retention_floor, floor_addr)
        self.retention_mode = _RETIRE_MODES[mode]
        self.retention_keep_every = keep_every
        for entry in self._entries:
            if entry.start_addr < self.retention_floor:
                entry.retired = True
                self._cache.pop(entry.chunk_id, None)

    # -- read side (lock-free; reachable from query threads) -------------
    @property
    def chunk_count(self) -> int:
        return len(self._entries)

    @property
    def retired_count(self) -> int:
        return sum(1 for entry in self._entries if entry.retired)

    @property
    def size(self) -> int:
        return self._storage.size

    @property
    def journal_size(self) -> int:
        return self._journal.size if self._journal is not None else 0

    @property
    def compression_ratio(self) -> float:
        if self.compressed_bytes == 0:
            return 0.0
        return self.raw_bytes / self.compressed_bytes

    def entries(self) -> List[ArchiveEntry]:
        return list(self._entries)

    def entry_for_chunk(self, chunk_id: int) -> Optional[ArchiveEntry]:
        return self._by_chunk.get(chunk_id)

    def entry_for_address(self, address: int) -> Optional[ArchiveEntry]:
        i = bisect_right(self._starts, address) - 1
        if i < 0:
            return None
        entry = self._entries[i]
        if address >= entry.end_addr:
            return None
        return entry

    def read_chunk_bytes(
        self, chunk_id: int, stats: "Optional[QueryStats]" = None
    ) -> RegionColumns:
        """One archived chunk decoded into read-only columns (cached).

        Despite its name this returns the chunk's decoded
        :class:`~repro.core.record.RegionColumns` — header columns plus
        the untransposed payload blob — not its framed bytes: the
        columns are the cold tier's cache unit, sliced by
        ``RecordLog.region_columns`` and indexed by cold record reads.
        Callers that need the byte-identical region use
        :meth:`read_range`.  The columns live outside the zero-copy
        borrow rules (the blob is an owned buffer), so a later migration
        or retention pass can never invalidate them; they are shared by
        every query that hits the cache, hence read-only.

        On a cache miss the frame's stream CRC is re-checked before the
        chunk is decompressed (see :func:`read_archive_entry`): bit-rot
        raises :class:`CorruptionError`.  ``stats``, when given, receives
        per-query cold-decompression accounting (cache hits do not
        count).
        """
        entry = self._by_chunk.get(chunk_id)
        if entry is None:
            raise AddressError(f"chunk {chunk_id} is not archived")
        if entry.retired:
            raise AddressError(f"chunk {chunk_id} was retired by retention")
        cached = self._cache.get(chunk_id)
        if cached is not None:
            return cached
        columns = read_archive_entry(self._storage, entry)
        self.decompressions += 1
        if stats is not None:
            stats.cold_chunks_decompressed += 1
        if self._decompress_counter is not None:
            self._decompress_counter.inc()
        self._cache[chunk_id] = columns
        order = self._cache_order
        order.append((chunk_id, columns))
        # Evict oldest insertions first without iterating the dict, which
        # a racing reader's insert would break.  Deque ops and
        # ``dict.pop(key, None)`` are GIL-atomic; an entry another reader
        # already replaced or evicted is left alone.  Advisory LRU: a
        # race costs at most a re-decompression.
        while len(order) > self._cache_chunks:
            try:
                victim_id, victim = order.popleft()
            except IndexError:
                break
            if self._cache.get(victim_id) is victim:
                self._cache.pop(victim_id, None)
        return columns

    def read_streams(self, chunk_id: int) -> Tuple[bytes, bytes]:
        """An archived chunk's verified, inflated ``(header_stream,
        payload_blob)``, bypassing the cache: the input of the scalar
        oracle decoder (:func:`decode_chunk_region`)."""
        entry = self._by_chunk.get(chunk_id)
        if entry is None:
            raise AddressError(f"chunk {chunk_id} is not archived")
        return read_frame_streams(self._storage, entry)

    def read_range(
        self, start: int, end: int, stats: "Optional[QueryStats]" = None
    ) -> bytes:
        """Owned bytes for hot-address range ``[start, end)`` from the
        archive: the covering chunks' records re-framed from their cached
        columns (:func:`~repro.core.record.frame_columns`), byte-identical
        to the region that was migrated."""
        if start >= end:
            return b""
        parts: List[bytes] = []
        address = start
        while address < end:
            entry = self.entry_for_address(address)
            if entry is None:
                raise AddressError(
                    f"address {address} is not covered by the archive"
                )
            region = frame_columns(self.read_chunk_bytes(entry.chunk_id, stats))
            lo = address - entry.start_addr
            hi = min(end, entry.end_addr) - entry.start_addr
            parts.append(region[lo:hi])
            address = entry.end_addr
        return b"".join(parts)


def _trim_frame_journal(journal: Storage, data_end: int) -> None:
    """Drop journal entries describing frames past ``data_end`` (plus any
    torn partial entry at the journal tail)."""
    size = journal.size
    whole = size - size % FRAME_ENTRY.size
    keep = whole
    while keep > 0:
        entry = journal.read(keep - FRAME_ENTRY.size, FRAME_ENTRY.size)
        address, length, _ = FRAME_ENTRY.unpack(entry)
        if address + length <= data_end:
            break
        keep -= FRAME_ENTRY.size
    if keep != size:
        journal.truncate(keep)


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MigrationReport:
    """Outcome of one migration pass."""

    chunks_migrated: int
    records_migrated: int
    raw_bytes: int
    compressed_bytes: int
    cold_boundary: int


@dataclass(frozen=True)
class RetentionReport:
    """Outcome of one retention pass."""

    floor_addr: int
    mode: str
    keep_every: int
    dropped_chunk_ids: Tuple[int, ...]
    kept_chunk_ids: Tuple[int, ...]
    records_dropped: int


class ChunkMigrator:
    """Moves finalized, persisted chunks into the archive (hysteresis).

    Commit order per pass (crash-safe; see DESIGN.md §15):

    1. append one ``DATA`` frame per chunk, fsync the archive;
    2. append the ``RECYCLE`` frame advancing the boundary, fsync;
    3. publish the boundary to readers (GIL-atomic store) and recycle
       the hot prefix through the storage poison hooks.

    A crash between 1 and 2 leaves unratified data frames that reopen
    truncates — the hot chunks stay authoritative.  A crash after 2 is
    complete: recovery serves the prefix from the archive.
    """

    def __init__(self, record_log: "RecordLog", tier: "TierConfig") -> None:
        self._record_log = record_log
        self._tier = tier
        self._gate = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def _eligible(self) -> List[Tuple[int, int, int, int]]:
        """Finalized chunks above the cold boundary whose bytes are fully
        persisted: ``(chunk_id, start_addr, end_addr, record_count)``."""
        log = self._record_log
        persisted = log.log.persisted_tail
        boundary = log.cold_boundary
        out: List[Tuple[int, int, int, int]] = []
        for summary in log.chunk_index.finalized_after(boundary):
            if summary.end_addr > persisted:
                break
            out.append(
                (
                    summary.chunk_id,
                    summary.start_addr,
                    summary.end_addr,
                    summary.record_count,
                )
            )
        return out

    def run_once(self, force: bool = False) -> MigrationReport:
        """One migration pass.  ``force`` migrates every eligible chunk;
        otherwise hysteresis applies (high watermark triggers, low
        watermark is the target)."""
        if not self._gate.acquire(blocking=False):
            return MigrationReport(0, 0, 0, 0, self._record_log.cold_boundary)
        try:
            return self._run_locked(force)
        finally:
            self._gate.release()

    def _run_locked(self, force: bool) -> MigrationReport:
        log = self._record_log
        archive = log.archive
        if archive is None:
            return MigrationReport(0, 0, 0, 0, log.cold_boundary)
        eligible = self._eligible()
        if not force:
            if len(eligible) <= self._tier.migrate_high_watermark:
                return MigrationReport(0, 0, 0, 0, log.cold_boundary)
            eligible = eligible[
                : len(eligible) - self._tier.migrate_low_watermark
            ]
        if not eligible:
            return MigrationReport(0, 0, 0, 0, log.cold_boundary)
        records = 0
        raw = 0
        compressed = 0
        for chunk_id, start_addr, end_addr, _count in eligible:
            region = bytes(log.log.read(start_addr, end_addr - start_addr))
            entry = archive.append_chunk(chunk_id, start_addr, end_addr, region)
            records += entry.record_count
            raw += entry.raw_len
            compressed += entry.compressed_len
        archive.sync()
        boundary = eligible[-1][2]
        archive.append_recycle(boundary)
        archive.sync()
        log.commit_migration(boundary)
        log.note_migration(len(eligible), records, raw, compressed)
        return MigrationReport(
            chunks_migrated=len(eligible),
            records_migrated=records,
            raw_bytes=raw,
            compressed_bytes=compressed,
            cold_boundary=boundary,
        )

    # -- optional background thread --------------------------------------
    def start(self, interval_s: float = 0.05) -> None:
        """Run migration passes on a background thread until :meth:`stop`."""
        if self._thread is not None:
            return
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(interval_s):
                self.run_once()

        self._thread = threading.Thread(
            target=_loop, name="loom-migrator", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None


def retire_mode_name(mode: int) -> str:
    return _RETIRE_NAMES.get(mode, "none")
