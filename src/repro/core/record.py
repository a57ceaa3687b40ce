"""Record encoding for the record log.

Every record Loom ingests is framed with a fixed 28-byte header followed by
the raw payload bytes the monitoring daemon passed to ``push`` (Figure 9).
The header carries everything the read path needs to walk the log, plus an
integrity checksum:

``source_id``  (u32)  which source produced the record;
``timestamp``  (u64)  Loom's internal arrival timestamp in nanoseconds
                      (paper section 5.2 — monotonic, assigned on ingest);
``prev_addr``  (u64)  back-pointer to the previous record from the *same*
                      source (``NULL_ADDRESS`` for the first), forming the
                      per-source record chain of Figure 7;
``length``     (u32)  payload length in bytes;
``crc``        (u32)  CRC-32 (:func:`binascii.crc32`) over the first 24
                      header bytes followed by the payload.  Recovery scans
                      and the optional verify-on-read mode use it to detect
                      bit-rot and torn writes that happen to leave a
                      plausible length field.

(The paper's Rust prototype frames records with a 24-byte header; this
reproduction spends 4 more bytes per record on the checksum as part of its
crash-safety layer.)

Records are stored back to back in the record log; a record's address is
the address of its header's first byte.  Records may span chunk and block
boundaries — a record belongs to the chunk containing its *first* byte.
"""

from __future__ import annotations

import struct
from binascii import crc32
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .hybridlog import NULL_ADDRESS

_BODY = struct.Struct("<IQQI")
_HEADER = struct.Struct("<IQQII")
_CRC = struct.Struct("<I")
#: The 4-byte length field at offset 20 of a record header (sid u32 +
#: ts u64 + prev u64 precede it); used by the region offset walk, which
#: needs lengths without decoding whole headers.
_LEN_FIELD = struct.Struct("<I")

#: Size in bytes of the fixed record header (body + checksum).
HEADER_SIZE = _HEADER.size  # 28

#: Size in bytes of the checksummed part of the header (everything but
#: the trailing CRC field itself).
BODY_SIZE = _BODY.size  # 24

#: Columnar view of the 24-byte header body.  The fields are naturally
#: aligned at packed offsets, so the dtype's itemsize is exactly
#: ``BODY_SIZE`` and a structured array of bodies is the frame bytes.
BODY_DTYPE = np.dtype(
    [("sid", "<u4"), ("ts", "<u8"), ("prev", "<u8"), ("len", "<u4")]
)
assert BODY_DTYPE.itemsize == BODY_SIZE

#: Byte range of the header body that varies *within* one batch: records
#: of a batch share ``source_id`` and ``timestamp``, so only ``prev_addr``
#: (bytes 12..20) and ``length`` (bytes 20..24) differ record to record.
_VARYING_START = 12


def _build_crc_tables() -> List[np.ndarray]:
    """Per-u16-lane CRC difference tables for the varying body bytes.

    CRC-32 is affine over GF(2): for fixed-length messages,
    ``crc(m) = crc(base) ^ XOR_i T_i[m_i ^ base_i]`` where ``T_i[v]`` is the
    CRC difference caused by byte ``i`` being ``v`` instead of 0.  Bytes
    12..23 are paired into six little-endian u16 lanes so the batched body
    CRC costs six table gathers and five XORs instead of a per-record
    ``crc32`` call over each 24-byte body.
    """
    c_zero = crc32(bytes(BODY_SIZE))
    byte_tables = []
    probe = bytearray(BODY_SIZE)
    for off in range(_VARYING_START, BODY_SIZE):
        table = np.empty(256, np.uint32)
        for v in range(256):
            probe[off] = v
            table[v] = crc32(bytes(probe)) ^ c_zero
        probe[off] = 0
        byte_tables.append(table)
    idx = np.arange(65536, dtype=np.uint32)
    lo = idx & 0xFF
    hi = idx >> 8
    return [byte_tables[2 * k][lo] ^ byte_tables[2 * k + 1][hi] for k in range(6)]


#: Six 64 Ki-entry u32 tables (1.5 MiB total), built once at import.
_CRC_LANE_TABLES = _build_crc_tables()
#: First u16 lane of the varying region inside the 12-lane body view.
_VARYING_LANE = _VARYING_START // 2


@dataclass(frozen=True)
class Record:
    """A decoded record: header fields plus payload and its own address."""

    source_id: int
    timestamp: int
    prev_addr: int
    payload: "bytes | memoryview"
    address: int

    @property
    def size(self) -> int:
        """Total on-log footprint (header + payload)."""
        return HEADER_SIZE + len(self.payload)

    @property
    def has_prev(self) -> bool:
        return self.prev_addr != NULL_ADDRESS


@dataclass
class RegionColumns:
    """Decoded header columns for one contiguous record-log region.

    The columnar read-side counterpart of ``encode_batch``: all record
    headers in ``[start, end)`` decoded into parallel numpy vectors, with
    payload bytes left in ``buffer``.  For a hot region ``buffer`` is the
    framed region itself (a zero-copy storage view when the mmap read
    tier served it); for an archived chunk it is the chunk's decoded
    payload blob, with no headers in it.  ``payload_starts`` locates
    each payload either way.  Operators filter on the columns and touch
    Python per record only for survivors.  The arrays are read-only:
    archived chunks' columns are cached and shared across queries.
    """

    start: int
    source_ids: np.ndarray
    timestamps: np.ndarray
    prev_addrs: np.ndarray
    lengths: np.ndarray
    #: Byte offset of each record header from ``start`` (its address
    #: minus ``start``).
    offsets: np.ndarray
    #: Byte offset of each record's payload within ``buffer``.
    payload_starts: np.ndarray
    buffer: "bytes | memoryview"

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def addresses(self) -> np.ndarray:
        """Logical record-log address of each record."""
        return self.offsets + self.start

    def payload_view(self, i: int) -> "bytes | memoryview":
        """Record ``i``'s payload, sliced in place from ``buffer``."""
        off = int(self.payload_starts[i])
        return self.buffer[off : off + int(self.lengths[i])]


def record_crc(header_body: "bytes | memoryview", payload: "bytes | memoryview") -> int:
    """CRC-32 of a record: header body bytes chained with the payload."""
    return crc32(payload, crc32(header_body))


def encode_header(
    source_id: int, timestamp: int, prev_addr: int, payload: bytes
) -> bytes:
    """Pack a record header (checksum included) for the given payload."""
    body = _BODY.pack(source_id, timestamp, prev_addr, len(payload))
    return body + _CRC.pack(record_crc(body, payload))


def encode_record(
    source_id: int, timestamp: int, prev_addr: int, payload: bytes
) -> bytes:
    """Frame a full record (header + payload) ready for the record log."""
    body = _BODY.pack(source_id, timestamp, prev_addr, len(payload))
    return body + _CRC.pack(record_crc(body, payload)) + payload


def encode_batch_scalar(
    source_id: int,
    timestamp: int,
    prev_addr: int,
    payloads: Sequence[bytes],
    base_address: int,
) -> Tuple[bytes, List[int]]:
    """Reference per-record framing loop (one ``pack_into`` per record).

    Kept as the byte-identity oracle for :func:`encode_batch`: the property
    tests assert the vectorized path produces exactly these bytes.  It is
    also the fallback used by the columnar encoder for degenerate batches.
    """
    n = len(payloads)
    total = HEADER_SIZE * n + sum(len(p) for p in payloads)
    buffer = bytearray(total)
    view = memoryview(buffer)
    addresses: List[int] = []
    append_addr = addresses.append
    pack_body = _BODY.pack_into
    pack_crc = _CRC.pack_into
    offset = 0
    address = base_address
    prev = prev_addr
    for payload in payloads:
        length = len(payload)
        pack_body(buffer, offset, source_id, timestamp, prev, length)
        pack_crc(
            buffer,
            offset + BODY_SIZE,
            crc32(payload, crc32(view[offset : offset + BODY_SIZE])),
        )
        offset += HEADER_SIZE
        buffer[offset : offset + length] = payload
        offset += length
        append_addr(address)
        prev = address
        address += HEADER_SIZE + length
    return bytes(buffer), addresses


def encode_batch(
    source_id: int,
    timestamp: int,
    prev_addr: int,
    payloads: Sequence[bytes],
    base_address: int,
) -> Tuple[bytes, List[int]]:
    """Frame a whole batch of records into one contiguous buffer, columnar.

    This is the write-side batching fast path.  Instead of packing records
    one at a time, the batch is built as numpy *columns*:

    * header bodies are one structured array (:data:`BODY_DTYPE`) whose
      ``prev``/``len`` columns come from a cumulative-offset vector —
      because the hybrid log assigns contiguous logical addresses, every
      back-pointer in the batch's chain is computed arithmetically from
      ``base_address`` without touching the log;
    * header CRCs are computed per batch, not per record: the body CRC is a
      table-driven affine delta (only the ``prev``/``len`` bytes vary inside
      a batch, see :func:`_build_crc_tables`), chained into one ``crc32``
      call per payload;
    * the frame buffer is emitted with a single ``tobytes()`` per batch —
      for equal-length payloads via a dense ``(n, record_size)`` matrix,
      otherwise via two fancy-index scatters.

    All records in the batch share one arrival ``timestamp`` (they arrived
    together); ``prev_addr`` is the source's chain head before the batch.
    The output is byte-identical to :func:`encode_batch_scalar` — the
    equivalence property tests pin that contract.

    Returns ``(buffer, addresses)`` where ``addresses[i]`` is the logical
    address record ``i`` will occupy once the buffer is appended at
    ``base_address``.
    """
    buffer, addresses = encode_batch_arrays(
        source_id, timestamp, prev_addr, payloads, base_address
    )
    return buffer, addresses.tolist()


def encode_batch_arrays(
    source_id: int,
    timestamp: int,
    prev_addr: int,
    payloads: Sequence[bytes],
    base_address: int,
) -> "Tuple[bytes, np.ndarray]":
    """Columnar core of :func:`encode_batch`.

    Identical framing, but the per-record addresses come back as the
    int64 offset column itself (``offsets + base_address``) rather than a
    Python list — the batched ingest path segments the batch at chunk
    boundaries with vectorized arithmetic on this column, so converting
    to a list and back would be pure overhead.
    """
    n = len(payloads)
    if n == 0:
        return b"", np.empty(0, np.int64)

    first_len = len(payloads[0])
    lens = list(map(len, payloads))
    equal_len = lens.count(first_len) == n

    if equal_len:
        record_size = HEADER_SIZE + first_len
        offsets = np.arange(0, n * record_size, record_size, dtype=np.int64)
    else:
        lengths = np.array(lens, np.int64)
        offsets = np.empty(n, np.int64)
        offsets[0] = 0
        np.cumsum(lengths[:-1] + HEADER_SIZE, out=offsets[1:])
    addresses = offsets + base_address

    bodies = np.empty(n, BODY_DTYPE)
    bodies["sid"] = source_id
    bodies["ts"] = timestamp
    # Back-pointers are the address column shifted down one: record i
    # chains to record i-1, and the first record to the pre-batch head.
    prev_col = bodies["prev"]
    prev_col[0] = prev_addr
    prev_col[1:] = addresses[:-1]
    bodies["len"] = first_len if equal_len else lengths

    # Batched CRC chain: affine body delta, then one crc32 per payload.
    base_crc = crc32(_BODY.pack(source_id, timestamp, 0, 0))
    lanes = bodies.view(np.uint16).reshape(n, BODY_SIZE // 2)
    if equal_len:
        # The length lanes are constant across the batch; fold their
        # delta into the scalar base instead of two vector gathers.
        base_crc ^= int(_CRC_LANE_TABLES[4][first_len & 0xFFFF])
        base_crc ^= int(_CRC_LANE_TABLES[5][(first_len >> 16) & 0xFFFF])
        varying_lanes = 4
    else:
        varying_lanes = 6
    body_crcs = _CRC_LANE_TABLES[0][lanes[:, _VARYING_LANE]]
    for k in range(1, varying_lanes):
        body_crcs ^= _CRC_LANE_TABLES[k][lanes[:, _VARYING_LANE + k]]
    np.bitwise_xor(body_crcs, np.uint32(base_crc), out=body_crcs)
    crcs = np.fromiter(
        map(crc32, payloads, body_crcs.tolist()), np.uint32, n
    )

    blob = b"".join(payloads)
    if equal_len:
        out = np.empty((n, record_size), np.uint8)
        out[:, :BODY_SIZE] = bodies.view(np.uint8).reshape(n, BODY_SIZE)
        out[:, BODY_SIZE:HEADER_SIZE] = crcs.view(np.uint8).reshape(n, 4)
        if first_len:
            out[:, HEADER_SIZE:] = np.frombuffer(blob, np.uint8).reshape(
                n, first_len
            )
        buffer = out.tobytes()
    else:
        total = HEADER_SIZE * n + len(blob)
        flat = np.empty(total, np.uint8)
        headers = np.empty((n, HEADER_SIZE), np.uint8)
        headers[:, :BODY_SIZE] = bodies.view(np.uint8).reshape(n, BODY_SIZE)
        headers[:, BODY_SIZE:] = crcs.view(np.uint8).reshape(n, 4)
        header_pos = offsets[:, None] + np.arange(HEADER_SIZE)
        flat[header_pos.ravel()] = headers.ravel()
        if blob:
            # Scatter payload bytes: byte j of the blob belongs to record
            # owner[j] and lands at that record's payload start plus the
            # byte's offset within its payload.
            owner = np.repeat(np.arange(n), lengths)
            payload_starts = np.zeros(n, np.int64)
            np.cumsum(lengths[:-1], out=payload_starts[1:])
            within = np.arange(len(blob), dtype=np.int64)
            positions = (offsets + HEADER_SIZE)[owner] + (
                within - payload_starts[owner]
            )
            flat[positions] = np.frombuffer(blob, np.uint8)
        buffer = flat.tobytes()
    return buffer, addresses


def decode_header(data: bytes, offset: int = 0) -> "tuple[int, int, int, int]":
    """Unpack ``(source_id, timestamp, prev_addr, length)`` from header bytes."""
    return _BODY.unpack_from(data, offset)


def decode_header_crc(data: bytes, offset: int = 0) -> int:
    """Unpack the stored checksum from a record header."""
    return _CRC.unpack_from(data, offset + BODY_SIZE)[0]


def verify_record_bytes(data: "bytes | bytearray", offset: int, length: int) -> bool:
    """CRC-check a fully framed record (header + payload) inside ``data``.

    ``offset`` is the header start and ``length`` the payload length the
    header claims; the caller has already bounds-checked that the frame
    fits.  Returns True when the stored checksum matches the bytes.
    """
    view = memoryview(data)
    stored = _CRC.unpack_from(data, offset + BODY_SIZE)[0]
    payload_start = offset + HEADER_SIZE
    actual = crc32(
        view[payload_start : payload_start + length],
        crc32(view[offset : offset + BODY_SIZE]),
    )
    return stored == actual


def record_size(payload_len: int) -> int:
    """On-log footprint of a record with a payload of ``payload_len`` bytes."""
    return HEADER_SIZE + payload_len


def record_offsets(buffer: "bytes | memoryview", size: int) -> np.ndarray:
    """Header offsets of the records framed back to back in ``buffer[:size]``.

    For the common case of fixed-size records the offsets are one
    ``arange``, validated inductively: offset 0 is a header; if its
    length is ``first_len`` the next header is at ``stride``; requiring
    every candidate's length field to equal ``first_len`` proves every
    candidate is a real header.  Otherwise a Python walk over the length
    fields finds them (still far cheaper than full per-record decodes).
    The walk stops at the first header whose length field would run past
    ``size``; callers that cannot trust the region check the tiling.
    """
    unpack_len = _LEN_FIELD.unpack_from
    first_len = unpack_len(buffer, 20)[0]
    stride = HEADER_SIZE + first_len
    if size % stride == 0:
        raw = np.frombuffer(buffer, np.uint8, count=size)
        cand = np.arange(0, size, stride, dtype=np.int64)
        lens = (
            raw[(cand[:, None] + np.arange(20, 24)).ravel()]
            .reshape(-1, 4)
            .copy()
            .view(np.uint32)
            .ravel()
        )
        if bool((lens == first_len).all()):
            return cand
    offs: List[int] = []
    pos = 0
    last = size - BODY_SIZE
    while pos < size:
        offs.append(pos)
        if pos > last:
            break
        pos += HEADER_SIZE + unpack_len(buffer, pos + 20)[0]
    return np.array(offs, dtype=np.int64)


def frame_columns(columns: RegionColumns) -> bytes:
    """Re-frame a region's records from their columns, CRCs included.

    The inverse of a columnar decode: the output is the byte-identical
    framed region (framing and CRC are deterministic functions of the
    columns).  Headers are built as one structured array; each record's
    CRC is one ``crc32`` over its body chained into one over its payload.
    """
    n = len(columns)
    if n == 0:
        return b""
    bodies = np.empty(n, BODY_DTYPE)
    bodies["sid"] = columns.source_ids
    bodies["ts"] = columns.timestamps
    bodies["prev"] = columns.prev_addrs
    bodies["len"] = columns.lengths
    body_view = memoryview(bodies.tobytes())
    payloads = memoryview(columns.buffer)
    starts = columns.payload_starts.tolist()
    lengths = columns.lengths.tolist()
    crcs = np.fromiter(
        (
            crc32(payloads[s : s + n_bytes], crc32(body_view[k : k + BODY_SIZE]))
            for k, s, n_bytes in zip(range(0, n * BODY_SIZE, BODY_SIZE), starts, lengths)
        ),
        np.uint32,
        n,
    )
    offsets = columns.offsets
    total = int(offsets[-1]) + HEADER_SIZE + lengths[-1]
    flat = np.zeros(total, np.uint8)
    headers = np.empty((n, HEADER_SIZE), np.uint8)
    headers[:, :BODY_SIZE] = bodies.view(np.uint8).reshape(n, BODY_SIZE)
    headers[:, BODY_SIZE:] = crcs.view(np.uint8).reshape(n, 4)
    is_payload = np.ones(total, bool)
    header_pos = (offsets[:, None] + np.arange(HEADER_SIZE)).ravel()
    flat[header_pos] = headers.ravel()
    is_payload[header_pos] = False
    source = np.frombuffer(columns.buffer, np.uint8)
    gather = np.repeat(columns.payload_starts - offsets - HEADER_SIZE, lengths)
    flat[is_payload] = source[np.flatnonzero(is_payload) + gather]
    return flat.tobytes()
