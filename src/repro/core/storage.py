"""Persistent storage backends for hybrid logs.

A hybrid log (paper section 4.1) stages writes in two fixed-size in-memory
blocks and evicts full blocks to *persistent storage*.  This module defines
the storage interface and two implementations:

* :class:`FileStorage` — an append-only file, the production-shaped backend.
  Flushes are sequential writes of whole blocks, which is exactly the large,
  amortized I/O pattern the paper relies on for disk efficiency.  Reads of
  the persisted prefix can be served zero-copy through a lazily created
  read-only ``mmap`` (:meth:`Storage.read_view`).
* :class:`MemoryStorage` — an in-process backend used by tests and
  benchmarks that should not touch the filesystem.  It preserves the same
  address arithmetic and failure surface.  Internally it keeps a list of
  append *extents* rather than one growing ``bytearray``, which lets the
  hybrid log hand whole flushed blocks over zero-copy
  (:meth:`Storage.append_extent`) instead of copying every flushed byte.

Both backends expose a flat, append-only byte address space: the ``n``-th
byte ever appended lives at address ``n``.  The hybrid log guarantees blocks
are flushed in order, so storage holds a prefix ``[0, size)`` of the log's
logical address space at all times.
"""

from __future__ import annotations

import mmap
import os
import threading
from bisect import bisect_right
from typing import List, Optional, Tuple, cast

from . import viewguard
from .errors import AddressError, ClosedError, StorageError


class Storage:
    """Interface: an append-only, randomly readable byte store."""

    #: Outstanding zero-copy borrows (view-lifetime guard, LOOMSAN only).
    #: Lazily created by :meth:`_track_view`; ``None`` in production runs.
    _views: Optional[viewguard.Ledger] = None

    #: Exclusive upper bound of the *recycled prefix*: bytes below it were
    #: migrated to the cold tier and may be physically reclaimed.  Reads
    #: below it raise :class:`AddressError` (views return ``None``) — the
    #: archive, not this storage, is authoritative there.
    _recycled_upto: int = 0

    @property
    def recycled_upto(self) -> int:
        return self._recycled_upto

    def recycle_prefix(self, upto: int, reason: str) -> int:
        """Mark ``[0, upto)`` recycled; poison outstanding views over it.

        Returns the number of views poisoned.  Idempotent and monotonic:
        a smaller ``upto`` than the current boundary is a no-op.  The
        base implementation is metadata-only; backends override to also
        reclaim the physical bytes.
        """
        if upto > self.size:
            raise AddressError(
                f"recycle to {upto} beyond persisted size {self.size}"
            )
        old = self._recycled_upto
        if upto <= old:
            return 0
        # Publish the boundary before reclaiming bytes so a racing reader
        # either fails the range check or reads still-intact bytes.
        self._recycled_upto = upto
        if self._views is not None:
            return self._views.invalidate(
                old, upto, f"storage prefix recycled to {upto}: {reason}"
            )
        return 0

    def _track_view(self, view: memoryview, address: int, length: int) -> memoryview:
        """Register ``view`` with the lifetime guard when it is active.

        Truncation, close, and fault-injection mutation call
        :meth:`_poison_views`; any later touch of an affected view raises
        :class:`~repro.core.errors.StaleViewError` with the borrow site.
        """
        if not viewguard.active:
            return view
        if self._views is None:
            self._views = viewguard.Ledger()
        return cast(
            memoryview, self._views.borrow(view, address, address + length)
        )

    def _poison_views(self, lo: int, hi: int, reason: str) -> None:
        if self._views is not None:
            self._views.invalidate(lo, hi, reason)

    def _poison_all_views(self, reason: str) -> None:
        if self._views is not None:
            self._views.invalidate_all(reason)

    def append(self, data: bytes) -> int:
        """Append ``data``; return the address of its first byte."""
        raise NotImplementedError

    def append_extent(self, view: memoryview) -> Tuple[int, bool]:
        """Append a flushed block's bytes, possibly zero-copy.

        Returns ``(address, retained)``.  When ``retained`` is true the
        backend kept a reference to ``view`` itself (zero-copy handoff) and
        the caller must not reuse or mutate the underlying buffer — the
        hybrid log responds by giving its staging block a fresh buffer
        (``Block.recycle(release_buffer=True)``).  The base implementation
        copies (so fault-injecting wrappers and file backends keep their
        exact ``append`` semantics) and returns ``retained=False``.
        """
        return self.append(bytes(view)), False

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``.

        Raises :class:`AddressError` if the range is not fully persisted.
        """
        raise NotImplementedError

    def read_view(self, address: int, length: int) -> Optional[memoryview]:
        """Zero-copy read of ``[address, address + length)``, if possible.

        Returns a read-only memoryview over the persisted bytes, or
        ``None`` when the backend cannot serve this range without a copy
        (the caller falls back to :meth:`read`).  The view stays valid for
        the lifetime of the storage object; callers must not hold views
        across :meth:`truncate` or :meth:`close`.
        """
        return None

    @property
    def size(self) -> int:
        """Number of bytes persisted so far (the exclusive upper address)."""
        raise NotImplementedError

    def sync(self) -> None:
        """Force durability of all appended bytes (no-op where meaningless)."""

    def truncate(self, size: int) -> None:
        """Discard all bytes at addresses >= ``size``.

        Used by crash repair (drop a torn or corrupt tail so the log is a
        clean prefix again) and by the flush retry path (undo a torn block
        write before re-appending it).  ``size`` must not exceed the
        current :attr:`size`.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; subsequent operations raise :class:`ClosedError`."""

    def _check_range(self, address: int, length: int) -> None:
        if address < 0 or length < 0:
            raise AddressError(f"negative address or length: {address}, {length}")
        if address < self._recycled_upto:
            raise AddressError(
                f"read at {address} below recycled prefix "
                f"{self._recycled_upto} (serve it from the archive)"
            )
        if address + length > self.size:
            raise AddressError(
                f"read [{address}, {address + length}) beyond persisted size {self.size}"
            )


class MemoryStorage(Storage):
    """In-memory append-only store kept as a list of extents.

    Thread-safe for one appender plus concurrent readers: appends extend
    the extent list under a lock, and reads only touch the already-persisted
    prefix, which is immutable.  Keeping appends as separate extents (one
    per flushed block) instead of concatenating into one ``bytearray``
    makes :meth:`append_extent` a pure pointer handoff — the dominant cost
    of a flush on this backend used to be the ``bytearray += block`` copy.
    """

    def __init__(self) -> None:
        # _extents[i] spans addresses [_starts[i], _starts[i] + len(extent)).
        self._extents: List["bytes | bytearray | memoryview"] = []
        self._starts: List[int] = []
        self._size = 0
        self._lock = threading.Lock()
        self._closed = False

    def append(self, data: bytes) -> int:
        if self._closed:
            raise ClosedError("storage is closed")
        with self._lock:
            address = self._size
            if len(data):
                self._extents.append(bytes(data))
                self._starts.append(address)
                self._size += len(data)
        return address

    def append_extent(self, view: memoryview) -> Tuple[int, bool]:
        if self._closed:
            raise ClosedError("storage is closed")
        # Ownership handoff: the retained buffer is immutable from here on,
        # so a tracked flush view stops being a borrow (guard bookkeeping).
        view = viewguard.adopt(view)
        with self._lock:
            address = self._size
            if len(view):
                self._extents.append(view)
                self._starts.append(address)
                self._size += len(view)
        return address, bool(len(view))

    def read(self, address: int, length: int) -> bytes:
        if self._closed:
            raise ClosedError("storage is closed")
        self._check_range(address, length)
        if length == 0:
            return b""
        i = bisect_right(self._starts, address) - 1
        parts: List[bytes] = []
        remaining = length
        offset = address - self._starts[i]
        while remaining > 0:
            extent = self._extents[i]
            take = min(remaining, len(extent) - offset)
            parts.append(bytes(extent[offset : offset + take]))
            remaining -= take
            offset = 0
            i += 1
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def read_view(self, address: int, length: int) -> Optional[memoryview]:
        if self._closed:
            raise ClosedError("storage is closed")
        if address < 0 or length < 0 or address + length > self._size:
            return None
        if address < self._recycled_upto:
            return None
        if length == 0:
            return memoryview(b"")
        i = bisect_right(self._starts, address) - 1
        extent = self._extents[i]
        offset = address - self._starts[i]
        if offset + length > len(extent):
            return None  # spans extents: caller falls back to read()
        view = memoryview(extent)[offset : offset + length]
        if not view.readonly:
            view = view.toreadonly()
        return self._track_view(view, address, length)

    def _mutate_byte(self, address: int, mask: int) -> None:
        """Flip bits of one persisted byte (fault-injection hook).

        Extents may be immutable ``bytes`` or retained memoryviews, so the
        containing extent is replaced with a mutated copy.
        """
        with self._lock:
            if address < 0 or address >= self._size:
                raise AddressError(f"corrupt at {address} outside [0, {self._size})")
            i = bisect_right(self._starts, address) - 1
            mutated = bytearray(self._extents[i])
            mutated[address - self._starts[i]] ^= mask
            self._extents[i] = bytes(mutated)
            # Outstanding views of the replaced extent now alias the
            # pre-mutation object: stale by definition.
            start = self._starts[i]
            self._poison_views(
                start,
                start + len(mutated),
                f"storage byte at address {address} was mutated "
                f"(fault injection replaced its extent)",
            )

    def recycle_prefix(self, upto: int, reason: str) -> int:
        """Recycle ``[0, upto)`` and free the memory of covered extents.

        Extents fully below ``upto`` are replaced *in place* with empty
        placeholders (single-item list stores are GIL-atomic), so the
        bisect arithmetic of lock-free concurrent readers over the
        surviving suffix never observes a torn list pair; reads below
        the boundary are rejected by the range check before they could
        touch a placeholder.
        """
        poisoned = super().recycle_prefix(upto, reason)
        with self._lock:
            for i, start in enumerate(self._starts):
                extent = self._extents[i]
                if start + len(extent) <= upto and len(extent):
                    self._extents[i] = b""
                elif start >= upto:
                    break
        return poisoned

    def retained_bytes(self) -> int:
        """Bytes actually held in memory (recycled extents excluded)."""
        return sum(len(extent) for extent in list(self._extents))

    @property
    def size(self) -> int:
        return self._size

    def truncate(self, size: int) -> None:
        if self._closed:
            raise ClosedError("storage is closed")
        with self._lock:
            if size < 0 or size > self._size:
                raise AddressError(f"truncate to {size} outside [0, {self._size}]")
            old_size = self._size
            while self._starts and self._starts[-1] >= size:
                self._starts.pop()
                self._extents.pop()
            if self._starts:
                last_start = self._starts[-1]
                keep = size - last_start
                if keep < len(self._extents[-1]):
                    self._extents[-1] = bytes(self._extents[-1][:keep])
            self._size = size
            if old_size > size:
                self._poison_views(
                    size, old_size, f"storage truncated to {size}"
                )

    def close(self) -> None:
        self._closed = True
        self._poison_all_views("storage closed")


class FileStorage(Storage):
    """Append-only file storage.

    Uses one file descriptor for appends and ``pread``-style reads via a
    separate handle so concurrent readers never disturb the append offset.
    Ranges within the persisted prefix can also be served zero-copy from a
    lazily created read-only memory map (:meth:`read_view`), remapped as
    the file grows.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        try:
            self._write_f = open(path, "ab")
            self._read_f = open(path, "rb")
        except OSError as exc:  # pragma: no cover - environment dependent
            raise StorageError(f"cannot open {path}: {exc}") from exc
        self._size = os.fstat(self._write_f.fileno()).st_size
        self._lock = threading.Lock()
        self._closed = False
        #: Atomically published ``(map, mapped_size)`` pair, or ``None``.
        #: One attribute (not two) so readers never see a torn pair.
        self._map: Optional[Tuple[mmap.mmap, int]] = None
        #: Parked reason the mmap tier is degraded (mapping failed); reads
        #: keep working through pread, views just return None.
        self._mmap_error: Optional[Exception] = None

    @property
    def path(self) -> str:
        return self._path

    def append(self, data: bytes) -> int:
        if self._closed:
            raise ClosedError("storage is closed")
        with self._lock:
            address = self._size
            self._write_f.write(data)
            self._write_f.flush()
            self._size += len(data)
        return address

    def read(self, address: int, length: int) -> bytes:
        if self._closed:
            raise ClosedError("storage is closed")
        self._check_range(address, length)
        data = os.pread(self._read_f.fileno(), length, address)
        if len(data) != length:  # pragma: no cover - fs corruption only
            raise StorageError(
                f"short read at {address}: wanted {length}, got {len(data)}"
            )
        return data

    def read_view(self, address: int, length: int) -> Optional[memoryview]:
        if self._closed:
            raise ClosedError("storage is closed")
        if address < 0 or length < 0 or address + length > self._size:
            return None
        if address < self._recycled_upto:
            return None
        if length == 0:
            return memoryview(b"")
        entry = self._map
        if entry is None or address + length > entry[1]:
            entry = self._remap()
            if entry is None or address + length > entry[1]:
                return None
        view = memoryview(entry[0])[address : address + length]
        if not view.readonly:  # pragma: no cover - ACCESS_READ maps are readonly
            view = view.toreadonly()
        return self._track_view(view, address, length)

    def _remap(self) -> Optional[Tuple[mmap.mmap, int]]:
        """(Re)create the read mmap covering the current file size, lock-free.

        Racing readers may each build a map; the single-attribute store is
        atomic, losers stay alive as long as their views do, and a stale
        map is never wrong — the persisted prefix is immutable.  The
        previous map object is dropped, not closed: closing a map with
        exported memoryviews raises ``BufferError``.
        """
        size = self._size
        if size == 0:
            return None
        try:
            mapped = mmap.mmap(
                self._read_f.fileno(), size, access=mmap.ACCESS_READ
            )
        except (OSError, ValueError) as exc:  # pragma: no cover - env dependent
            # Park the reason (introspection can report why the view tier
            # is degraded); reads still work through pread.
            self._mmap_error = exc
            return None
        if self._size < size:  # pragma: no cover - raced a truncate
            # The tail of this map may now be past EOF; touching it would
            # fault.  Drop it and let the caller fall back to read().
            return None
        entry = (mapped, size)
        self._map = entry
        return entry

    @property
    def size(self) -> int:
        return self._size

    def sync(self) -> None:
        if self._closed:
            raise ClosedError("storage is closed")
        os.fsync(self._write_f.fileno())

    def truncate(self, size: int) -> None:
        if self._closed:
            raise ClosedError("storage is closed")
        with self._lock:
            if size < 0 or size > self._size:
                raise AddressError(f"truncate to {size} outside [0, {self._size}]")
            self._write_f.flush()
            # The append handle is O_APPEND, so later writes land at the
            # new end of file regardless of any cached offset.
            old_size = self._size
            os.ftruncate(self._write_f.fileno(), size)
            self._size = size
            # Drop the map: its tail may now be beyond EOF.  Outstanding
            # views pin the old object; new reads remap lazily.  Views over
            # the truncated tail alias dropped file bytes (a flush retry
            # will rewrite those addresses through the file, not the map),
            # so the guard poisons them; views below ``size`` stay valid —
            # the persisted prefix is immutable.
            self._map = None
            if old_size > size:
                self._poison_views(
                    size,
                    old_size,
                    f"storage truncated to {size}; the mmap over the "
                    f"dropped tail was remapped",
                )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._map = None
            self._poison_all_views("storage closed; the mmap was dropped")
            self._write_f.close()
            self._read_f.close()


def open_storage(path: Optional[str]) -> Storage:
    """Open :class:`FileStorage` at ``path``, or :class:`MemoryStorage` if None."""
    if path is None:
        return MemoryStorage()
    return FileStorage(path)
