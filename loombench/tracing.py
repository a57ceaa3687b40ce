"""Span tracing of Loom's layers from outside the program.

The traced run wraps the public functions of each layer (the write path
and read path in ``repro.core``, the wire path in ``repro.daemon``) where
their callers look them up, records one span per call -- or per
iteration, for generator operators -- and keeps every span in memory
until the run ends.  The untimed end-to-end runs install nothing.

A span is ``(site, parent, request, start, end)``: ``site`` names the
wrapped function (and through it the layer), ``parent`` is the enclosing
span on the same thread, and ``request`` ties together the spans of one
wire request across the client thread, the server's event loop, its
executor and its shard worker.  Ingest requests use the ``client:seq``
key already in the ingest header; traced wire queries carry a
``trace`` header field with the same shape, which the server ignores.

A layer's *self time* is the time its spans cover minus the part their
children cover.  Server-side spans of a wire request become children of
the client span that was waiting for them, so the client's receive wait
keeps only the time no server layer of that request accounts for.  Of
that, the part during which another thread ran traced Loom code is the
request waiting for the interpreter lock (``gil.wait``); the rest is
unexplained.  The wrappers' own cost per span is measured once
(:meth:`Tracer.calibrate`) and charged to the tracer instead of to the
span or its parent.

An operation's time is *accounted for* by named layers except for two
parts: the self time of its root span (the operation's entry point, less
every layer under it) and the unexplained receive wait.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from unittest import mock

import numpy as np

from stats import IntervalUnion, self_time

_now = time.perf_counter_ns

#: Layer of the client request roots that server-side spans attach to.
CLIENT_ROOT = "client.request"
#: Client layer that waits for the server's response.
RECV_WAIT = "transport.recv_wait"
#: Pseudo-layer: receive wait during which another thread ran Loom code.
GIL_WAIT = "gil.wait"
#: Server span from the event loop handing a query to the executor to
#: resuming with its result; its self time is what the request's other
#: server spans leave uncovered (the thread hand-offs).
DISPATCH = "server.dispatch"
#: Server span of reading a request frame off the socket.
SERVER_READ = "server.read"
#: Layers whose spans mostly wait (on a socket, a queue or another
#: thread) or enclose such waits, rather than run; the others are running
#: code, which holds the interpreter lock.
WAITING = frozenset({
    CLIENT_ROOT, "client.retry", RECV_WAIT, DISPATCH, SERVER_READ, "transport.send",
    "server.queue_wait"})

#: Fields of one span in a thread buffer's flat array.
_SITE, _PARENT, _REQ, _START, _END = range(5)
_WIDTH = 5


@dataclass(frozen=True)
class Site:
    """One wrapped function."""

    layer: str
    #: Operation type when a span of this site is a root, else ``None``.
    op: Optional[str] = None
    #: Server-side request-path span: adopt the waiting client span as
    #: parent (see :meth:`Tracer._adopt`).
    adopt: bool = False
    #: What the tracer costs per span of this site (see :class:`Calibration`):
    #: ``call``, ``counted`` (a call with a count taken after it) or
    #: ``item`` (one generator iteration).
    kind: str = "call"


class _Buffer:
    """One thread's spans, ``_WIDTH`` int64 fields each, in one flat
    array (lock-free: only its own thread appends)."""

    def __init__(self) -> None:
        self.spans = array("q")
        self.stack: List[int] = []
        self.req_cur = -1
        self.counts: Dict[str, float] = {}
        #: Server frame reads not yet tied to the request they carried.
        self.pending_reads: List[int] = []


@dataclass
class Calibration:
    """Tracer cost per span in ns, by site kind: the part inside the span
    itself and the part its parent sees."""

    own: Dict[str, float] = field(default_factory=dict)
    parent: Dict[str, float] = field(default_factory=dict)

    def total(self, kind: str) -> float:
        return self.own.get(kind, 0.0) + self.parent.get(kind, 0.0)


class Tracer:
    """Collects spans and counts from every thread of one traced phase."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[_Buffer] = []
        self.sites: List[Site] = []
        self._req_ids: Dict[str, int] = {}
        self.calibration = Calibration()

    # -- recording -----------------------------------------------------
    def buffer(self) -> _Buffer:
        try:
            return self._tls.buf  # type: ignore[no-any-return]
        except AttributeError:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._tls.buf = buf
            return buf

    def site(self, layer: str, op: Optional[str] = None, adopt: bool = False,
             kind: str = "call") -> int:
        self.sites.append(Site(layer, op, adopt, kind))
        return len(self.sites) - 1

    def request_id(self, key: str) -> int:
        with self._lock:
            return self._req_ids.setdefault(key, len(self._req_ids))

    def record(self, site: int, start: int, end: int, req: int) -> None:
        """Add a finished span measured elsewhere (e.g. a queue wait)."""
        self.buffer().spans.extend((site, -1, req, start, end))

    def count(self, name: str, n: float = 1) -> None:
        counts = self.buffer().counts
        counts[name] = counts.get(name, 0) + n

    def set_request(self, req: int) -> None:
        self.buffer().req_cur = req

    def current_layer(self) -> Optional[str]:
        """Layer of the innermost open span on this thread."""
        buf = self.buffer()
        if not buf.stack:
            return None
        return self.sites[buf.spans[buf.stack[-1] + _SITE]].layer

    # -- calibration ---------------------------------------------------
    def calibrate(self, rounds: int = 7, n: int = 2000) -> None:
        """Measure what one span of each kind costs, with the wrappers the
        traced run uses, against the same loop untraced; keeps the median
        of ``rounds``."""
        probe = Tracer()

        def work(a: int, b: int, c: int) -> None:
            return None

        def counted(result: Any, *args: Any, **kwargs: Any) -> None:
            probe.count("calibration")

        parent = _call_wrapper(probe, probe.site("parent"), lambda body: body())
        children = {
            "call": _call_wrapper(probe, probe.site("call"), work),
            "counted": _call_wrapper(probe, probe.site("counted", kind="counted"),
                                     work, after=counted),
        }
        items = _gen_wrapper(probe, probe.site("item", kind="item"), lambda: iter(range(n)))

        def loop(kind: str, traced: bool) -> None:
            if kind == "item":
                for _ in (items() if traced else iter(range(n))):
                    pass
                return
            fn = children[kind] if traced else work
            for i in range(n):
                fn(i, i, i)

        own: Dict[str, List[float]] = {k: [] for k in ("call", "counted", "item")}
        seen: Dict[str, List[float]] = {k: [] for k in own}
        for _ in range(rounds):
            for kind in own:
                del probe.buffer().spans[:]
                parent(lambda: loop(kind, True))
                rows = np.frombuffer(probe.buffer().spans, np.int64).reshape(-1, _WIDTH).copy()
                dur = rows[:, _END] - rows[:, _START]
                started = _now()
                loop(kind, False)
                total = (dur[0] - (_now() - started)) / n
                own[kind].append(float(dur[1:].mean()))
                seen[kind].append(total - own[kind][-1])
        self.calibration = Calibration(
            own={k: max(0.0, float(np.median(v))) for k, v in own.items()},
            parent={k: max(0.0, float(np.median(v))) for k, v in seen.items()},
        )

    # -- analysis ------------------------------------------------------
    def analyse(self) -> "TraceReport":
        bufs = list(self._buffers)
        chunks, threads, offset = [], [], 0
        for t, buf in enumerate(bufs):
            rows = np.frombuffer(buf.spans, np.int64).reshape(-1, _WIDTH).copy()
            # Parents are array offsets within the thread's buffer.
            par = rows[:, _PARENT]
            rows[:, _PARENT] = np.where(par >= 0, par // _WIDTH + offset, -1)
            chunks.append(rows)
            threads.append(np.full(len(rows), t, np.int64))
            offset += len(rows)
        rows = np.concatenate(chunks) if chunks else np.empty((0, _WIDTH), np.int64)
        thread = np.concatenate(threads) if threads else np.empty(0, np.int64)
        n = len(rows)
        site, parent, req = rows[:, _SITE], rows[:, _PARENT].copy(), rows[:, _REQ]
        start, end = rows[:, _START], rows[:, _END].copy()
        open_ = end == 0  # spans still open when the phase ended
        end[open_] = start[open_]

        layers = sorted({s.layer for s in self.sites})
        layer_of_site = np.array([layers.index(s.layer) for s in self.sites], np.int64)
        adopt_site = np.array([s.adopt for s in self.sites], bool)
        client_site = np.array([s.layer == CLIENT_ROOT for s in self.sites], bool)
        kinds = sorted({s.kind for s in self.sites})
        kind_of_site = np.array([kinds.index(s.kind) for s in self.sites], np.int64)
        same_thread = parent >= 0
        read_site = np.array([s.layer == SERVER_READ for s in self.sites], bool)
        recv_site = np.array([s.layer == RECV_WAIT for s in self.sites], bool)
        waits, served = self._adopt(site, start, end, parent, req, thread, adopt_site,
                                    client_site, read_site, recv_site)

        dur = (end - start).astype(np.float64)
        child = same_thread
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        self_ns = dur - covered
        if waits:
            # A client span of a wire request loses the time its own
            # children cover and the time the server works on the request.
            hosts = np.fromiter(waits, np.int64, len(waits))
            kids: Dict[int, List[int]] = {}
            for c in np.flatnonzero(child & np.isin(parent, hosts)).tolist():
                kids.setdefault(int(parent[c]), []).append(c)
            for h, server_spans in waits.items():
                intervals = [(start[c], end[c]) for c in kids.get(h, ())] + server_spans
                self_ns[h] = self_time((start[h], end[h]), intervals)
        dispatch_site = np.array([s.layer == DISPATCH for s in self.sites], bool)
        for spans in served.values():
            for e in spans:
                if dispatch_site[site[e]]:
                    others = [(start[c], end[c]) for c in spans if c != e]
                    self_ns[e] = self_time((start[e], end[e]), others)

        gil_ns = self._contention(site, start, end, thread, dur, self_ns)
        self_ns = self_ns - gil_ns

        # Tracer cost: inside each span, and in its parent per child.
        cal = self.calibration
        span_kind = kind_of_site[site]
        own = np.array([cal.own.get(k, 0.0) for k in kinds])[span_kind]
        per_child = np.array([cal.parent.get(k, 0.0) for k in kinds])[span_kind]
        charged = own + np.bincount(parent[child], weights=per_child[child], minlength=n)
        tracer_ns = np.minimum(charged, np.maximum(self_ns, 0.0))
        self_ns = self_ns - tracer_ns

        root = np.where(parent >= 0, parent, np.arange(n))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        ops = sorted({s.op for s in self.sites if s.op is not None})
        op_of_site = np.array(
            [ops.index(s.op) if s.op is not None else -1 for s in self.sites], np.int64)
        span_op = op_of_site[site[root]] if n else np.empty(0, np.int64)
        is_root = parent < 0
        span_layer = layer_of_site[site]

        unexplained = is_root | recv_site[site]

        report = TraceReport(spans=n, layers=layers + [GIL_WAIT], ops=ops, calibration=cal)
        report.tracer_s = float(tracer_ns.sum()) / 1e9
        for li, name in enumerate(layers):
            report.layer_self_s[name] = float(self_ns[span_layer == li].sum()) / 1e9
        report.layer_self_s[GIL_WAIT] = float(gil_ns.sum()) / 1e9
        for oi, op in enumerate(ops):
            in_op = span_op == oi
            roots = is_root & in_op
            report.op_count[op] = int(roots.sum())
            report.op_e2e_s[op] = float(dur[roots].sum()) / 1e9
            report.op_tracer_s[op] = float(tracer_ns[in_op].sum()) / 1e9
            report.op_unexplained_s[op] = float(self_ns[in_op & unexplained].sum()) / 1e9
            per_layer = np.bincount(
                span_layer[in_op], weights=self_ns[in_op], minlength=len(layers))
            report.op_layer_s[op] = {
                layers[li]: float(v) / 1e9 for li, v in enumerate(per_layer) if v > 0
            }
            gil = float(gil_ns[in_op].sum()) / 1e9
            if gil > 0:
                report.op_layer_s[op][GIL_WAIT] = gil
        for buf in bufs:
            for key, value in buf.counts.items():
                report.counts[key] = report.counts.get(key, 0) + value
        report.columns = {
            "site": site, "parent": parent, "request": req, "start": start, "end": end,
            "thread": thread,
        }
        report.site_layers = [s.layer for s in self.sites]
        return report

    def _contention(
        self, site: np.ndarray, start: np.ndarray, end: np.ndarray, thread: np.ndarray,
        dur: np.ndarray, self_ns: np.ndarray,
    ) -> np.ndarray:
        """Part of each receive wait's self time during which a span of
        running code was open on another thread: under the interpreter
        lock the request's server side could not run then."""
        gil_ns = np.zeros(len(site))
        running = ~np.array([s.layer in WAITING for s in self.sites], bool)[site]
        recv = np.array([s.layer == RECV_WAIT for s in self.sites], bool)[site]
        waits = np.flatnonzero(recv & (self_ns > 0))
        for t in np.unique(thread[waits]).tolist():
            mine = waits[thread[waits] == t]
            other = running & (thread != t)
            covered = IntervalUnion(start[other], end[other]).covered(start[mine], end[mine])
            # The request's own server spans are among the covered part
            # and were already taken out of the self time.
            gil_ns[mine] = np.clip(covered - (dur[mine] - self_ns[mine]), 0.0, self_ns[mine])
        return gil_ns

    @staticmethod
    def _adopt(
        site: np.ndarray, start: np.ndarray, end: np.ndarray, parent: np.ndarray,
        req: np.ndarray, thread: np.ndarray, adopt_site: np.ndarray,
        client_site: np.ndarray, read_site: np.ndarray, recv_site: np.ndarray,
    ) -> Tuple[Dict[int, List[Tuple[int, int]]], Dict[int, List[int]]]:
        """Attach server-side request roots to the client root span of
        the same request.  Returns, for every client span of such a
        request, the server intervals it waited through, and for every
        such request its server-side root spans."""
        orphans = np.flatnonzero((parent < 0) & adopt_site[site] & (req >= 0))
        if orphans.size == 0:
            return {}, {}
        client_roots: Dict[int, int] = {}
        client_spans: Dict[int, List[int]] = {}
        for h in np.flatnonzero((parent < 0) & client_site[site] & (req >= 0)).tolist():
            client_roots[int(req[h])] = h
        recv_from: Dict[int, int] = {}
        for h in np.flatnonzero((req >= 0) & ~adopt_site[site]).tolist():
            r = int(req[h])
            if r in client_roots and thread[h] == thread[client_roots[r]]:
                client_spans.setdefault(r, []).append(h)
                if recv_site[site[h]]:
                    recv_from[r] = min(recv_from.get(r, start[h]), start[h])
        served: Dict[int, List[int]] = {}
        for o in orphans.tolist():
            r = int(req[o])
            host = client_roots.get(r, -1)
            if host >= 0 and thread[host] != thread[o]:
                parent[o] = host
                served.setdefault(r, []).append(o)
                # Only the part inside the client's request is the request's.
                # A frame read starts while the server idles between frames;
                # of it, only the part after the client has sent the frame
                # and waits for the answer is the request being delivered.
                lo = start[host]
                if read_site[site[o]]:
                    lo = recv_from.get(r, end[host])
                start[o] = min(max(start[o], lo), end[host])
                end[o] = max(min(end[o], end[host]), start[o])
        waits = {
            h: [(int(start[o]), int(end[o])) for o in spans]
            for r, spans in served.items() for h in client_spans[r]
        }
        return waits, served


@dataclass
class TraceReport:
    """Self time per layer and per operation type of one traced phase."""

    spans: int
    layers: List[str]
    ops: List[str]
    calibration: Calibration
    tracer_s: float = 0.0
    layer_self_s: Dict[str, float] = field(default_factory=dict)
    op_count: Dict[str, int] = field(default_factory=dict)
    op_e2e_s: Dict[str, float] = field(default_factory=dict)
    op_tracer_s: Dict[str, float] = field(default_factory=dict)
    #: Root self time plus unexplained receive wait, per operation type.
    op_unexplained_s: Dict[str, float] = field(default_factory=dict)
    op_layer_s: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    columns: Dict[str, np.ndarray] = field(default_factory=dict)
    site_layers: List[str] = field(default_factory=list)

    def coverage(self, op: str) -> float:
        """Share of an operation's end-to-end time, less the tracer's own
        cost, that named layers account for: all of it but the root's
        self time and the unexplained receive wait."""
        program = self.op_e2e_s.get(op, 0.0) - self.op_tracer_s.get(op, 0.0)
        if program <= 0:
            return 1.0
        return 1.0 - self.op_unexplained_s.get(op, 0.0) / program

    def save(self, path: str) -> None:
        np.savez_compressed(path, site_layer=np.array(self.site_layers), **self.columns)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _call_wrapper(
    tracer: Tracer, site: int, fn: Callable[..., Any],
    after: Optional[Callable[..., None]] = None,
) -> Callable[..., Any]:
    # Inlined span bookkeeping: every call of a traced layer pays it.
    tls, new_buffer = tracer._tls, tracer.buffer

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        try:
            buf = tls.buf
        except AttributeError:
            buf = new_buffer()
        spans, stack = buf.spans, buf.stack
        idx = len(spans)
        spans.extend((site, stack[-1] if stack else -1, buf.req_cur, _now(), 0))
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans[idx + _END] = _now()
            stack.pop()
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return traced


def _gen_wrapper(
    tracer: Tracer, site: int, fn: Callable[..., Any], counter: Optional[str] = None
) -> Callable[..., Any]:
    """Time an iterator per item: each ``next`` is one span, so the
    consumer's work between items is not charged to the generator.
    ``site`` must be registered with ``kind="item"``."""
    tls, new_buffer, count = tracer._tls, tracer.buffer, tracer.count

    def iterate(it: Iterator[Any]) -> Iterator[Any]:
        try:
            buf = tls.buf
        except AttributeError:
            buf = new_buffer()
        spans, stack = buf.spans, buf.stack
        items = 0
        try:
            while True:
                idx = len(spans)
                spans.extend((site, stack[-1] if stack else -1, buf.req_cur, _now(), 0))
                stack.append(idx)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    spans[idx + _END] = _now()
                    stack.pop()
                items += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()
            if counter is not None:
                count(counter, items)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
        return iterate(iter(fn(*args, **kwargs)))

    return traced


class _NumpyProxy:
    """Stands in for ``numpy`` inside ``repro.core.record_log`` so the
    index-UDF evaluation (one ``np.fromiter`` per index per batch) gets a
    span without a per-record wrapper."""

    def __init__(self, fromiter: Callable[..., Any]) -> None:
        self.fromiter = fromiter

    def __getattr__(self, name: str) -> Any:
        return getattr(np, name)


def install(tracer: Tracer) -> contextlib.ExitStack:
    """Wrap every traced layer; closing the returned stack removes them."""
    from repro.core import archive, loom, operators, record_log, snapshot
    from repro.core.archive import ArchiveLog, ChunkMigrator
    from repro.core.chunk_index import ChunkIndex
    from repro.core.histogram import HistogramSpec
    from repro.core.hybridlog import HybridLog
    from repro.core.metrics import Histogram, PhaseTimer
    from repro.core.storage import FileStorage, MemoryStorage, Storage
    from repro.core.summary import ChunkSummary
    from repro.core.timestamp_index import TimestampIndex
    from repro.daemon import client, monitor, protocol, server, transport

    patches = contextlib.ExitStack()
    count = tracer.count

    def patch(owner: Any, name: str, value: Any) -> None:
        patches.enter_context(mock.patch.object(owner, name, value))

    def raw(owner: Any, name: str) -> Any:
        return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)

    def call(owner: Any, name: str, layer: str, op: Optional[str] = None,
             after: Optional[Callable[..., None]] = None, adopt: bool = False) -> None:
        site = tracer.site(layer, op, adopt, kind="counted" if after else "call")
        patch(owner, name, _call_wrapper(tracer, site, raw(owner, name), after))

    def items(owner: Any, name: str, layer: str, counter: Optional[str] = None) -> None:
        site = tracer.site(layer, kind="item")
        patch(owner, name, _gen_wrapper(tracer, site, raw(owner, name), counter))

    # -- write path ----------------------------------------------------
    call(loom.Loom, "push_many", "record_log.push_many", op="ingest")
    patch(record_log, "np", _NumpyProxy(
        _call_wrapper(tracer, tracer.site("events.udf"), np.fromiter)))
    call(record_log, "encode_batch_arrays", "record.encode")
    call(HybridLog, "append_many", "hybridlog.append")
    call(HybridLog, "publish", "hybridlog.publish",
         after=lambda r, *a, **k: count("hybridlog.publish_calls"))

    def storage_bytes(result: Any, self: Any, data: Any, *a: Any) -> None:
        # Count the outermost storage call only (append_extent -> append).
        if tracer.current_layer() != "storage.append":
            count("storage.append_calls")
            count("storage.bytes_written", len(data))

    for cls in (Storage, MemoryStorage):
        call(cls, "append_extent", "storage.append", after=storage_bytes)
    for cls in (FileStorage, MemoryStorage):
        call(cls, "append", "storage.append", after=storage_bytes)
    call(ChunkSummary, "add_records", "summary.fold")
    call(ChunkSummary, "add_indexed_values_array", "summary.fold")
    call(HistogramSpec, "bins_of", "summary.fold")
    call(TimestampIndex, "note_records", "timestamp_index.note",
         after=lambda r, *a, **k: count("timestamp_index.entries", r))
    call(TimestampIndex, "note_chunk", "timestamp_index.note",
         after=lambda r, *a, **k: count("timestamp_index.entries"))
    call(ChunkIndex, "append", "chunk_index.append",
         after=lambda r, *a, **k: count("chunk_index.chunks_finalized"))

    def migrated(report: Any, *a: Any, **k: Any) -> None:
        count("archive.chunks_migrated", report.chunks_migrated)
        count("archive.raw_bytes", report.raw_bytes)
        count("archive.compressed_bytes", report.compressed_bytes)

    call(ChunkMigrator, "run_once", "archive.migrate", op="migrate", after=migrated)
    call(record_log.RecordLog, "_finalize_active_chunk", "summary.fold")
    call(record_log.RecordLog, "_publish", "hybridlog.publish")
    # Loom's self-observation (loomscope) on the write path.
    call(Histogram, "observe", "metrics.record")
    call(PhaseTimer, "__enter__", "metrics.record")
    call(PhaseTimer, "__exit__", "metrics.record")
    call(archive, "encode_chunk_streams", "archive.encode")
    # Compression and the frame write around it.
    call(ArchiveLog, "append_chunk", "archive.encode")
    call(ArchiveLog, "sync", "storage.sync")

    # The benchmark's own host-pace probe: not Loom, but it holds the
    # interpreter lock, so other threads' requests can wait for it.
    import hostspeed
    call(hostspeed, "probe_s", "bench.probe")

    # -- read path -----------------------------------------------------
    def query_stats(result: Any, *a: Any, **k: Any) -> None:
        st = result.stats
        count("prune.summaries_examined", st.summaries_examined)
        count("prune.chunks_skipped", st.chunks_skipped)
        count("operators.records_matched", st.records_matched)
        count("operators.records_decoded", st.records_decoded)

    call(loom.Loom, "scan", "loom.materialise", op="scan", after=query_stats)
    call(loom.Loom, "scan_indexed", "loom.materialise", op="scan_indexed", after=query_stats)
    call(loom.Loom, "aggregate", "loom.materialise", op="percentile", after=query_stats)
    items(loom, "raw_scan", "operators.filter")
    items(loom, "indexed_scan", "operators.filter")
    call(loom, "indexed_aggregate", "operators.aggregate")
    items(operators, "_scan_region", "operators.filter")
    items(operators, "_candidate_summaries", "snapshot.prune")
    items(operators, "_classified_summaries", "snapshot.prune")

    capture = snapshot.Snapshot.__dict__["capture"].__func__
    patch(snapshot.Snapshot, "capture", classmethod(
        _call_wrapper(tracer, tracer.site("snapshot.capture"), capture)))
    call(snapshot.Snapshot, "first_record_after", "snapshot.seek")
    call(snapshot.Snapshot, "chunk_id_window", "snapshot.seek")
    items(snapshot.Snapshot, "summaries_in_time_range", "snapshot.prune")
    items(snapshot.Snapshot, "iter_chain", "snapshot.chain_walk",
          counter="chain_walk.records_decoded")
    call(snapshot.Snapshot, "region_columns", "snapshot.region_decode",
         after=lambda r, *a, **k: count(
             "region_decode.records_decoded", len(r) if r is not None else 0))
    items(record_log.RecordLog, "iter_records_between", "snapshot.region_decode",
          counter="region_decode.records_decoded")

    # Cold reads: a span only for cache misses (decompressions); a hit is
    # a dict lookup, counted but left to its caller's self time.
    read_chunk = ArchiveLog.__dict__["read_chunk_bytes"]
    decompress = _call_wrapper(tracer, tracer.site("archive.read"), read_chunk)

    def read_chunk_bytes(self: Any, chunk_id: int, *a: Any, **k: Any) -> Any:
        count("archive.reads")
        if chunk_id in self._cache:
            count("archive.cache_hits")
            return read_chunk(self, chunk_id, *a, **k)
        return decompress(self, chunk_id, *a, **k)

    patch(ArchiveLog, "read_chunk_bytes", read_chunk_bytes)

    # -- wire path -----------------------------------------------------
    # Client: each verb is one request root.  Ingest uses the header's
    # own (client, seq) key; queries announce theirs in ``trace``.
    query_seq = iter(range(1, 1 << 62))
    inject = threading.local()
    for verb, op in (("ingest", "wire_ingest"), ("scan", "wire_scan"),
                     ("scan_indexed", "wire_scan_indexed"), ("aggregate", "wire_percentile")):
        fn = raw(client.LoomClient, verb)
        wrapped = _call_wrapper(tracer, tracer.site("client.request", op), fn)

        def request(self: Any, *args: Any, _verb: str = verb, _wrapped: Any = wrapped,
                    **kwargs: Any) -> Any:
            if _verb == "ingest":
                key, inject.key = f"{self.client_id}:{self._seq + 1}", None
            else:
                key = inject.key = f"{self.client_id}:q{next(query_seq)}"
            tracer.set_request(tracer.request_id(key))
            try:
                return _wrapped(self, *args, **kwargs)
            finally:
                tracer.set_request(-1)
                inject.key = None

        patch(client.LoomClient, verb, request)

    # The client's deadline, retry and back-off loop around each attempt.
    call(client.LoomClient, "_request", "client.retry")
    encode = _call_wrapper(tracer, tracer.site("protocol.pack"), client.encode_frame)

    def client_encode(header: Dict[str, object], body: bytes = b"") -> bytes:
        key = getattr(inject, "key", None)
        if key is not None:
            header["trace"] = key
        return encode(header, body)  # type: ignore[no-any-return]

    patch(client, "encode_frame", client_encode)
    call(client, "pack_payloads", "protocol.pack")
    call(client, "split_frame", "protocol.unpack")
    call(client, "result_from_wire", "protocol.result_codec")
    call(transport.TcpTransport, "set_timeout", "transport.send")
    call(transport.TcpTransport, "send_frame", "transport.send")
    call(transport.TcpTransport, "recv_frame", "transport.recv_wait")
    call(protocol, "pack_records", "protocol.result_codec")
    call(protocol, "unpack_records", "protocol.result_codec")

    # Server event loop: the request is known once its header is split;
    # the split's own span (the last one on the thread) is tagged then.
    def request_of(result: Tuple[Dict[str, object], bytes], payload: bytes) -> None:
        header = result[0]
        key = header.get("trace")
        if not isinstance(key, str):
            key = f'{header.get("client", "?")}:{header.get("seq", -1)}'
        buf = tracer.buffer()
        buf.req_cur = buf.spans[len(buf.spans) - _WIDTH + _REQ] = tracer.request_id(key)
        for idx in buf.pending_reads:
            buf.spans[idx + _REQ] = buf.req_cur
        buf.pending_reads.clear()

    call(server, "split_frame", "protocol.unpack", after=request_of, adopt=True)

    # The server's reads of a frame off its socket, from the call (the
    # connection idles until the client sends) to the bytes in hand.
    readexactly = raw(asyncio.StreamReader, "readexactly")
    read_site = tracer.site(SERVER_READ, adopt=True)

    async def server_read(self: Any, n: int) -> bytes:
        started = _now()
        data = await readexactly(self, n)
        buf = tracer.buffer()
        buf.pending_reads.append(len(buf.spans))
        tracer.record(read_site, started, _now(), -1)
        return data  # type: ignore[no-any-return]

    patch(asyncio.StreamReader, "readexactly", server_read)
    call(server, "unpack_payloads", "protocol.unpack", adopt=True)
    call(server, "encode_frame", "protocol.pack", adopt=True)
    call(server, "result_to_wire", "protocol.result_codec", adopt=True)
    call(server._Shard, "admit", "server.admit", adopt=True)

    blocking = raw(server.LoomServer, "_blocking_fn")
    exec_site = tracer.site("server.execute", adopt=True)

    def blocking_fn(self: Any, *args: Any, **kwargs: Any) -> Callable[[], bytes]:
        """Carry the request id from the event loop to the executor."""
        fn = _call_wrapper(tracer, exec_site, blocking(self, *args, **kwargs))
        req = tracer.buffer().req_cur

        def run() -> bytes:
            tracer.set_request(req)
            try:
                return fn()  # type: ignore[no-any-return]
            finally:
                tracer.set_request(-1)

        return run

    patch(server.LoomServer, "_blocking_fn", blocking_fn)

    # The executor hand-off.  Recorded flat, as other requests run on the
    # event loop while this one waits.
    op_blocking = raw(server.LoomServer, "_op_blocking")
    dispatch_site = tracer.site(DISPATCH, adopt=True)

    async def dispatch(self: Any, *args: Any, **kwargs: Any) -> bytes:
        buf = tracer.buffer()
        req, started = buf.req_cur, _now()
        try:
            return await op_blocking(self, *args, **kwargs)  # type: ignore[no-any-return]
        finally:
            tracer.record(dispatch_site, started, _now(), req)
            buf.req_cur = req  # the response write that follows is this request's

    patch(server.LoomServer, "_op_blocking", dispatch)
    call(asyncio.StreamWriter, "write", "transport.send", adopt=True)
    call(monitor.MonitoringDaemon, "receive_batch", "monitor.apply", op="apply")
    return patches


class TracedQueue:
    """Drop-in for a shard's ingest queue that records each batch's
    queue wait and hands its request id to the shard worker."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._site = tracer.site("server.queue_wait")
        self._put_at: Dict[int, int] = {}

    def put(self, item: Any) -> None:
        if item is not None and item[0] == "batch":
            self._put_at[id(item)] = _now()
        self._inner.put(item)

    def get(self) -> Any:
        item = self._inner.get()
        if item is not None and item[0] == "batch":
            got = _now()
            put = self._put_at.pop(id(item), got)
            req = self._tracer.request_id(item[1])
            self._tracer.record(self._site, put, got, req)
            self._tracer.set_request(req)
        return item

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)
