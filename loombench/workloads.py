"""The three benchmark workloads: capture, drilldown and live.

Each workload reports every end-to-end metric ``BENCHMARK.json``
declares, so every metric compares run to run on every workload: its
timed phase supplies the metrics the workload is about, and the phase it
needs anyway supplies the rest --

* ``capture`` times closed-loop ingest into a file-backed, auto-migrating
  log, then the drill-down query mix over what it captured;
* ``drilldown`` times queries over a log it loaded (timed as ingest) and
  migrated to the cold tier in set-up;
* ``live`` times open-loop wire ingest beside a closed-loop wire reader;
  its ingest batch latency is the ACK latency from when a batch was due.

Each workload does a fixed amount of work for a given ``--seconds`` (whole
capture passes, a set number of queries per verb), so two runs measure
the same operations, and every timing is scaled to the reference host
pace of :mod:`hostspeed`.
"""

from __future__ import annotations

import random
import re
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core import Loom, LoomConfig, VirtualClock
from repro.core.config import TierConfig
from repro.core.operators import POS_INF
from repro.daemon.client import LoomClient
from repro.daemon.monitor import MonitoringDaemon
from repro.daemon.server import LoomServer

import data
from data import BURST, INDEXES, MS, NS, SLOW_US, SOURCES, Dataset, Query
from hostspeed import HostSpeed, Samples
from stats import open_loop_latencies, required_percentile, summarize
from tracing import TracedQueue, Tracer

perf = time.perf_counter

#: Paper chunk size: ~1,000 chunks for the 66 MB the capture writes.
CHUNK_SIZE = 64 * 1024
#: Set-ups timed per run; ``setup_s`` is their median.  Opening an
#: empty log or starting a server takes milliseconds, so ``capture`` and
#: ``live`` time more of them.
SETUPS = 3
CAPTURE_SETUPS = 31
LIVE_SETUPS = 15
#: Open-loop offered rate of the live writer (records/s).  Loom holds
#: it with no backlog and an ACK p99 near 8 ms on a 2-core host.  The
#: ACK tail is set by waits for the interpreter lock while the reader's
#: query runs; at 30k rec/s its p99 moved between 10 and 18 ms from run
#: to run, at 50k by half, and at 100k rec/s the backlog grows.
LIVE_RATE = 20_000
#: Live: batches before this are warm-up and not measured.
LIVE_WARMUP_S = 1.0
#: Live reader windows: the last second of data (packet dumps: 50 ms).
LIVE_WINDOW_NS = {"scan": 50 * MS, "scan_indexed": 1 * NS, "percentile": 1 * NS}
#: Live reader think time between queries.  A departure from a reader
#: that never pauses: with none, the reader holds the interpreter lock
#: almost all the time and the ACK tail swings with whatever else the
#: host runs.  The share of time the reader is busy is recorded.
LIVE_THINK_S = 0.05
#: Live: a run whose ingest queue ends deeper than this, or whose applied
#: rate falls short of the offered rate by more than ``LIVE_RATE_SLACK``,
#: had a growing backlog and fails.
LIVE_MAX_QUEUE = 4
LIVE_RATE_SLACK = 0.03
#: Fewest samples per query verb: enough for a p90 with ten beyond it.
MIN_PER_VERB = 110


def capture_passes(seconds: float) -> int:
    """Whole passes over the case study per ``capture`` run (a pass takes
    about 5 s on a 2-core host; at least two, so the first-pass warm-up
    is never the whole sample)."""
    return max(2, round(seconds / 8))


def queries_per_verb(workload: str, seconds: float) -> int:
    """Queries of each verb per run: ``drilldown`` spends ``seconds`` on
    them (a query takes about 30 ms), ``capture`` about half that."""
    per_s = 10 if workload == "drilldown" else 6
    return max(MIN_PER_VERB, round(seconds * per_s))


@dataclass
class Outcome:
    """What one workload run measured."""

    #: name -> (value, unit, sample count)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Per operation type: durations in seconds (tracing overhead base).
    op_seconds: Dict[str, List[float]] = field(default_factory=dict)
    #: Per-layer figures only the workload can see (loadgen, client).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Per latency series: median and highest supported tail, in ms.
    tails: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Left open for the output check: the last log and the query answers.
    local: Optional["_LocalLoom"] = None
    answers: List[Tuple[Query, int, Optional[float]]] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)
    #: The run's host-pace probes; timings are scaled by them.
    speed: HostSpeed = field(default_factory=HostSpeed)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, samples)

    def tail(self, name: str, seconds: List[float]) -> None:
        self.tails[name] = summarize([x * 1e3 for x in seconds])


def loom_config(data_dir: str) -> LoomConfig:
    """File-backed, ``threaded_flush`` off, paper chunk size, cold tier."""
    return LoomConfig(
        data_dir=data_dir,
        chunk_size=CHUNK_SIZE,
        tier=TierConfig(),
    )


def define_schema(loom: Loom) -> Dict[str, int]:
    for sid in SOURCES.values():
        loom.define_source(sid)
    return {
        f"{src}/{name}": loom.define_index(SOURCES[src], udf, edges)
        for src, name, udf, edges in INDEXES
    }


def stored_bytes(loom: Loom) -> int:
    """Bytes Loom keeps: hot log, archive, both index logs, journals."""
    fp = loom.footprint()
    return (
        fp["hot_bytes"] + fp["archive_log_bytes"] + fp["chunk_index_bytes"]
        + fp["timestamp_index_bytes"] + fp["journal_bytes"]
    )


def _status_kb(field_name: str) -> int:
    with open("/proc/self/status") as f:
        match = re.search(rf"^{field_name}:\s+(\d+) kB", f.read(), re.M)
    if match is None:
        raise RuntimeError(f"/proc/self/status has no {field_name}")
    return int(match.group(1))


class MemoryPeak:
    """Peak resident memory of the measured part of a run.

    The generated inputs (over a million payloads) stay resident for the
    whole run, and generating them peaks above that.  The process
    high-water mark is reset once they exist, so the peak is that of the
    inputs at rest plus what Loom and the workload add, not the
    generator's.
    """

    def __init__(self) -> None:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")  # resets VmHWM to the current VmRSS
        #: Resident size right after the reset: the inputs at rest.
        self.base_mb = _status_kb("VmRSS") / 1024.0

    def mb(self) -> float:
        return _status_kb("VmHWM") / 1024.0


def put_ingest(out: Outcome, records: int, batches: Samples, syncs: Samples) -> None:
    batch_s = out.speed.scale(batches)
    out.op_seconds["ingest"] = batch_s
    out.tail("ingest_batch", batch_s)
    busy = sum(batch_s) + sum(out.speed.scale(syncs))
    out.put("ingest_rps", records / busy, "1/s", len(batch_s))
    out.put("ingest_batch_p50_us", required_percentile(batch_s, 50) * 1e6, "us", len(batch_s))
    out.put("ingest_batch_p99_us", required_percentile(batch_s, 99) * 1e6, "us", len(batch_s))


def put_queries(out: Outcome, latencies: Dict[str, Samples], prefix: str = "") -> None:
    for verb in data.VERBS:
        xs = out.speed.scale(latencies[verb]) if verb in latencies else []
        out.op_seconds[prefix + verb] = xs
        out.tail(verb, xs)
        out.put(f"{verb}_p50_ms", required_percentile(xs, 50) * 1e3, "ms", len(xs))
        out.put(f"{verb}_p90_ms", required_percentile(xs, 90) * 1e3, "ms", len(xs))


def put_common(out: Outcome, setups: Samples, memory: MemoryPeak) -> None:
    out.put("setup_s", statistics.median(out.speed.scale(setups)), "s", len(setups))
    out.put("peak_rss_mb", memory.mb(), "MB", 1)
    out.params["inputs_rss_mb"] = memory.base_mb


class _LocalLoom:
    """Opens a file-backed Loom in a fresh directory and removes it."""

    def __init__(self, root: str) -> None:
        self.dir = tempfile.mkdtemp(prefix="loom-", dir=root)
        self.clock = VirtualClock()
        self.loom = Loom(loom_config(self.dir), clock=self.clock)
        self.index_ids = define_schema(self.loom)

    def ingest(self, ds: Dataset, batches: Samples, syncs: Samples, speed: HostSpeed) -> None:
        """Replay every burst through ``push_many``, timing each batch
        and the final sync."""
        push_many, clock, tick = self.loom.push_many, self.clock, speed.tick
        for ts, name, payloads in ds.bursts:
            tick()
            if ts > clock.now():
                clock.set(ts)
            t = perf()
            push_many(SOURCES[name], payloads)
            batches.add(t, perf())
        t = perf()
        self.loom.sync()
        syncs.add(t, perf())

    def close(self) -> None:
        self.loom.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def run_queries(
    loom: Loom, ids: Dict[str, int], queries: List[Query],
    latencies: Dict[str, Samples], speed: HostSpeed,
) -> List[Tuple[Query, int, Optional[float]]]:
    """Closed loop over ``queries``; returns the answers."""
    answers = []
    app, syscall = ids["app/latency"], ids["syscall/latency"]
    for q in queries:
        speed.tick()
        t = perf()
        if q.verb == "scan":
            r = loom.scan(SOURCES["packet"], (q.t0, q.t1))
        elif q.verb == "scan_indexed":
            r = loom.scan_indexed(SOURCES["app"], app, (q.t0, q.t1), (SLOW_US, POS_INF))
        else:
            r = loom.aggregate(SOURCES["syscall"], syscall, (q.t0, q.t1), "percentile", 99.0)
        latencies.setdefault(q.verb, Samples()).add(t, perf())
        # Scans are checked by the records they returned, not a counter.
        answers.append((q, r.count if r.records is None else len(r.records), r.value))
    return answers


def check_answers(ds: Dataset, answers: List[Tuple[Query, int, Optional[float]]],
                  out: Outcome) -> None:
    for q, count, value in answers:
        want_count, want_value = data.expected(ds, q)
        if count != want_count or (q.verb == "percentile" and value != want_value):
            out.fail(f"{q}: got ({count}, {value}), want ({want_count}, {want_value})")


def check_counts(ds: Dataset, loom: Loom, out: Outcome) -> None:
    for name, sid in SOURCES.items():
        got, want = loom.source_record_count(sid), len(ds.refs[name].ts)
        out.attempted += 1
        if got != want:
            out.fail(f"{name}: {got} records stored, {want} pushed")


def check_needles(ds: Dataset, loom: Loom, ids: Dict[str, int], out: Outcome) -> None:
    """The Figure 3 drill-down: the needle hunt finds the six slow
    requests, and a packet dump around each finds its mangled packet."""
    t0, t1 = ds.phase_bounds[3]
    hunt = loom.scan_indexed(
        SOURCES["app"], ids["app/latency"], (t0, t1 - 1), (SLOW_US, POS_INF)
    )
    out.attempted += 1
    found = sorted(data.events.latency_op_id(bytes(r.payload)) for r in hunt.records)
    want = sorted(op for op, _ in ds.needles)
    if found != want:
        out.fail(f"needle hunt found ops {found}, planted {want}")
        return
    for record, (_, seq) in zip(sorted(hunt.records, key=lambda r: r.timestamp),
                                sorted(ds.needles)):
        out.attempted += 1
        dump = loom.scan(SOURCES["packet"], (record.timestamp - 50 * MS, record.timestamp + 50 * MS))
        packets = [data.events.unpack_packet(bytes(p.payload)) for p in dump.records]
        mangled = [p[4] for p in packets if p[1] == data.events.MANGLED_PORT]
        if seq not in mangled:
            out.fail(f"packet dump around {record.timestamp} misses mangled seq {seq:#x}")


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def capture(ds: Dataset, seconds: float, root: str, setups: int, seed: int,
            tracer: Optional[Tracer] = None) -> Outcome:
    memory = MemoryPeak()
    passes = capture_passes(seconds)
    per_pass = -(-queries_per_verb("capture", seconds) // passes) * len(data.VERBS)
    out = Outcome(params={
        "loop": "closed, 1 thread, in-process", "burst": BURST, "scale": data.SCALE,
        "chunk_size": CHUNK_SIZE, "tier": "TierConfig() auto_migrate=True",
        "flush": "file-backed temp dir, threaded_flush off",
        "passes": passes, "queries_per_pass": per_pass,
    })
    speed = out.speed
    setup = Samples()

    def open_log() -> _LocalLoom:
        speed.now()
        t = perf()
        local = _LocalLoom(root)
        setup.add(t, perf())
        speed.now()
        return local

    for _ in range((CAPTURE_SETUPS if setups > 1 else 1) - 1):
        open_log().close()
    # Each pass captures the whole case study into a fresh log, then runs
    # its share of the drill-down queries over it, so host drift within
    # the run falls on ingest and queries alike.
    batches, syncs = Samples(), Samples()
    latencies: Dict[str, Samples] = {}
    queries = data.query_mix(ds, seed, passes * per_pass)
    answers: List[Tuple[Query, int, Optional[float]]] = []
    local: Optional[_LocalLoom] = None
    for i in range(passes):
        if local is not None:
            local.close()
        local = open_log()
        local.ingest(ds, batches, syncs, speed)
        out.attempted += len(ds.bursts)
        check_counts(ds, local.loom, out)
        answers += run_queries(local.loom, local.index_ids,
                               queries[i * per_pass:(i + 1) * per_pass], latencies, speed)
    assert local is not None
    speed.now()
    out.extra["input_bytes"] = passes * ds.payload_bytes
    put_ingest(out, passes * ds.records, batches, syncs)
    out.put("stored_bytes_per_input_byte", stored_bytes(local.loom) / ds.payload_bytes, "B/B", 1)
    out.attempted += len(answers)
    put_queries(out, latencies)
    put_common(out, setup, memory)
    out.answers, out.local = answers, local
    return out


def capture_check(ds: Dataset, out: Outcome) -> None:
    local = out.local
    assert local is not None
    try:
        check_answers(ds, out.answers, out)
        # Each phase's exact p99 request latency against numpy (the
        # syscall p99s would add ~7 s of cold decompression to every run).
        ref = ds.refs["app"]
        for phase, (t0, t1) in ds.phase_bounds.items():
            window = ref.window(t0, t1 - 1)
            out.attempted += 1
            r = local.loom.aggregate(
                SOURCES["app"], local.index_ids["app/latency"], (t0, t1 - 1),
                "percentile", 99.0,
            )
            want = data.nearest_rank(ref.value[window], 99.0)
            if r.value != want or r.count != window.stop - window.start:
                out.fail(f"phase {phase} app p99: got ({r.count}, {r.value}), "
                         f"want ({window.stop - window.start}, {want})")
    finally:
        local.close()


# ----------------------------------------------------------------------
# drilldown
# ----------------------------------------------------------------------
def drilldown(ds: Dataset, seconds: float, root: str, setups: int, seed: int,
              tracer: Optional[Tracer] = None) -> Outcome:
    memory = MemoryPeak()
    out = Outcome(params={
        "loop": "closed, 1 thread, in-process", "burst": BURST, "scale": data.SCALE,
        "chunk_size": CHUNK_SIZE,
        "tier": "TierConfig() auto_migrate=True, one forced migrate() after the load",
        "flush": "file-backed temp dir, threaded_flush off",
        "windows_ms": {v: w / MS for v, w in data.WINDOW_NS.items()},
        "hot_every": data.HOT_EVERY,
        "queries_per_verb": queries_per_verb("drilldown", seconds),
    })
    speed = out.speed
    setup, batches, syncs = Samples(), Samples(), Samples()
    local: Optional[_LocalLoom] = None
    for i in range(setups):
        if local is not None:
            local.close()
        speed.now()
        t = perf()
        local = _LocalLoom(root)
        local.ingest(ds, batches, syncs, speed)
        local.loom.migrate()
        setup.add(t, perf())
        out.attempted += len(ds.bursts)
        check_counts(ds, local.loom, out)
    assert local is not None
    out.extra["input_bytes"] = setups * ds.payload_bytes
    out.put("stored_bytes_per_input_byte", stored_bytes(local.loom) / ds.payload_bytes, "B/B", 1)

    latencies: Dict[str, Samples] = {}
    queries = data.query_mix(ds, seed, queries_per_verb("drilldown", seconds) * len(data.VERBS))
    answers = run_queries(local.loom, local.index_ids, queries, latencies, speed)
    speed.now()
    out.attempted += len(answers)
    put_ingest(out, setups * ds.records, batches, syncs)
    put_queries(out, latencies)
    put_common(out, setup, memory)
    out.answers, out.local = answers, local
    return out


def drilldown_check(ds: Dataset, out: Outcome) -> None:
    local = out.local
    assert local is not None
    try:
        check_answers(ds, out.answers, out)
        check_needles(ds, local.loom, local.index_ids, out)
    finally:
        local.close()


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------
def _server_schema(shard: int, daemon: MonitoringDaemon) -> None:
    for name, sid in SOURCES.items():
        daemon.enable_source(name, sid)
    for src, name, udf, edges in INDEXES:
        daemon.add_index(src, name, udf, edges)


@dataclass
class _Live:
    server: LoomServer
    writer: LoomClient
    reader: LoomClient

    def close(self) -> None:
        self.writer.close()
        self.reader.close()
        self.server.stop()


def _live_setup(tracer: Optional[Tracer]) -> _Live:
    server = LoomServer(setup=_server_schema)
    if tracer is not None:
        for shard in server.shards:
            shard.queue = TracedQueue(shard.queue, tracer)
    server.start()
    writer = LoomClient(port=server.port, client_id="writer")
    reader = LoomClient(port=server.port, client_id="reader")
    writer.health()
    reader.health()
    return _Live(server, writer, reader)


def live(ds: Dataset, seconds: float, root: str, setups: int, seed: int,
         tracer: Optional[Tracer] = None) -> Outcome:
    memory = MemoryPeak()
    out = Outcome(params={
        "loop": "writer open-loop, reader closed-loop, 2 client threads, 2 connections",
        "offered_rps": LIVE_RATE, "burst": BURST, "scale": data.SCALE,
        "phases": list(ds.phases), "server": "1 shard, default ServerConfig",
        "flush": "in-memory (default LoomConfig)", "tier": None,
        "warmup_s": LIVE_WARMUP_S,
        "reader_windows_ms": {v: w / MS for v, w in LIVE_WINDOW_NS.items()},
        "reader_think_s": LIVE_THINK_S,
    })
    speed = out.speed
    setup = Samples()
    session: Optional[_Live] = None
    for _ in range(LIVE_SETUPS if setups > 1 else 1):
        if session is not None:
            session.close()
        speed.now()
        t = perf()
        session = _live_setup(tracer)
        setup.add(t, perf())
        speed.now()
    assert session is not None
    shard = session.server.shards[0]
    loom = shard.daemon.loom
    bursts = [b for b in ds.bursts if len(b[2]) == BURST]
    interval = BURST / LIVE_RATE
    start = perf() + 0.05
    measure_from = start + LIVE_WARMUP_S
    stop_at = measure_from + seconds

    due: List[float] = []
    sent: List[float] = []
    done: List[float] = []
    acked: Dict[str, int] = {name: 0 for name in SOURCES}
    acked_bytes = [0]
    errors: List[str] = []
    # The reader ends the measurement once the time is up and it has
    # enough samples of every verb; the writer keeps its rate until then.
    stop = threading.Event()

    def write() -> None:
        k = 0
        while not stop.is_set():
            t_due = start + k * interval
            now = perf()
            if now < t_due:
                time.sleep(t_due - now)
            _, name, payloads = bursts[k % len(bursts)]
            t_sent = perf()
            try:
                session.writer.ingest(name, payloads)
            except Exception as exc:  # counted as a failed operation
                errors.append(f"ingest {k}: {type(exc).__name__}: {exc}")
            else:
                acked[name] += len(payloads)
                acked_bytes[0] += sum(len(p) for p in payloads)
            due.append(t_due)
            sent.append(t_sent)
            done.append(perf())
            k += 1

    latencies: Dict[str, Samples] = {}
    reads = [0]
    busy = [0.0]

    def read() -> None:
        rng = random.Random(seed)
        clock = shard.daemon.clock
        while perf() < measure_from:
            time.sleep(0.01)
        while len(errors) < 100 and (perf() < stop_at or min(
            len(latencies.get(v, ())) for v in data.VERBS  # type: ignore[arg-type]
        ) < MIN_PER_VERB):
            cycle = list(data.VERBS)
            rng.shuffle(cycle)
            for verb in cycle:
                now = clock.now()
                window = (now - LIVE_WINDOW_NS[verb], now)
                reads[0] += 1
                # Only the reader probes the host pace, right before and
                # after each query, so the probe rarely delays an ACK.
                speed.now()
                t = perf()
                try:
                    if verb == "scan":
                        r = session.reader.scan("packet", window)
                    elif verb == "scan_indexed":
                        r = session.reader.scan_indexed(
                            "app", "latency", window, (SLOW_US, POS_INF))
                    else:
                        r = session.reader.aggregate(
                            "syscall", "latency", window, "percentile", 99.0)
                except Exception as exc:  # counted as a failed operation
                    errors.append(f"{verb}: {type(exc).__name__}: {exc}")
                    continue
                latencies.setdefault(verb, Samples()).add(t, perf())
                busy[0] += perf() - t
                speed.now()
                if verb == "percentile" and r.count > 0 and r.value is None:
                    errors.append(f"percentile over {window} has no value")
                time.sleep(LIVE_THINK_S)

    def read_then_stop() -> None:
        try:
            read()
        finally:
            stop.set()

    threads = [threading.Thread(target=write, name="live-writer"),
               threading.Thread(target=read_then_stop, name="live-reader")]
    for th in threads:
        th.start()
    time.sleep(max(0.0, measure_from - perf()))
    applied0, t_a = shard.records.value, perf()
    stop.wait()
    applied1, t_b = shard.records.value, perf()
    queue_depth = shard.queue.qsize()
    for th in threads:
        th.join()

    speed.now()
    measured = [i for i, d in enumerate(due) if d >= measure_from]
    acks = Samples()
    acks.starts = [due[i] for i in measured]
    acks.durations = open_loop_latencies(acks.starts, [done[i] for i in measured])
    ack_s = speed.scale(acks)
    lag_s = sorted(sent[i] - due[i] for i in measured)
    out.attempted += len(due) + reads[0]
    out.failures.extend(errors)
    applied_rps = (applied1 - applied0) / (t_b - t_a)
    out.put("ingest_rps", applied_rps, "1/s", len(measured))
    out.tail("ingest_batch (ACK from due)", ack_s)
    out.tail("loadgen lag", lag_s)
    out.put("ingest_batch_p50_us", required_percentile(ack_s, 50) * 1e6, "us", len(ack_s))
    out.put("ingest_batch_p99_us", required_percentile(ack_s, 99) * 1e6, "us", len(ack_s))
    put_queries(out, latencies, prefix="wire_")
    wire = Samples()
    for i in measured:
        wire.add(sent[i], done[i])
    out.op_seconds["wire_ingest"] = speed.scale(wire)
    out.extra["loadgen.lag_p99_ms"] = required_percentile(lag_s, 99) * 1e3
    out.extra["client.backpressure_hits"] = session.writer.backpressure_hits
    out.extra["client.retries"] = session.writer.retries + session.reader.retries
    out.params["queue_depth_end"] = queue_depth
    out.params["reader_busy_frac"] = busy[0] / (t_b - t_a)

    # A growing backlog makes the offered rate meaningless.
    out.attempted += 1
    if queue_depth > LIVE_MAX_QUEUE or applied_rps < LIVE_RATE * (1 - LIVE_RATE_SLACK):
        out.fail(f"backlog: {queue_depth} batches queued at the end, "
                 f"{applied_rps:.0f} rec/s applied of {LIVE_RATE} offered")
    # Output check: every ACKed record was applied exactly once.
    session.writer.sync()
    out.attempted += 1
    for name, sid in SOURCES.items():
        if loom.source_record_count(sid) != acked[name]:
            out.fail(f"{name}: {loom.source_record_count(sid)} applied, {acked[name]} ACKed")
    if shard.dedup_hits.value or session.writer.deduped_acks:
        out.fail(f"{shard.dedup_hits.value} duplicate batches reached the server")
    out.put("stored_bytes_per_input_byte", stored_bytes(loom) / acked_bytes[0], "B/B", 1)
    out.extra["input_bytes"] = acked_bytes[0]
    put_common(out, setup, memory)
    session.close()
    return out


WORKLOADS = {
    "capture": (data.make_dataset, capture, capture_check),
    "drilldown": (data.make_dataset, drilldown, drilldown_check),
    "live": (lambda seed: data.make_dataset(seed, phases=(3,)), live, None),
}
