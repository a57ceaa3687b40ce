"""Tests of the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest loombench -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import stats
import tracing


# ----------------------------------------------------------------------
# Reported percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, tail",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, tail):
    assert stats.highest_supported(n) == tail
    summary = stats.summarize([float(i) for i in range(n)])
    assert summary["samples"] == n
    if tail is None:
        assert "tail" not in summary
    else:
        assert summary["tail_pct"] == tail
        # Nearest rank: at least ten samples lie above the reported value.
        assert sum(1 for i in range(n) if i > summary["tail"]) >= 10


def test_named_percentile_refuses_a_sample_too_small():
    assert stats.required_percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError, match="p90 needs 100 samples, got 99"):
        stats.required_percentile(list(range(99)), 90)
    with pytest.raises(ValueError, match="p99 needs 1000 samples"):
        stats.required_percentile(list(range(999)), 99)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    ordered = sorted(values)
    assert stats.percentile(ordered, 50) == 3.0
    assert stats.percentile(ordered, 99) == 5.0
    assert stats.percentile(ordered, 20) == 1.0


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_overlapping_children_once():
    # [1, 5] and [2, 4] nest, [4, 6] overlaps them, [8, 12] sticks out of
    # the span: covered is [1, 6] plus [8, 10].
    children = [(1, 5), (2, 4), (4, 6), (8, 12)]
    assert stats.self_time((0, 10), children) == 10 - 5 - 2


def test_self_time_ignores_children_outside_and_empty():
    assert stats.self_time((0, 10), [(-5, -1), (10, 20), (3, 3)]) == 10
    assert stats.self_time((0, 10), []) == 10


def _tracer_with(rows_by_thread, sites):
    tracer = tracing.Tracer()
    for layer, op, adopt in sites:
        tracer.site(layer, op, adopt)
    for rows in rows_by_thread:
        buf = tracing._Buffer()
        for site, parent, req, start, end in rows:
            buf.spans.extend((site, parent * tracing._WIDTH if parent >= 0 else -1,
                              req, start, end))
        tracer._buffers.append(buf)
    return tracer


def test_nested_spans_partition_the_root():
    tracer = _tracer_with(
        [[(0, -1, -1, 0, 100), (1, 0, -1, 10, 50), (2, 1, -1, 20, 30)]],
        [("root", "op", False), ("child", None, False), ("grandchild", None, False)],
    )
    report = tracer.analyse()
    assert report.layer_self_s == pytest.approx({
        "root": 60e-9, "child": 30e-9, "grandchild": 10e-9, "gil.wait": 0.0,
    })
    assert report.op_e2e_s["op"] == pytest.approx(100e-9)
    # The root's own time is what no layer under it accounts for.
    assert report.coverage("op") == pytest.approx(0.4)


def test_server_spans_of_a_request_are_charged_once():
    # Client thread: request root [0, 100] with send [5, 20] and receive
    # wait [20, 90].  Server thread, same request: work [15, 70], which
    # starts while the client is still sending.
    tracer = _tracer_with(
        [
            [(0, -1, 7, 0, 100), (1, 0, 7, 5, 20), (2, 0, 7, 20, 90)],
            [(3, -1, 7, 15, 70)],
        ],
        [("client.request", "wire", False), ("transport.send", None, False),
         ("transport.recv_wait", None, False), ("server.execute", None, True)],
    )
    report = tracer.analyse()
    ns = {k: round(v * 1e9) for k, v in report.layer_self_s.items()}
    assert ns == {
        "client.request": 5 + 10,       # [0, 5] and [90, 100]
        "transport.send": 10,           # [5, 15]
        "transport.recv_wait": 20,      # [70, 90]
        "server.execute": 55,
        "gil.wait": 0,
    }
    assert sum(ns.values()) == 100
    assert report.op_count == {"wire": 1}
    # Unexplained: the root's own time and the receive wait no span covers.
    assert report.coverage("wire") == pytest.approx(1 - (15 + 20) / 100)


def test_receive_wait_beside_another_threads_work_is_lock_wait():
    # As above, and a third thread applies an earlier batch over [60, 85]
    # while the client still waits: [70, 85] of the wait is the request
    # waiting for the interpreter lock, [85, 90] stays unexplained.
    tracer = _tracer_with(
        [
            [(0, -1, 7, 0, 100), (1, 0, 7, 5, 20), (2, 0, 7, 20, 90)],
            [(3, -1, 7, 15, 70)],
            [(4, -1, 3, 60, 85)],
        ],
        [("client.request", "wire", False), ("transport.send", None, False),
         ("transport.recv_wait", None, False), ("server.execute", None, True),
         ("monitor.apply", "apply", False)],
    )
    report = tracer.analyse()
    ns = {k: round(v * 1e9) for k, v in report.op_layer_s["wire"].items()}
    assert ns["transport.recv_wait"] == 5
    assert ns["gil.wait"] == 15
    assert report.coverage("wire") == pytest.approx(1 - (15 + 5) / 100)
    # A span that only waits (another client's receive) is not running code.
    quiet = _tracer_with(
        [
            [(0, -1, 7, 0, 100), (1, 0, 7, 20, 90)],
            [(2, -1, 8, 0, 100), (1, 0, 8, 10, 95)],
        ],
        [("client.request", "wire", False), ("transport.recv_wait", None, False),
         ("client.request", "wire", False)],
    ).analyse()
    assert quiet.layer_self_s["gil.wait"] == 0


def test_executor_hand_off_is_what_the_other_server_spans_leave():
    # The event loop reads the frame over [-40, 25] (it idled from -40
    # until the frame came), hands the query off over [15, 80], and the
    # executor runs it over [30, 70].  Of the read, only [20, 25] -- after
    # the client sent and while it waits -- is the request's; the hand-off
    # keeps [15, 20], [25, 30] and [70, 80]; the client's receive wait
    # keeps only [80, 90].
    tracer = _tracer_with(
        [
            [(0, -1, 7, 0, 100), (1, 0, 7, 5, 20), (2, 0, 7, 20, 90)],
            [(5, -1, 7, -40, 25), (3, -1, 7, 15, 80)],
            [(4, -1, 7, 30, 70)],
        ],
        [("client.request", "wire", False), ("transport.send", None, False),
         ("transport.recv_wait", None, False), ("server.dispatch", None, True),
         ("server.execute", None, True), ("server.read", None, True)],
    )
    report = tracer.analyse()
    ns = {k: round(v * 1e9) for k, v in report.op_layer_s["wire"].items()}
    assert ns == {"client.request": 15, "transport.send": 10, "transport.recv_wait": 10,
                  "server.read": 5, "server.dispatch": 20, "server.execute": 40}
    assert sum(ns.values()) == 100
    assert report.coverage("wire") == pytest.approx(1 - (15 + 10) / 100)


def test_interval_union_measures_cover_of_many_windows():
    union = stats.IntervalUnion(np.array([1, 2, 4, 8]), np.array([5, 4, 6, 12]))
    assert union.lo.tolist() == [1, 8] and union.hi.tolist() == [6, 12]
    got = union.covered(np.array([0, 0, 5, 9, 13]), np.array([10, 3, 9, 20, 14]))
    assert got.tolist() == [7, 2, 2, 3, 0]
    assert stats.IntervalUnion(np.array([]), np.array([])).covered(
        np.array([0]), np.array([5])).tolist() == [0]


def test_tracer_cost_is_taken_from_spans_and_parents():
    tracer = _tracer_with(
        [[(0, -1, -1, 0, 100), (1, 0, -1, 10, 20), (1, 0, -1, 30, 40)]],
        [("root", "op", False), ("child", None, False)],
    )
    tracer.calibration = tracing.Calibration(own={"call": 2.0}, parent={"call": 3.0})
    report = tracer.analyse()
    # Each child loses 2 ns of its own; the root loses 2 + 2 * 3.
    assert report.layer_self_s["child"] == pytest.approx(2 * 8e-9)
    assert report.layer_self_s["root"] == pytest.approx((80 - 8) * 1e-9)
    assert report.tracer_s == pytest.approx(12e-9)


def test_generator_spans_time_each_item_not_the_consumer():
    tracer = tracing.Tracer()
    site = tracer.site("gen", kind="item")
    wrapped = tracing._gen_wrapper(tracer, site, lambda: iter([1, 2, 3]), counter="items")
    assert list(wrapped()) == [1, 2, 3]
    rows = list(tracer.buffer().spans)
    assert len(rows) == 4 * tracing._WIDTH  # three items and the final StopIteration
    assert tracer.buffer().counts == {"items": 3}


# ----------------------------------------------------------------------
# Open-loop latency
# ----------------------------------------------------------------------
def test_open_loop_latency_charges_a_stall_to_every_later_request():
    interval, service = 1.0, [0.1, 3.5, 0.1, 0.1, 0.1, 0.1]
    due, done, free = [], [], 0.0
    for k, cost in enumerate(service):
        t_due = k * interval
        sent = max(t_due, free)  # one connection: wait for the previous ACK
        free = sent + cost
        due.append(t_due)
        done.append(free)
    latency = stats.open_loop_latencies(due, done)
    assert latency[0] == pytest.approx(0.1)
    assert latency[1] == pytest.approx(3.5)
    # Requests 2-4 were due while request 1 stalled: each carries the
    # wait, not just its own 0.1 s of service.
    assert latency[2:5] == pytest.approx([2.6, 1.7, 0.8])
    assert latency[5] == pytest.approx(0.1)
    with pytest.raises(ValueError):
        stats.open_loop_latencies([0.0], [])


# ----------------------------------------------------------------------
# The declared metrics
# ----------------------------------------------------------------------
def test_benchmark_json_is_well_formed():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert 2 <= len(spec["workloads"]) <= 8
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
