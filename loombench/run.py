"""Run one workload of the Loom benchmark and print its metrics.

Usage (from the repository root)::

    python3 loombench/run.py --workload capture --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.
``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the separate traced run: the workload runs once plain
and once with every layer wrapped, then prints the per-layer table and
the per-layer metrics; the spans are saved under ``.loombench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names
and units are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / ".loombench"
#: Share of each operation type's time the traced layers must account
#: for; a traced run below it fails.
MIN_COVERAGE = 0.9


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)  # type: ignore[no-any-return]


def env_block() -> Dict[str, Any]:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def per_layer_metrics(report: Any, base: Any, traced: Any) -> Dict[str, float]:
    """Per-layer figures of the traced phase, by ``BENCHMARK.json`` name."""
    counts = report.counts
    out: Dict[str, float] = {
        f"{layer}_self_s": seconds for layer, seconds in report.layer_self_s.items()
    }
    # Waits, not work: named for what they measure.
    out["transport.recv_wait_s"] = out.pop("transport.recv_wait_self_s", 0.0)
    out["server.queue_wait_s"] = out.pop("server.queue_wait_self_s", 0.0)
    out["gil.wait_s"] = out.pop("gil.wait_self_s", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["storage.append_calls"] = counts.get("storage.append_calls", 0)
    out["storage.bytes_written_per_input_byte"] = ratio(
        counts.get("storage.bytes_written", 0), traced.extra["input_bytes"])
    out["timestamp_index.entries"] = counts.get("timestamp_index.entries", 0)
    out["chunk_index.chunks_finalized"] = counts.get("chunk_index.chunks_finalized", 0)
    out["hybridlog.publish_calls"] = counts.get("hybridlog.publish_calls", 0)
    out["archive.chunks_migrated"] = counts.get("archive.chunks_migrated", 0)
    out["archive.compression_ratio"] = ratio(
        counts.get("archive.raw_bytes", 0), counts.get("archive.compressed_bytes", 0))
    out["chain_walk.records_decoded"] = counts.get("chain_walk.records_decoded", 0)
    out["prune.summaries_examined"] = counts.get("prune.summaries_examined", 0)
    out["prune.chunks_skipped_frac"] = ratio(
        counts.get("prune.chunks_skipped", 0), counts.get("prune.summaries_examined", 0))
    out["region_decode.records_decoded"] = counts.get("region_decode.records_decoded", 0)
    out["operators.match_frac"] = ratio(
        counts.get("operators.records_matched", 0), counts.get("operators.records_decoded", 0))
    out["archive.decompressions"] = counts.get("archive.reads", 0) - counts.get(
        "archive.cache_hits", 0)
    out["archive.cache_hit_frac"] = ratio(
        counts.get("archive.cache_hits", 0), counts.get("archive.reads", 0))
    for name in ("client.backpressure_hits", "client.retries", "loadgen.lag_p99_ms"):
        out[name] = traced.extra.get(name, 0.0)
    out["trace.coverage_min_frac"] = min_coverage(report)
    out["trace.overhead_frac"] = overhead(traced, base)
    out["trace.spans"] = report.spans
    return out


def min_coverage(report: Any) -> float:
    return min((report.coverage(op) for op in report.ops if report.op_count.get(op)),
               default=1.0)


def overhead(traced: Any, base: Any) -> float:
    """Traced against untraced time for the same operation mix (both at
    the reference host pace)."""
    with_tracer = without = 0.0
    for op, xs in traced.op_seconds.items():
        plain = base.op_seconds.get(op)
        if xs and plain:
            with_tracer += sum(xs)
            without += len(xs) * sum(plain) / len(plain)
    return with_tracer / without - 1.0 if without else 0.0


def layer_table(report: Any) -> str:
    lines = ["per-layer self time of the traced phase (s; share of the operation)"]
    for op in report.ops:
        n = report.op_count.get(op, 0)
        if not n:
            continue
        e2e = report.op_e2e_s[op]
        lines.append(
            f"  {op}: {n} ops, {e2e:.4f} s end to end, layers account for "
            f"{report.coverage(op):.1%} of it net of the tracer"
        )
        rows = sorted(report.op_layer_s[op].items(), key=lambda kv: -kv[1])
        rows.append(("(tracer)", report.op_tracer_s[op]))
        for layer, secs in rows:
            lines.append(f"      {layer:<28} {secs:10.4f}  {secs / e2e:6.1%}")
    lines.append("  all operations:")
    for layer, secs in sorted(report.layer_self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"      {layer:<28} {secs:10.4f}")
    return "\n".join(lines)


def run(args: argparse.Namespace) -> Tuple[Dict[str, Any], List[str]]:
    import hostspeed
    import tracing
    import workloads

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    make, measure, check = workloads.WORKLOADS[args.workload]
    ds = make(args.seed)
    BENCH_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=BENCH_DIR)
    lines: List[str] = []
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    record: Dict[str, Any] = {
        "workload": args.workload, "why": why[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env_block(), "records": ds.records, "payload_bytes": ds.payload_bytes,
    }
    try:
        if args.trace == 0:
            out = measure(ds, args.seconds, scratch, workloads.SETUPS, args.seed)
            if check is not None:
                check(ds, out)
            declared = spec["end_to_end"]
            metrics = {m["name"]: out.metrics[m["name"]][0] for m in declared}
            samples = {name: out.metrics[name][2] for name in metrics}
            outcomes = [out]
            # The latency tails are printed and recorded but not gated: on
            # ``live`` they move with the host by more than any bound
            # (see README.md).
            record["ungated"] = {
                name: {"value": value, "unit": unit, "samples": n}
                for name, (value, unit, n) in out.metrics.items() if name not in metrics}
        else:
            half = args.seconds / 2
            base = measure(ds, half, scratch, 1, args.seed)
            if check is not None:
                check(ds, base)
            tracer = tracing.Tracer()
            tracer.calibrate()
            with tracing.install(tracer):
                traced = measure(ds, half, scratch, 1, args.seed, tracer)
            if check is not None:
                check(ds, traced)
            report = tracer.analyse()
            for op in report.ops:
                if report.op_count.get(op) and report.coverage(op) < MIN_COVERAGE:
                    traced.fail(f"layers account for {report.coverage(op):.1%} of {op}, "
                                f"under {MIN_COVERAGE:.0%}")
            trace_path = BENCH_DIR / f"trace-{args.workload}-{args.seed}.npz"
            report.save(str(trace_path))
            lines.append(layer_table(report))
            cal = report.calibration
            lines.append(
                f"  tracing overhead: {overhead(traced, base):+.1%} against the untraced "
                f"phase; {report.spans} spans cost the tracer {report.tracer_s:.4f} s "
                f"(per call span {cal.total('call'):.0f} ns, per item "
                f"{cal.total('item'):.0f} ns); spans saved to "
                f"{trace_path.relative_to(ROOT)}")
            declared = spec["per_layer"]
            values = per_layer_metrics(report, base, traced)
            metrics = {m["name"]: float(values[m["name"]]) for m in declared}
            samples = {}
            outcomes = [base, traced]
            record["coverage"] = {op: report.coverage(op) for op in report.ops}
            # Layers only some workloads exercise (the wire path, the cold
            # tier) are recorded and printed but not declared: a declared
            # metric must be measured by every workload.
            record["layers"] = {
                name: value for name, value in values.items() if name not in metrics}
        units = {m["name"]: m["unit"] for m in declared}
        record["params"] = dict(outcomes[-1].params)
        probes = sorted(p for out in outcomes for p in out.speed.probes)
        record["host_probe_us"] = {
            "samples": len(probes), "min": probes[0] * 1e6,
            "median": probes[len(probes) // 2] * 1e6, "max": probes[-1] * 1e6,
            "reference": hostspeed.REF_PROBE_S * 1e6,
        }
        record["latency_ms"] = outcomes[-1].tails
        record["metrics"] = {
            name: {"value": value, "unit": units[name], "samples": samples.get(name)}
            for name, value in metrics.items()
        }
        failures = [f for out in outcomes for f in out.failures]
        record["failures"] = failures[:50]
        attempted = sum(out.attempted for out in outcomes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, m in record["metrics"].items():
        n = m["samples"]
        lines.append(f"  {name:<40} {m['value']:>16.6g} {m['unit']:<6}"
                     + (f" n={n}" if n is not None else ""))
    for name, m in record.get("ungated", {}).items():
        lines.append(f"  {name:<40} {m['value']:>16.6g} {m['unit']:<6} n={m['samples']}"
                     " (not gated)")
    for name, value in record.get("layers", {}).items():
        lines.append(f"  {name:<40} {value:>16.6g} (not declared)")
    for series, tail in record["latency_ms"].items():
        if "tail" in tail:
            lines.append(f"  {series}: n={tail['samples']} p50={tail['p50']:.4g} ms "
                         f"p{tail['tail_pct']:g}={tail['tail']:.4g} ms")
    for failure in failures[:20]:
        lines.append(f"  FAILED: {failure}")
    result_path = BENCH_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2, default=str) + "\n")
    result = {
        "correct": not failures,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def run_all(argv: List[str]) -> int:
    """Run every workload in its own process (each has its own peak
    memory) and merge the results, metric names prefixed by workload."""
    merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in load_spec()["workloads"]):
        argv_one = [a if a != "all" else workload for a in argv]
        proc = subprocess.run([sys.executable, __file__, *argv_one],
                              stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(out[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(argv)
    sys.path.insert(0, str(ROOT / "src"))
    result, lines = run(args)
    print(f"loombench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
