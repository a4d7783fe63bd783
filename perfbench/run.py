"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sd-learn --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the engine is imported from its
``src/`` directory, and the metrics and units to report are read from
``BENCHMARK.json``.  ``--trace 0`` sets up and runs the stream several
times, pinned to the processors in turn, and reports the end-to-end
metrics from each operation's fastest host-speed-adjusted time (see
``hostspeed.py``); ``--trace 1`` runs the stream once untraced and once
traced and reports
the per-layer metrics, the tracing overhead and how much of the wall
time the layer spans cover (spans are written under
``.perfbench_out/``).  Every line before the last is for people; the
last line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: Units of every end-to-end figure a run can print.  The workload-only
#: ones (writes, recovery, storage, leakage) exist on one workload each.
UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "read_p50_ms": "ms",
    "read_p99_ms": "ms", "qpf_per_query": "count", "peak_rss_mb": "MB",
    "failed_ops_frac": "ratio", "write_p50_ms": "ms", "write_p99_ms": "ms",
    "recover_s": "s", "stored_bytes_per_row": "B", "leakage_rpoi": "RPOI",
}


class DeterminismError(RuntimeError):
    """Two executions of one seeded sequence disagreed on a count."""


def import_engine() -> None:
    """Put the checkout's engine source on the import path, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no engine source at {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def tail(samples) -> tuple[float, float]:
    """The highest percentile, at most p99, that has at least ten
    samples beyond it, and its value."""
    import numpy as np

    pct = min(99.0, 100.0 * (1 - 10 / len(samples))) \
        if len(samples) > 20 else 50.0
    return pct, float(np.percentile(samples, pct))


def host_facts() -> dict:
    import numpy as np

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def _setup_signature(db) -> tuple:
    c = db.counter
    return (c.qpf_uses, c.qpf_roundtrips, c.wal_records, c.wal_bytes,
            c.wal_fsyncs)


def run_pass(workload, recorder=None, cpu=None):
    """Set up from scratch, run the stream, close; returns the set-up
    time, the set-up's counted work and the stream's outcome.  ``cpu``
    pins the pass to one processor."""
    allowed = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        gc.collect()
        kernel_s = hostspeed.sample()
        start, cpu_start = time.perf_counter(), time.process_time()
        db = workload.setup()
        setup_s = hostspeed.adjusted(
            time.perf_counter() - start, time.process_time() - cpu_start,
            (kernel_s + hostspeed.sample()) / 2)
        signature = _setup_signature(db)
        if recorder is not None:
            recorder.install()
        try:
            db, outcome = workload.run_stream(db, recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        workload.close(db)
    finally:
        os.sched_setaffinity(0, allowed)
    return setup_s, signature, outcome


def run_passes(workload, count: int):
    """``count`` identical passes, pinned to the processors in turn: the
    host slows each processor at different times, so alternating lets
    every operation's fastest pass avoid most of that interference."""
    cpus = sorted(os.sched_getaffinity(0))
    return [run_pass(workload, cpu=cpus[i % len(cpus)])
            for i in range(count)]


def check_repeats(name: str, passes) -> None:
    """Every pass ran the same seeded sequence, so every count repeats."""
    _, signature, outcome = passes[0]
    for _, other_signature, other in passes[1:]:
        if other_signature != signature:
            raise DeterminismError(f"{name}: set-up counts "
                                   f"{other_signature} != {signature}")
        changed = sorted(k for k in outcome.counts
                         if other.counts.get(k) != outcome.counts[k])
        if changed:
            raise DeterminismError(f"{name}: counts {changed} differ "
                                   "between passes")


def combine(outcomes):
    """One outcome whose every operation time is the fastest of its
    passes: the passes ran identical work, so the minimum filters out
    host interference that slowed only some of them."""
    first = outcomes[0]

    def fastest(field):
        return [min(times) for times in
                zip(*(getattr(o, field) for o in outcomes))]

    return type(first)(
        read_s=fastest("read_s"), write_s=fastest("write_s"),
        stall_s=fastest("stall_s"),
        raw_busy_s=min(o.raw_busy_s for o in outcomes),
        read_qpf=first.read_qpf,
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes), counts=first.counts,
        extra={k: min(o.extra[k] for o in outcomes) for k in first.extra})


def end_to_end(outcome, setup_times) -> dict:
    reads_ms = [1e3 * s for s in outcome.read_s]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": outcome.ops / outcome.busy_s,
        "read_p50_ms": statistics.median(reads_ms),
        "read_p99_ms": tail(reads_ms)[1],
        "qpf_per_query": outcome.read_qpf / len(reads_ms),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ops_frac": outcome.failed / outcome.attempted,
    }
    if outcome.write_s:
        writes_ms = [1e3 * s for s in outcome.write_s]
        metrics["write_p50_ms"] = statistics.median(writes_ms)
        metrics["write_p99_ms"] = tail(writes_ms)[1]
    metrics.update(outcome.extra)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> dict:
    """One benchmark run of workload ``name``; returns every figure."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, seconds, scale)
    WORK.mkdir(exist_ok=True)
    workload.workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        if not trace:
            passes = run_passes(workload, workload.passes)
            check_repeats(name, passes)
            outcome = combine([p[2] for p in passes])
            return {"outcome": outcome,
                    "metrics": end_to_end(outcome, [p[0] for p in passes])}
        return measure_traced(workload)
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)


def measure_traced(workload) -> dict:
    """One untraced pass, then one traced pass; tracing must not change
    a single count."""
    from tracing import SpanRecorder, layer_metrics

    recorder = SpanRecorder()
    passes = [run_pass(workload), run_pass(workload, recorder)]
    check_repeats(workload.name, passes)
    plain, traced = passes[0][2], passes[1][2]
    layers = layer_metrics(recorder, traced.counts, len(traced.read_s),
                           len(traced.write_s))
    plain_rate = plain.ops / plain.busy_s
    layers["trace.overhead_pct"] = 100.0 * (
        plain_rate / (traced.ops / traced.busy_s) - 1)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    recorder.write(path, layers)
    return {"outcome": traced, "metrics": layers, "spans": str(path),
            "untraced_ops_per_s": plain_rate}


def unit_of(metric: str) -> str:
    from tracing import unit_of as layer_unit

    return UNITS.get(metric) or layer_unit(metric)


def report(name: str, seed: int, trace: bool, result: dict,
           spec: dict) -> dict:
    """Print the human-readable lines; return the result line's JSON."""
    outcome, metrics = result["outcome"], result["metrics"]
    facts = host_facts()
    print(f"# perfbench {name} seed={seed} trace={int(trace)} "
          f"host: nproc={facts['nproc']} python={facts['python']} "
          f"numpy={facts['numpy']} ({facts['machine']})")
    print(f"# ops={outcome.ops} reads={len(outcome.read_s)} "
          f"writes={len(outcome.write_s)} attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    print(f"# unadjusted ops_per_s={outcome.ops / outcome.raw_busy_s:.6g}; "
          "adjusted ÷ unadjusted engine time "
          f"{outcome.busy_s / outcome.raw_busy_s:.4f}")
    if outcome.read_s:
        pct, _ = tail(outcome.read_s)
        print(f"# read tail percentile p{pct:g} over {len(outcome.read_s)} "
              "reads")
    if outcome.write_s:
        pct, _ = tail(outcome.write_s)
        print(f"# write_p99_ms is p{pct:g} over {len(outcome.write_s)} "
              "writes")
    if trace:
        print(f"# untraced ops_per_s={result['untraced_ops_per_s']:.6g}; "
              f"spans in {result['spans']}")
    for metric, value in metrics.items():
        print(f"{metric} = {value:.6g} {unit_of(metric)}")
    print("perfbench-counts " + json.dumps(outcome.counts, sort_keys=True))
    declared = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_engine()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    result = measure(args.workload, args.seed, args.seconds, trace)
    line = report(args.workload, args.seed, trace, result, spec)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
