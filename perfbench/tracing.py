"""Spans recorded from outside the engine, and the per-layer metrics
computed from them.

The traced run wraps public entry points of each layer at run time
(nothing under ``src/`` is edited).  Each span carries an id, its
parent's id, a name, and perf-counter start/end times; spans stay in
memory and are written out as JSON at the end.  A layer's self time is
its spans' durations minus the time their child spans cover; the
benchmark's own ``op.*`` root spans hold whatever no layer span covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

#: (module, class or None for a module function, attribute, span name).
ENTRY_POINTS = (
    ("repro.edbms.engine", None, "parse_select", "sql.parse"),
    ("repro.plan.planner", "Planner", "plan", "plan.plan"),
    ("repro.plan.planner", "PhysicalPlan", "execute", "plan.execute"),
    ("repro.edbms.owner", "DataOwner", "comparison_trapdoor", "seal"),
    ("repro.edbms.owner", "DataOwner", "between_trapdoor", "seal"),
    ("repro.core.prkb", "PRKBIndex", "select", "prkb.select"),
    ("repro.core.between", "BetweenProcessor", "select", "prkb.between"),
    ("repro.core.multi", "MultiDimensionProcessor", "select",
     "multi.select"),
    ("repro.edbms.qpf", "TrustedMachine", "evaluate", "qpf.crossing"),
    ("repro.edbms.qpf", "TrustedMachine", "evaluate_batch", "qpf.crossing"),
    ("repro.edbms.qpf", "TrustedMachine", "evaluate_many", "qpf.crossing"),
    ("repro.core.updates", "TableUpdater", "insert_plain", "updates.insert"),
    ("repro.core.updates", "TableUpdater", "delete", "updates.delete"),
    ("repro.edbms.durability.wal", "WALWriter", "append", "wal.append"),
    ("repro.edbms.durability.wal", "WALWriter", "sync", "wal.sync"),
    ("repro.edbms.durability.manager", "DurabilityManager",
     "checkpoint_all", "checkpoint"),
    ("repro.edbms.durability.recovery", "RecoveryManager", "recover",
     "recovery"),
    ("repro.edbms.hybrid", "HybridMaterializer", "ope_column",
     "hybrid.build.ope"),
    ("repro.edbms.hybrid", "HybridMaterializer", "src_index",
     "hybrid.build.src"),
    ("repro.edbms.hybrid", "HybridMaterializer", "shared_table",
     "hybrid.build.mpc"),
    ("repro.edbms.hybrid", "HybridMaterializer", "mpc_index",
     "hybrid.build.mpc"),
    ("repro.edbms.hybrid", "HybridMaterializer", "ope_select", "hybrid.ope"),
    ("repro.edbms.hybrid", "HybridMaterializer", "src_select", "hybrid.src"),
    ("repro.edbms.hybrid", "HybridMaterializer", "mpc_select", "hybrid.mpc"),
)

#: Layer -> span names; a layer's self time sums its spans' self times.
LAYERS = {
    "sql": ("sql.parse",),
    "plan": ("plan.plan", "plan.execute"),
    "seal": ("seal",),
    "prkb": ("prkb.select", "prkb.between"),
    "multi": ("multi.select",),
    "qpf": ("qpf.crossing",),
    "updates": ("updates.insert", "updates.delete"),
    "wal": ("wal.append", "wal.sync"),
    "checkpoint": ("checkpoint",),
    "recovery": ("recovery",),
    "hybrid": ("hybrid.build.ope", "hybrid.build.src", "hybrid.build.mpc",
               "hybrid.ope", "hybrid.src", "hybrid.mpc"),
}


def _first_index(indexes):
    return next(iter(indexes.values()))


def _qpf_probe(counter_of):
    """A probe recording the QPF a call spends on the engine's counter."""
    def probe(args):
        counter = counter_of(args)
        before = counter.qpf_uses
        return lambda: {"qpf": counter.qpf_uses - before}
    return probe


def _plan_probe(args):
    plan, ctx = args[0], args[1]
    before = ctx.counter.qpf_uses
    return lambda: {"qpf": ctx.counter.qpf_uses - before,
                    "estimate": plan.estimated_qpf}


def _multi_probe(args):
    processor, query = args[0], args[1]
    index = _first_index(processor.indexes)
    counter, bound = index.qpf.counter, len(query) * index.table.num_rows
    before = counter.qpf_uses
    return lambda: {"qpf": counter.qpf_uses - before, "bound": bound}


#: Span name -> probe: called with the wrapped call's arguments, it
#: returns a function giving the span's attributes once the call ends.
PROBES = {
    "plan.execute": _plan_probe,
    "prkb.select": _qpf_probe(lambda args: args[0].qpf.counter),
    "prkb.between": _qpf_probe(lambda args: args[0].index.qpf.counter),
    "multi.select": _multi_probe,
    "updates.insert": _qpf_probe(
        lambda args: _first_index(args[0].indexes).qpf.counter),
}


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        #: [id, parent id (-1 for a root), name, start, end, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1,
                name, time.perf_counter(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_OwnSpan":
        """Context manager for one of the benchmark's own spans."""
        return _OwnSpan(self, name)

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for module_name, class_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else \
                getattr(module, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, original, name):
        recorder = self
        probe = PROBES.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            finish = probe(args) if probe is not None else None
            span = recorder._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder._close(span)
                if finish is not None:
                    span[5] = finish()

        return traced

    def self_times(self) -> np.ndarray:
        """Each span's duration minus its children's durations."""
        spans = self.spans
        self_s = np.array([end - start for _, _, _, start, end, _ in spans])
        for _, parent, _, start, end, _ in spans:
            if parent >= 0:
                self_s[parent] -= end - start
        return self_s

    def write(self, path, layers: dict) -> None:
        payload = {
            "fields": ["id", "parent", "name", "start_s", "end_s", "attrs"],
            "spans": self.spans,
            "layers": layers,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


class _OwnSpan:
    __slots__ = ("recorder", "name", "span")

    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder, self.name = recorder, name

    def __enter__(self):
        self.span = self.recorder._open(self.name)

    def __exit__(self, *exc):
        self.recorder._close(self.span)
        return False


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_pct"):
        return "%"
    if metric.endswith(("_ratio", "_p90", "_bound")):
        return "ratio"
    if metric.endswith(("_us", ".us", "us_per_query")) or "_us." in metric:
        return "us"
    if metric.endswith("ns_per_use"):
        return "ns"
    if metric.endswith("bytes_per_row"):
        return "B"
    if metric.endswith("rpoi"):
        return "RPOI"
    return "count"


def layer_metrics(recorder: SpanRecorder, counts: dict, reads: int,
                  writes: int) -> dict:
    """Every per-layer metric of one traced stream.

    ``counts`` are the stream's counter and planner deltas
    (:class:`workloads.Outcome` ``counts``).  Values are 0 where the
    workload never enters a layer.
    """
    spans = recorder.spans
    self_s = recorder.self_times()
    names = [span[2] for span in spans]
    by_name: dict[str, list[int]] = {}
    for position, name in enumerate(names):
        by_name.setdefault(name, []).append(position)

    def total(*span_names, own=True) -> float:
        ids = [i for n in span_names for i in by_name.get(n, ())]
        if own:
            return float(self_s[ids].sum()) if ids else 0.0
        return float(sum(spans[i][4] - spans[i][3] for i in ids))

    def outer(*span_names) -> list[int]:
        """Spans not nested inside a span of the same layer."""
        return [i for n in span_names for i in by_name.get(n, ())
                if spans[i][1] < 0 or names[spans[i][1]] not in span_names]

    def per_call_us(*span_names) -> float:
        n = len(outer(*span_names))
        return 1e6 * total(*span_names) / n if n else 0.0

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    def attrs(span_name):
        return [spans[i][5] for i in by_name.get(span_name, ())]

    roots = [i for i, span in enumerate(spans) if span[1] < 0]
    wall = sum(spans[i][4] - spans[i][3] for i in roots)
    uncovered = [i for i in roots if names[i].startswith("op.")]
    covered = wall - float(self_s[uncovered].sum())

    executes = attrs("plan.execute")
    estimate = [(a["qpf"] + 1) / (a["estimate"] + 1) for a in executes]
    prkb = [spans[i][5] for i in outer(*LAYERS["prkb"])]
    multi = attrs("multi.select")
    inserts = attrs("updates.insert")
    mpc_calls = len(outer("hybrid.mpc"))

    metrics = {
        "sql.parse_us": per_call_us("sql.parse"),
        "plan.plan_us": per_call_us("plan.plan"),
        "plan.cache_hit_ratio": ratio(
            counts["plan_cache_hits"],
            counts["plan_cache_hits"] + counts["plan_cache_misses"]),
        "plan.estimate_ratio_p90": float(np.percentile(estimate, 90))
        if estimate else 0.0,
        "seal.us": per_call_us("seal"),
        "seal.per_query": ratio(len(outer("seal")), reads),
        "prkb.self_us": per_call_us(*LAYERS["prkb"]),
        "prkb.partitions": counts.get("partitions", 0),
        "prkb.zero_qpf_ratio": ratio(sum(a["qpf"] == 0 for a in prkb),
                                     len(prkb)),
        "multi.self_us": per_call_us("multi.select"),
        "multi.qpf_over_scan_bound": ratio(sum(a["qpf"] for a in multi),
                                           sum(a["bound"] for a in multi)),
        "qpf.crossing_us": per_call_us("qpf.crossing"),
        "qpf.ns_per_use": ratio(1e9 * total("qpf.crossing"),
                                counts["qpf_uses"]),
        "qpf.roundtrips_per_query": ratio(counts["qpf_roundtrips"], reads),
        "qpf.column_cache_hit_ratio": ratio(
            counts["column_cache_hits"],
            counts["column_cache_hits"] + counts["column_cache_misses"]),
        "qpf.column_cache_evictions": counts["column_cache_evictions"],
        "arena.hit_ratio": ratio(counts["arena_reuses"],
                                 counts["arena_takes"]),
        "updates.insert_us": per_call_us("updates.insert"),
        "updates.delete_us": per_call_us("updates.delete"),
        "updates.qpf_per_insert": ratio(sum(a["qpf"] for a in inserts),
                                        len(inserts)),
        "wal.append_us": per_call_us("wal.append"),
        "wal.sync_us": per_call_us("wal.sync"),
        "wal.fsyncs_per_write": ratio(counts["wal_fsyncs"], writes),
        "wal.bytes_per_user_byte": ratio(counts["wal_bytes"],
                                         counts.get("user_bytes", 0)),
        "checkpoint.us": per_call_us("checkpoint"),
        "recovery.us": per_call_us("recovery"),
        "recovery.records_replayed": counts.get("records_replayed", 0),
        "storage.bytes_per_row": ratio(counts.get("stored_bytes", 0),
                                       counts.get("live_rows", 0)),
        "hybrid.leakage_rpoi": counts.get("leakage_rpoi", 0.0),
        "hybrid.build_us.ope": 1e6 * total("hybrid.build.ope"),
        "hybrid.build_us.src": 1e6 * total("hybrid.build.src"),
        "hybrid.build_us.mpc": 1e6 * total("hybrid.build.mpc"),
        "mpc.us_per_query": 1e6 * total("hybrid.mpc", own=False) / mpc_calls
        if mpc_calls else 0.0,
        "trace.coverage_pct": 100.0 * ratio(covered, wall),
    }
    for scheme in ("ope", "src", "mpc", "prkb", "scan"):
        metrics[f"scheme.steps.{scheme}"] = counts.get(
            f"scheme_steps_{scheme}", 0)
        metrics[f"scheme.qpf.{scheme}"] = counts.get(
            f"scheme_qpf_{scheme}", 0)
    for layer, span_names in LAYERS.items():
        metrics[f"{layer}.self_pct"] = 100.0 * ratio(total(*span_names),
                                                     wall)
    return metrics
