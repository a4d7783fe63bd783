"""Observability substrate: span tracing, metrics, exporters.

``repro.obs`` is deliberately a leaf package: at import time it depends
on nothing else in the repo, so every layer (engine, core, durability,
server) can reach it without cycles.  Instrumented code never imports
it on the hot path either — the tracer/metrics handles travel on the
shared :class:`~repro.edbms.costs.CostCounter` (``counter.tracer`` /
``counter.metrics``).  Until ``EncryptedDatabase.enable_observability()``
installs them, ``counter.tracer`` is the no-op
:data:`~repro.obs.tracing.NULL_TRACER` and ``counter.metrics`` is
``None``.  (The plan-outcome ledger
reuses the WAL's ``FsyncPolicy`` via a *lazy* import inside its
constructor, so leafness at import time is preserved.)

See API.md § Observability for the full tour; the short version::

    db = EncryptedDatabase(seed=7)
    ...
    tracer, registry = db.enable_observability()
    db.query("SELECT COUNT(*) FROM t WHERE x < 100")
    print(render_prometheus(registry))
    print(tracer.trace_tree(tracer.spans(name="query")[-1].trace_id))
"""

from .ledger import LedgerReadResult, PlanOutcomeLedger, read_ledger
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
    render_json,
    render_prometheus,
)
from .outcomes import (
    OutcomeStore,
    SLOTarget,
    build_atom,
    plan_fingerprint,
    statement_hash,
    step_key,
    symmetric_error,
)
from .tracing import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Tracer", "Span", "NullTracer", "NULL_TRACER",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "log_buckets",
    "DEFAULT_LATENCY_BUCKETS", "DEFAULT_RATIO_BUCKETS",
    "render_prometheus", "render_json",
    "PlanOutcomeLedger", "LedgerReadResult", "read_ledger",
    "OutcomeStore", "SLOTarget", "build_atom", "statement_hash",
    "step_key", "plan_fingerprint", "symmetric_error",
]
