"""Span tracer: per-query, per-phase timing and cost attribution.

The paper's evaluation is entirely about *where* QPF uses go — QFilter
sampling vs. binary search vs. QScan vs. grid pruning — so the tracer's
unit of attribution is a :class:`Span` that carries both a monotonic
wall-clock interval and a cost dict (``qpf_uses``, ``qpf_roundtrips``,
``wal_fsyncs``, …).

Design constraints, in order:

1. **One code path.**  Every counter carries a tracer: a
   :class:`NullTracer` by default (see ``CostCounter.tracer``), whose
   ``span``/``begin`` hand back one shared no-op span with
   ``trace_id`` ``None``.  Instrumented code is written once, in its
   traced form; with tracing off a span costs one method call and no
   span object.
2. **Exact attribution under interleaving.**  Whole-query totals come
   from the calling thread's ``CostCounter.measure`` scope.  Pipeline
   phases that suspend mid-span (the batched generator
   protocol interleaves many queries) attribute cost from the logical
   per-phase meter instead, via :meth:`Span.record` — so per-phase
   ``qpf_uses`` sums exactly to the global counter, with no
   double-count across concurrent queries.
3. **Interleaved work attaches to the right query.**  ``tracer.span(...)``
   nests via a thread-local stack; work that does not run inside its
   query's ``with`` block (the batched generator protocol) passes
   ``parent=`` explicitly so the span lands under the right query.

Spans land in a bounded ring buffer (``capacity`` spans, oldest
evicted) and export as plain JSON dicts or Chrome ``chrome://tracing``
events (:meth:`Tracer.export_chrome`).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import deque

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "INHERIT"]

#: Default for ``parent=``: adopt the calling thread's current span.
#: Pass ``parent=None`` explicitly to force a new root (fresh trace).
INHERIT = object()


class Span:
    """One timed, costed unit of work.

    ``cost`` maps counter-field names to integers attributed to exactly
    this span (not including children); ``attrs`` is free-form context
    (SQL text, payload size).
    """

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "start",
                 "end", "attrs", "cost", "thread")

    def __init__(self, name, span_id, parent_id, trace_id, start, thread):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start = start
        self.end = None
        self.attrs = {}
        self.cost = {}
        self.thread = thread

    @property
    def duration(self) -> float:
        """Wall seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, **attrs) -> "Span":
        """Attach free-form context attributes; returns ``self``."""
        self.attrs.update(attrs)
        return self

    def record(self, **costs) -> "Span":
        """Attribute cost units (e.g. ``qpf_uses=7``) to this span."""
        for key, value in costs.items():
            self.cost[key] = self.cost.get(key, 0) + value
        return self

    def as_dict(self) -> dict:
        """Plain-dict form for JSON export."""
        return {
            "name": self.name, "span_id": self.span_id,
            "parent_id": self.parent_id, "trace_id": self.trace_id,
            "start": self.start, "duration": self.duration,
            "attrs": dict(self.attrs), "cost": dict(self.cost),
            "thread": self.thread,
        }

    def __repr__(self):
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"dur={self.duration * 1e3:.3f}ms, cost={self.cost})")


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._push(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.tracer._pop(self.span)
        self.tracer.finish(self.span)
        return False


class Tracer:
    """Collects spans into a bounded ring buffer.

    One tracer serves one database (all of its threads).  The span
    stack is thread-local; the finished-span ring is shared and guarded
    by the GIL (``deque.append`` is atomic).
    """

    def __init__(self, capacity: int = 4096, clock=time.perf_counter):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self.epoch = clock()
        self._finished: deque = deque(maxlen=capacity)
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    # -- stack ----------------------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current(self) -> Span | None:
        """The innermost open span on *this* thread (or ``None``)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- span lifecycle --------------------------------------------------- #

    def new_trace(self) -> int:
        """A fresh trace id (one per top-level query)."""
        return next(self._trace_ids)

    def begin(self, name: str, parent=INHERIT,
              trace_id: int | None = None, **attrs) -> Span:
        """Start a span without touching the thread-local stack.

        For generator-driven phases whose enter/exit do not bracket a
        ``with`` block.
        ``parent`` defaults to the calling thread's current span
        (:data:`INHERIT`); pass a span explicitly for cross-thread
        attachment, or ``None`` to start a fresh root/trace.
        """
        if parent is INHERIT:
            parent = self.current()
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None \
                else self.new_trace()
        span = Span(name, next(self._span_ids),
                    parent.span_id if parent is not None else None,
                    trace_id, self.clock(), threading.get_ident())
        if attrs:
            span.attrs.update(attrs)
        return span

    def finish(self, span: Span, **costs) -> Span:
        """Close a span and commit it to the ring buffer."""
        if costs:
            span.record(**costs)
        if span.end is None:
            span.end = self.clock()
            self._finished.append(span)
        return span

    def span(self, name: str, parent=INHERIT,
             trace_id: int | None = None, **attrs) -> _SpanContext:
        """``with tracer.span("phase") as s:`` — nests on this thread."""
        return _SpanContext(self, self.begin(name, parent, trace_id, **attrs))

    def traced(self, name: str | None = None):
        """Decorator form: time every call of the wrapped function."""
        def decorate(fn):
            label = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(label):
                    return fn(*args, **kwargs)
            return wrapper
        return decorate

    # -- retrieval / export ----------------------------------------------- #

    def __len__(self) -> int:
        return len(self._finished)

    def spans(self, trace_id: int | None = None,
              name: str | None = None) -> list:
        """Finished spans, oldest first, optionally filtered."""
        out = list(self._finished)
        if trace_id is not None:
            out = [s for s in out if s.trace_id == trace_id]
        if name is not None:
            out = [s for s in out if s.name == name]
        return out

    def trace_tree(self, trace_id: int) -> list:
        """The spans of one trace as a parent→children forest of dicts."""
        spans = self.spans(trace_id=trace_id)
        nodes = {s.span_id: dict(s.as_dict(), children=[]) for s in spans}
        roots = []
        for span in spans:
            node = nodes[span.span_id]
            parent = nodes.get(span.parent_id)
            if parent is not None:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    def export_json(self) -> list:
        """Every retained span as a plain dict, oldest first."""
        return [s.as_dict() for s in self._finished]

    def export_chrome(self) -> dict:
        """Chrome ``about://tracing`` / Perfetto "complete" (X) events."""
        events = []
        for span in self._finished:
            events.append({
                "name": span.name, "ph": "X", "pid": 1, "tid": span.thread,
                "ts": (span.start - self.epoch) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"trace_id": span.trace_id, **span.attrs,
                         **span.cost},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def reset(self) -> None:
        """Drop every retained span (the id counters keep running)."""
        self._finished.clear()


class _NullSpan:
    """The span a :class:`NullTracer` hands out: records nothing."""

    __slots__ = ()

    trace_id = None

    def set(self, **attrs) -> "_NullSpan":
        """Discard the attributes."""
        return self

    def record(self, **costs) -> "_NullSpan":
        """Discard the costs."""
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The tracer of a counter with tracing off.

    ``span`` and ``begin`` return one shared no-op span (usable as a
    context manager, ``trace_id`` ``None``) and ``finish`` discards, so
    instrumented code runs the same statements whether or not a
    :class:`Tracer` is installed.
    """

    __slots__ = ()

    def span(self, name: str, parent=INHERIT, trace_id=None,
             **attrs) -> _NullSpan:
        """The shared no-op span (also a no-op context manager)."""
        return _NULL_SPAN

    def begin(self, name: str, parent=INHERIT, trace_id=None,
              **attrs) -> _NullSpan:
        """The shared no-op span."""
        return _NULL_SPAN

    def finish(self, span, **costs):
        """Discard: returns ``span`` unchanged."""
        return span

    def current(self) -> None:
        """No span is ever open."""
        return None


#: The shared default tracer (see ``CostCounter.tracer``).
NULL_TRACER = NullTracer()
