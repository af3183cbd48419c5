"""Span-based tracer: nested spans with monotonic timing.

A :class:`Span` is one named, timed unit of work with structured
attributes.  Spans nest: each thread keeps its own stack of open spans,
so a span opened while another is active records the active one as its
parent, and the exported trace reconstructs the full tree.  Ids are
process- and thread-safe — a span id embeds the producing process id,
so spans recorded on behalf of campaign worker shards can never collide
with (and therefore always nest cleanly under) the parent run's spans.

Timing uses ``time.perf_counter_ns`` (monotonic); timestamps are stored
relative to the tracer's epoch, so exported traces start near zero.

:meth:`Tracer.span` is the one recording path: a context manager whose
enter starts the clock and whose exit stops it and files the span.
Spans recorded in another process (campaign shards on pool workers)
arrive already timed through :meth:`Tracer.ingest`.

When tracing is disabled the module-level :data:`NULL_SPAN` is handed
out instead: one shared, stateless object whose enter/exit do nothing,
so instrumentation sites cost a flag check and nothing else.
"""

from __future__ import annotations

import os
import threading
import time


class Span:
    """One timed, attributed unit of work."""

    __slots__ = ("name", "category", "span_id", "parent_id", "pid", "tid",
                 "start_ns", "duration_ns", "attrs", "_tracer")

    def __init__(self, name, category, span_id, parent_id, pid, tid,
                 start_ns, duration_ns=0, attrs=None, tracer=None):
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.pid = pid
        self.tid = tid
        self.start_ns = start_ns  # relative to the tracer epoch
        self.duration_ns = duration_ns
        self.attrs = attrs if attrs is not None else {}
        self._tracer = tracer

    @property
    def duration(self):
        """Span duration in seconds."""
        return self.duration_ns / 1e9

    @property
    def enabled(self):
        return True

    def set_attr(self, key, value):
        self.attrs[key] = value
        return self

    def __enter__(self):
        self.start_ns = self._tracer._now()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration_ns = self._tracer._now() - self.start_ns
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        self._tracer._record(self)
        return False

    def __repr__(self):
        return "Span(%r, category=%r, duration=%.6fs)" % (
            self.name, self.category, self.duration)


class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()
    name = ""
    category = ""
    attrs = {}
    duration = 0.0
    duration_ns = 0
    enabled = False

    def set_attr(self, key, value):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects completed spans; thread-safe, one instance per process.

    ``enabled`` only matters for the module-level convenience wrappers
    in :mod:`repro.obs`; calling :meth:`span` directly always records
    (the report's ``--timings`` path relies on that to measure even
    when no trace file was requested).
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.pid = os.getpid()
        self._epoch_ns = time.perf_counter_ns()
        self._lock = threading.Lock()
        self._spans = []
        self._next = 0
        self._stacks = threading.local()

    # --- clock / ids ---------------------------------------------------------

    def _now(self):
        return time.perf_counter_ns() - self._epoch_ns

    @property
    def epoch_abs_ns(self):
        """The tracer epoch as an absolute ``perf_counter_ns`` reading.

        ``CLOCK_MONOTONIC`` is comparable across processes on one
        host, so ``span.start_ns + epoch_abs_ns`` re-times a span
        against any other process's tracer (see
        :mod:`repro.obs.context`).
        """
        return self._epoch_ns

    def _new_id(self):
        with self._lock:
            self._next += 1
            serial = self._next
        # Embed the pid so ids from different processes cannot collide.
        return (self.pid << 24) | (serial & 0xFF_FFFF)

    # --- the per-thread span stack -------------------------------------------

    def _stack(self):
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def _push(self, span):
        self._stack().append(span)

    def _pop(self, span):
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits
            stack.remove(span)

    def current_span(self):
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    # --- recording -----------------------------------------------------------

    def _record(self, span):
        with self._lock:
            self._spans.append(span)

    def span(self, name, category="repro", attrs=None):
        """Open a new span as a context manager (records on exit)."""
        parent = self.current_span()
        return Span(
            name=name,
            category=category,
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            pid=self.pid,
            tid=threading.get_native_id(),
            start_ns=0,
            attrs=dict(attrs) if attrs else {},
            tracer=self,
        )

    def ingest(self, records):
        """File span records exported by another process's tracer.

        ``records`` is the output of
        :func:`repro.obs.context.export_records`: absolute-monotonic
        timestamps, ids that embed the producing pid (so they cannot
        collide with local ids), and parent links already pointing at
        this process's spans.  Returns the number of spans filed.
        """
        for record in records:
            self._record(Span(
                name=record["name"],
                category=record.get("category", "repro"),
                span_id=record["span_id"],
                parent_id=record.get("parent_id"),
                pid=record["pid"],
                tid=record["tid"],
                start_ns=record["start_abs_ns"] - self._epoch_ns,
                duration_ns=record["duration_ns"],
                attrs=dict(record.get("attrs") or {}),
                tracer=self,
            ))
        return len(records)

    # --- inspection ----------------------------------------------------------

    def spans(self, category=None, name=None):
        """Snapshot of completed spans, optionally filtered."""
        with self._lock:
            spans = list(self._spans)
        if category is not None:
            spans = [s for s in spans if s.category == category]
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return spans

    def __len__(self):
        with self._lock:
            return len(self._spans)

    def children_of(self, span):
        return [s for s in self.spans() if s.parent_id == span.span_id]

    def clear(self):
        with self._lock:
            self._spans = []
