"""Cross-process trace context: stitch worker spans under the parent.

The tracer is per-process, so the spans a pool worker records would
stay in the worker.  This module carries them home with three small
pieces:

* :func:`capture` — serialize the calling thread's active span into a
  plain dict (the *trace context*) that travels in the pickled task
  payload to ``shard_worker``,
* :func:`recording` — the worker-side scope: enables the obs layer for
  one task, collects every span the task records, and exports them
  with **absolute** ``perf_counter_ns`` timestamps and the captured
  parent id patched onto the task's top-level spans,
* :func:`ingest` — back in the parent, re-times those records against
  the parent tracer's epoch and files them as first-class spans.

``CLOCK_MONOTONIC`` readings are comparable across processes on one
host, so a worker span's absolute nanoseconds land at the right offset
in the parent's timeline, and span ids embed the producing pid, so
records from any number of pool processes can never collide.  The
exported Chrome trace then shows every worker's shards as real
children of the one ``campaign.run`` span — one coherent trace per
run, whatever the pool size.

Worker processes are persistent (they outlive any one job), so
:func:`recording` resets the worker's obs state on exit: tracing is
strictly per-task and two jobs' spans cannot bleed into each other.
"""

from __future__ import annotations

from contextlib import contextmanager


def capture():
    """The calling thread's span context as a picklable dict.

    Returns None while the obs layer is disabled — the task payload
    then carries no context and workers skip span collection entirely.
    """
    from . import current_tracer, enabled

    if not enabled():
        return None
    parent = current_tracer().current_span()
    return {"parent_id": parent.span_id if parent is not None else None}


class SpanCollector:
    """Holds the span records exported by one :func:`recording` scope."""

    __slots__ = ("records",)

    def __init__(self):
        self.records = []


@contextmanager
def recording(ctx):
    """Worker-side scope: trace one task and export what it recorded.

    With ``ctx`` None (tracing disabled at the parent, or a caller
    that records onto its own tracer) this is a passthrough.
    Otherwise the obs layer is enabled for the scope, every span
    recorded inside is exported through :func:`export_records` into
    the yielded :class:`SpanCollector`, and — unless the layer was
    already on (an in-process caller) — the worker's obs state is
    reset so nothing leaks into the next task.
    """
    import os

    from . import enable, enabled, reset

    collector = SpanCollector()
    if ctx is None:
        yield collector
        return
    was_enabled = enabled()
    tracer = enable()
    if tracer.pid != os.getpid():
        # A fork-started pool worker inherits the parent's obs state;
        # recording into that tracer would stamp the parent's pid on
        # worker spans (and risk id collisions).  Start clean.
        reset()
        was_enabled = False
        tracer = enable()
    base = len(tracer)
    try:
        yield collector
    finally:
        spans = tracer.spans()[base:]
        collector.records = export_records(
            tracer, spans, default_parent=ctx.get("parent_id"))
        if not was_enabled:
            reset()


def export_records(tracer, spans, default_parent=None):
    """Spans -> plain dicts with absolute-monotonic timestamps.

    Parent links inside the exported set are kept; a span whose parent
    is outside the set (the task's top level) is re-parented onto
    ``default_parent`` — the captured remote span id.
    """
    known = {span.span_id for span in spans}
    records = []
    for span in spans:
        parent = (span.parent_id if span.parent_id in known
                  else default_parent)
        records.append({
            "name": span.name,
            "category": span.category,
            "span_id": span.span_id,
            "parent_id": parent,
            "pid": span.pid,
            "tid": span.tid,
            "start_abs_ns": span.start_ns + tracer.epoch_abs_ns,
            "duration_ns": span.duration_ns,
            "attrs": dict(span.attrs),
        })
    return records


def ingest(records):
    """File exported worker records on this process's tracer.

    No-op (returning 0) while the obs layer is disabled; otherwise
    returns the number of spans ingested.
    """
    from . import current_tracer, enabled

    if not records or not enabled():
        return 0
    return current_tracer().ingest(records)
