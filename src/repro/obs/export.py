"""Exporters: Chrome/Perfetto trace-event JSON and Prometheus text.

The trace exporter emits the Trace Event Format that both
``chrome://tracing`` and https://ui.perfetto.dev load directly: one
``"ph": "X"`` (complete) event per span with microsecond timestamps,
plus ``"M"`` metadata events naming every thread and process track
(stitched campaign workers get their own process tracks).  The metrics
exporter renders the registry in the Prometheus text exposition format,
one ``# HELP``/``# TYPE`` header per metric and one sample line per
label set (histograms expand to the conventional
``_bucket``/``_sum``/``_count`` series).
"""

from __future__ import annotations

import json

from .metrics import Counter, Gauge, Histogram


# --- Chrome / Perfetto trace-event JSON --------------------------------------

def chrome_trace_events(tracer):
    """Render a tracer's spans as a list of trace-event dicts."""
    events = []
    lanes = {}  # (pid, tid) -> span name that introduced the lane
    for span in tracer.spans():
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start_ns / 1000.0,
            "dur": span.duration_ns / 1000.0,
            "pid": span.pid,
            "tid": span.tid,
        }
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        event["args"] = args
        events.append(event)
        lanes.setdefault((span.pid, span.tid), span.name)
    for (pid, tid), name in sorted(lanes.items()):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "repro %s" % name.split(":")[0]},
        })
    # Name each process lane: stitched worker spans (ingested from pool
    # processes via repro.obs.context) carry foreign pids.
    for pid in sorted({span.pid for span in tracer.spans()}):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro" if pid == tracer.pid
                     else "repro worker %d" % pid},
        })
    return events


def chrome_trace_document(tracer):
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_chrome_trace(tracer, path):
    """Write the Perfetto-loadable trace JSON; returns the path."""
    with open(path, "w") as handle:
        json.dump(chrome_trace_document(tracer), handle, indent=1,
                  sort_keys=True, default=str)
        handle.write("\n")
    return path


# --- Prometheus text exposition ----------------------------------------------

def _format_value(value):
    if isinstance(value, float) and value == int(value):
        # Prometheus renders integral floats without the trailing ".0".
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _format_labels(labels, extra=None):
    items = list(labels.items())
    if extra:
        items += list(extra.items())
    if not items:
        return ""
    body = ",".join('%s="%s"' % (key, value) for key, value in items)
    return "{%s}" % body


def prometheus_text(registry):
    """Render every registered metric in the text exposition format."""
    lines = []
    for metric in registry.metrics():
        if metric.help:
            lines.append("# HELP %s %s" % (metric.name, metric.help))
        lines.append("# TYPE %s %s" % (metric.name, metric.kind))
        if isinstance(metric, (Counter, Gauge)):
            for labels, value in metric.samples():
                lines.append("%s%s %s" % (
                    metric.name, _format_labels(labels),
                    _format_value(value)))
        elif isinstance(metric, Histogram):
            for labels, counts, total, count in metric.samples():
                cumulative = 0
                for bound, bucket in zip(metric.buckets, counts):
                    cumulative += bucket
                    lines.append("%s_bucket%s %d" % (
                        metric.name,
                        _format_labels(labels, {"le": _format_value(bound)}),
                        cumulative))
                cumulative += counts[-1]
                lines.append("%s_bucket%s %d" % (
                    metric.name, _format_labels(labels, {"le": "+Inf"}),
                    cumulative))
                lines.append("%s_sum%s %s" % (
                    metric.name, _format_labels(labels),
                    _format_value(total)))
                lines.append("%s_count%s %d" % (
                    metric.name, _format_labels(labels), count))
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry, path):
    """Write the registry in Prometheus text format; returns the path."""
    with open(path, "w") as handle:
        handle.write(prometheus_text(registry))
    return path
