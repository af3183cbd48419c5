"""Unified tracing + metrics: one answer to "where did it all go?".

``repro.obs`` is the observability layer the whole stack reports
through: a span-based :class:`~repro.obs.trace.Tracer` (nested timing
with structured attributes), a
:class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
fixed-bucket histograms), Chrome/Perfetto and Prometheus exporters, and
a :class:`~repro.obs.simprofile.SimProfiler` that attributes simulated
cycles and energy per device and per program block via the existing
access-event bus.  Two durable companions sit on top:
:mod:`repro.obs.ledger` (an append-only JSONL run ledger, one record
per evaluation/campaign/service job) and :mod:`repro.obs.context`
(trace-context propagation that stitches campaign worker-process spans
into the parent's exported trace).

The layer is **off by default** and gated by one module-level flag:

* instrumentation sites call the module-level helpers below
  (:func:`span`, :func:`inc`, :func:`observe`, …), which no-op against
  shared null objects while disabled — a flag check per call site, not
  per event,
* the simulator's per-event attribution is enabled *per run*: when the
  flag is off no subscriber is attached and the bus publishes nothing,
  so the fast engine stays in its batched zero-publish mode
  (``benchmarks/bench_obs.py`` holds the disabled overhead under 2%),
* the CLI flags ``--trace FILE.json`` / ``--metrics FILE`` (on
  ``report``, ``campaign``, ``profile``, ``map``) enable
  the layer for one invocation and export on the way out.

See ``docs/observability.md`` for the span model, metric names, and the
Perfetto how-to.
"""

from __future__ import annotations

import threading

from .export import (
    chrome_trace_document,
    prometheus_text,
    write_chrome_trace,
    write_prometheus,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .trace import NULL_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "chrome_trace_document",
    "current_ledger",
    "current_tracer",
    "disable",
    "enable",
    "enabled",
    "inc",
    "observe",
    "prometheus_text",
    "registry",
    "reset",
    "set_gauge",
    "set_ledger",
    "span",
    "write_chrome_trace",
    "write_metrics",
    "write_prometheus",
    "write_trace",
]

_lock = threading.Lock()
_enabled = False
_tracer = None
_registry = None
_ledger = None


def enabled():
    """Is the observability layer recording?"""
    return _enabled


def enable():
    """Turn tracing + metrics on (idempotent); returns the tracer."""
    global _enabled, _tracer, _registry
    with _lock:
        if _tracer is None:
            _tracer = Tracer()
        if _registry is None:
            _registry = MetricsRegistry()
        _enabled = True
        return _tracer


def disable():
    """Stop recording.  Collected spans/metrics stay readable."""
    global _enabled
    _enabled = False


def reset():
    """Disable and drop everything collected (test isolation)."""
    global _enabled, _tracer, _registry, _ledger
    with _lock:
        _enabled = False
        _tracer = None
        _registry = None
        _ledger = None


def current_tracer():
    """The process tracer (created on first use, even while disabled)."""
    global _tracer
    with _lock:
        if _tracer is None:
            _tracer = Tracer(enabled=False)
        return _tracer


def registry():
    """The process metrics registry (created on first use)."""
    global _registry
    with _lock:
        if _registry is None:
            _registry = MetricsRegistry()
        return _registry


def set_ledger(ledger):
    """Install (or, with None, clear) the process run ledger.

    The CLI and the job service install a
    :class:`~repro.obs.ledger.RunLedger` here; record producers (the
    campaign runner, service jobs) look it up via
    :func:`current_ledger` and skip ledger writes when none is set.
    """
    global _ledger
    with _lock:
        _ledger = ledger
    return ledger


def current_ledger():
    """The installed run ledger, or None when runs go unrecorded."""
    return _ledger


# --- gated convenience wrappers ----------------------------------------------

def span(name, category="repro", attrs=None):
    """Open a span on the process tracer, or a shared no-op if disabled."""
    if not _enabled:
        return NULL_SPAN
    return _tracer.span(name, category=category, attrs=attrs)


def inc(name, amount=1, help="", **labels):
    """Increment a counter (no-op while disabled)."""
    if not _enabled:
        return
    _registry.counter(name, help).inc(amount, **labels)


def set_gauge(name, value, help="", **labels):
    """Set a gauge (no-op while disabled)."""
    if not _enabled:
        return
    _registry.gauge(name, help).set(value, **labels)


def observe(name, value, help="", buckets=None, **labels):
    """Record a histogram observation (no-op while disabled)."""
    if not _enabled:
        return
    _registry.histogram(name, help, buckets=buckets).observe(value,
                                                             **labels)


# --- exporting ----------------------------------------------------------------

def write_trace(path):
    """Export collected spans as Perfetto-loadable JSON; returns path."""
    return write_chrome_trace(current_tracer(), path)


def write_metrics(path):
    """Export the registry as Prometheus text; returns path."""
    return write_prometheus(registry(), path)


# --- the simulator hook --------------------------------------------------------

def sim_profiler_for(machine):
    """Attach a :class:`SimProfiler` to a machine about to run.

    Returns None while the layer is disabled — the one check
    :meth:`Machine.run <repro.sim.machine.Machine.run>` performs per
    run; nothing is consulted per event.
    """
    if not _enabled:
        return None
    from .simprofile import SimProfiler

    return SimProfiler(machine.program).attach(machine.events)


def finish_sim_profiler(machine, profiler, run_span=None):
    """Detach ``profiler``, fold its attribution into metrics, and (if
    a run span is given) stamp the hot-spot summary onto it."""
    profiler.detach(machine.events)
    report = profiler.report()
    for name, tally in report.devices.items():
        inc("sim_device_accesses_total", tally.accesses,
            help="routed accesses serviced per device", device=name)
        inc("sim_device_cycles_total", tally.cycles,
            help="access cycles charged per device", device=name)
        inc("sim_device_energy_joules_total", tally.energy,
            help="dynamic energy charged per device", device=name)
    for name, tally in report.blocks.items():
        inc("sim_block_accesses_total", tally.accesses,
            help="routed accesses attributed per program block",
            block=name)
        inc("sim_block_cycles_total", tally.cycles,
            help="access cycles attributed per program block", block=name)
    if run_span is not None and run_span.enabled:
        for key, value in report.summary_attrs().items():
            run_span.set_attr(key, value)
    return report
