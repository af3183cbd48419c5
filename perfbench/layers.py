"""Outside-in tracing of the package's layer boundaries.

The traced mode wraps public functions and methods of the package from
the benchmark's side, records one span per call into a standalone
:class:`repro.obs.Tracer` held in memory, and turns the spans into
per-layer metrics when the run ends.  Nothing under ``src/`` changes and
:func:`repro.obs.enable` is never called: enabling it would attach a
``SimProfiler`` to every ``Machine.run`` and force the fast engine into
its granular per-access mode, which is not the code path being timed.

A module-level function is replaced in every ``repro`` module that
holds a reference to it, so names bound by ``from x import f`` are
wrapped too.  A boundary that no longer exists (a later change renamed
or removed it) is recorded as absent and skipped; tracing never fails
a run and the untraced numbers never see a wrapper.

A span's self time is its duration minus the time its child spans
cover.  Every span belongs to one layer (its category), and a layer's
self time is the sum of its spans' self times.  Each timed operation of
a workload is a ``bench.op`` span; their durations add up to the timed
wall, and their own self times to the part of it no layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
from collections import defaultdict

#: (module, attribute, span name, layer) of every wrapped boundary
BOUNDARIES = (
    ("repro.eval.experiments", "run_experiment", "eval.experiment", "eval"),
    ("repro.pipeline.context", "EvaluationContext.artifact",
     "pipeline.artifact", "pipeline"),
    ("repro.pipeline.store", "ArtifactStore.get", "pipeline.store_get",
     "pipeline"),
    ("repro.pipeline.store", "ArtifactStore.put", "pipeline.store_put",
     "pipeline"),
    ("repro.pipeline.context", "EvaluationContext.program_key",
     "pipeline.key", "pipeline"),
    ("repro.pipeline.context", "EvaluationContext.profile_key",
     "pipeline.key", "pipeline"),
    ("repro.pipeline.context", "EvaluationContext.config_key",
     "pipeline.key", "pipeline"),
    ("repro.pipeline.keys", "thresholds_fingerprint", "pipeline.key",
     "pipeline"),
    ("repro.pipeline.keys", "artifact_key", "pipeline.key", "pipeline"),
    ("repro.eval.structures", "evaluate_structure", "eval.evaluate", "eval"),
    ("repro.eval.structures", "plan_for_structure", "core.plan", "core"),
    ("repro.profile.profiler", "profile_program", "profile.run", "profile"),
    ("repro.core.online", "build_machine", "sim.build", "sim"),
    ("repro.sim.machine", "Machine.run", "sim.run", "sim"),
    ("repro.workloads.kernels", "kernel_program", "isa.assemble", "isa"),
    ("repro.workloads.case_study", "case_study_program", "isa.assemble",
     "isa"),
    ("repro.campaign.spec", "CampaignSpec.from_structure", "campaign.spec",
     "campaign"),
    ("repro.campaign.runner", "CampaignRunner.run", "campaign.run",
     "campaign"),
)

#: layer of an artifact's compute callback, by artifact kind; kinds not
#: listed stay in the pipeline layer
COMPUTE_LAYERS = {
    "interleave-mc": "faults",
    "scrub-mc": "faults",
    "measured-vulnerability": "campaign",
    "profile": "profile",
    "simulation": "sim",
    "kernel-run": "sim",
    "plan": "core",
    "evaluation": "eval",
    "mapping-snapshot": "eval",
    "static-profile": "analysis",
    "lint": "analysis",
}

#: every per-layer metric, in print order: (name, unit)
PER_LAYER = (
    ("faults.interleave_mc_s", "s"),
    ("faults.interleave_ktrials_per_s", "ktrials/s"),
    ("faults.scrub_mc_s", "s"),
    ("faults.scrub_kword_epochs_per_s", "kword-epochs/s"),
    ("pipeline.store_put_s", "s"),
    ("pipeline.store_puts", "count"),
    ("pipeline.store_put_bytes", "bytes"),
    ("pipeline.computes_cold", "count"),
    ("pipeline.store_get_s", "s"),
    ("pipeline.store_gets", "count"),
    ("pipeline.warm_hit_ratio", "ratio"),
    ("pipeline.computes_warm", "count"),
    ("pipeline.self_s", "s"),
    ("core.plan_s", "s"),
    ("core.plans", "count"),
    ("eval.evaluate_s", "s"),
    ("eval.self_s", "s"),
    ("profile.run_s", "s"),
    ("profile.instructions", "count"),
    ("profile.minst_per_s", "Minst/s"),
    ("sim.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.instructions", "count"),
    ("sim.cycles", "cycles"),
    ("sim.run_minst_per_s", "Minst/s"),
    ("isa.assemble_s", "s"),
    ("campaign.spec_s", "s"),
    ("campaign.shard_compute_s", "s"),
    ("campaign.compute_mtrials_per_s.ftspm", "Mtrials/s"),
    ("campaign.compute_mtrials_per_s.baseline-sram", "Mtrials/s"),
    ("campaign.fault_free_fraction.ftspm", "ratio"),
    ("campaign.fault_free_fraction.baseline-sram", "ratio"),
    ("campaign.dispatch_s", "s"),
    ("campaign.dispatch_ms_per_shard", "ms"),
    ("campaign.dispatch_ms_per_shard.ftspm", "ms"),
    ("campaign.dispatch_ms_per_shard.baseline-sram", "ms"),
    ("campaign.pool_efficiency", "ratio"),
    ("campaign.shard_p50_ms", "ms"),
    ("campaign.shard_tail_ms", "ms"),
    ("campaign.shard_tail_pct", "%"),
    ("campaign.pool_shards", "count"),
    ("campaign.failed_shards", "count"),
    ("campaign.retries", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.absent_boundaries", "count"),
)

#: outcome classes the batch engine settles without classifying a strike
FAULT_FREE = ("benign_immune", "benign_empty", "benign_dead")


class LayerTracer:
    """Wraps the boundaries while installed; keeps every span in memory."""

    def __init__(self):
        from repro.obs import Tracer

        self.tracer = Tracer()
        self.phase = None
        self.absent = []
        self._patches = []  # (owner, attribute, original)
        self._local = threading.local()

    def timed(self, phase):
        """Span one timed operation; tag every span in it with ``phase``."""
        self.phase = phase
        return self.tracer.span("bench.op", category="bench",
                                attrs={"phase": phase})

    def root(self, name):
        return self.tracer.span(name, category="bench")

    # --- installing ----------------------------------------------------------

    def install(self):
        for module_name, attribute, span_name, layer in BOUNDARIES:
            try:
                self._install(module_name, attribute, span_name, layer)
            except (ImportError, AttributeError, KeyError):
                self.absent.append("%s:%s" % (module_name, attribute))
        return self

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    def _install(self, module_name, attribute, span_name, layer):
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrapper(raw.__func__, span_name, layer))
            else:
                wrapped = self._wrapper(raw, span_name, layer)
            setattr(owner, method, wrapped)
            self._patches.append((owner, method, raw))
            return
        original = getattr(module, attribute)
        wrapped = self._wrapper(original, span_name, layer)
        for holder in list(sys.modules.values()):
            name = getattr(holder, "__name__", "") or ""
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    self._patches.append((holder, key, original))

    # --- wrappers ------------------------------------------------------------

    def _wrapper(self, original, span_name, layer):
        if span_name == "pipeline.artifact":
            return self._artifact_wrapper(original)
        if span_name == "pipeline.store_get":
            return self._store_get_wrapper(original)
        annotate = _ANNOTATORS.get(span_name)
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name, category = span_name, layer
            parent = tracer.current_span()
            if (span_name == "sim.run" and parent is not None
                    and parent.name == "profile.run"):
                # the profiling run's simulation is the profiler's work
                name, category = "profile.machine_run", "profile"
            with tracer.span(name, category=category,
                             attrs={"phase": self.phase}) as span:
                result = original(*args, **kwargs)
            if annotate is not None:
                try:
                    annotate(span, result)
                except (AttributeError, TypeError):
                    pass
            return result

        return traced

    def _store_get_wrapper(self, original):
        tracer, local = self.tracer, self._local
        default = _Parameter(original, "default")

        @functools.wraps(original)
        def traced(*args, **kwargs):
            missing = default.read(args, kwargs)
            with tracer.span("pipeline.store_get", category="pipeline",
                             attrs={"phase": self.phase}) as span:
                value = original(*args, **kwargs)
            hit = value is not missing
            span.set_attr("outcome", "hit" if hit else "miss")
            local.store_hit = hit
            return value

        return traced

    def _artifact_wrapper(self, original):
        tracer, local = self.tracer, self._local
        kind_of = _Parameter(original, "kind")
        parts_of = _Parameter(original, "parts")
        compute_of = _Parameter(original, "compute")

        @functools.wraps(original)
        def traced(*args, **kwargs):
            kind = kind_of.read(args, kwargs)
            compute = compute_of.read(args, kwargs)
            computed = []
            if callable(compute):
                attrs = {"phase": self.phase, "kind": kind,
                         "units": _work_units(kind,
                                              parts_of.read(args, kwargs))}
                category = COMPUTE_LAYERS.get(kind, "pipeline")

                def traced_compute():
                    computed.append(True)
                    with tracer.span("compute.%s" % kind,
                                     category=category, attrs=attrs):
                        return compute()

                args, kwargs = compute_of.replace(args, kwargs,
                                                  traced_compute)
            outer_hit = getattr(local, "store_hit", False)
            local.store_hit = False
            try:
                with tracer.span("pipeline.artifact", category="pipeline",
                                 attrs={"phase": self.phase,
                                        "kind": kind}) as span:
                    value = original(*args, **kwargs)
                span.set_attr("outcome", "computed" if computed else (
                    "store-hit" if local.store_hit else "memo-hit"))
            finally:
                local.store_hit = outer_hit
            return value

        return traced


class _Parameter:
    """One named parameter of a wrapped callable, found by signature once.

    A parameter the callable does not have reads as None, so a changed
    signature costs a metric, never the run.
    """

    def __init__(self, function, name):
        self.name = name
        self.index = None
        self.default = None
        try:
            parameters = list(inspect.signature(function).parameters.values())
        except (TypeError, ValueError):
            parameters = []
        for index, parameter in enumerate(parameters):
            if parameter.name != name:
                continue
            if parameter.default is not parameter.empty:
                self.default = parameter.default
            if parameter.kind in (parameter.POSITIONAL_ONLY,
                                  parameter.POSITIONAL_OR_KEYWORD):
                self.index = index

    def _positional(self, args):
        return self.index is not None and self.index < len(args)

    def read(self, args, kwargs):
        if self._positional(args):
            return args[self.index]
        return kwargs.get(self.name, self.default)

    def replace(self, args, kwargs, value):
        if self._positional(args):
            return (args[:self.index] + (value,) + args[self.index + 1:],
                    kwargs)
        return args, dict(kwargs, **{self.name: value})


def _work_units(kind, parts):
    """Trials (interleave-mc) or word-epochs (scrub-mc) of an artifact.

    Read from the artifact key's parts: ``(ways, trials, seed)`` and
    ``(protection, words, strike_rate, epochs, seed)``.
    """
    try:
        if kind == "interleave-mc":
            return int(parts[1])
        if kind == "scrub-mc":
            return int(parts[1]) * int(parts[3])
    except (TypeError, IndexError, ValueError):
        pass
    return None


def _annotate_run(span, result):
    span.set_attr("instructions", int(result.instructions))
    span.set_attr("cycles", int(result.cycles))


def _annotate_profile(span, result):
    span.set_attr("instructions", int(result.total_instructions))
    span.set_attr("cycles", int(result.total_cycles))


_ANNOTATORS = {
    "sim.run": _annotate_run,
    "profile.run": _annotate_profile,
}


# --- metrics -----------------------------------------------------------------


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(layer_tracer, info, overhead):
    """Every :data:`PER_LAYER` metric from the recorded spans.

    ``info`` is the workload's :meth:`~workloads.Workload.layer_info`;
    ``overhead`` is the traced pass's wall over the untraced pass's,
    minus one.
    """
    spans = layer_tracer.tracer.spans()
    covered = defaultdict(int)
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] += span.duration_ns

    def self_s(span):
        return max(0, span.duration_ns - covered[span.span_id]) / 1e9

    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name, phase=None, inclusive=False):
        return sum(span.duration if inclusive else self_s(span)
                   for span in by_name[name]
                   if phase is None or span.attrs.get("phase") == phase)

    def count(name, phase=None, **attrs):
        return sum(
            1 for span in by_name[name]
            if (phase is None or span.attrs.get("phase") == phase)
            and all(span.attrs.get(k) == v for k, v in attrs.items()))

    def attr_sum(name, key):
        return sum(span.attrs.get(key) or 0 for span in by_name[name])

    values = {}
    for kind, prefix, rate_name, scale in (
            ("interleave-mc", "faults.interleave_mc_s",
             "faults.interleave_ktrials_per_s", 1e3),
            ("scrub-mc", "faults.scrub_mc_s",
             "faults.scrub_kword_epochs_per_s", 1e3)):
        seconds = total("compute.%s" % kind, inclusive=True)
        values[prefix] = seconds
        values[rate_name] = _ratio(attr_sum("compute.%s" % kind, "units"),
                                   seconds) / scale

    values["pipeline.store_put_s"] = total("pipeline.store_put",
                                           inclusive=True)
    values["pipeline.store_puts"] = count("pipeline.store_put")
    values["pipeline.store_put_bytes"] = info.get("store_put_bytes", 0)
    values["pipeline.computes_cold"] = count(
        "pipeline.artifact", phase="cold", outcome="computed")
    warm_gets = count("pipeline.store_get", phase="warm")
    values["pipeline.store_get_s"] = total("pipeline.store_get",
                                           phase="warm", inclusive=True)
    values["pipeline.store_gets"] = warm_gets
    values["pipeline.warm_hit_ratio"] = _ratio(
        count("pipeline.store_get", phase="warm", outcome="hit"), warm_gets)
    values["pipeline.computes_warm"] = count(
        "pipeline.artifact", phase="warm", outcome="computed")
    # artifact lookups plus key fingerprinting, which the evaluation
    # context's methods do in their own frame before calling artifact()
    values["pipeline.self_s"] = (total("pipeline.artifact", phase="warm")
                                 + total("pipeline.key", phase="warm"))

    values["core.plan_s"] = total("core.plan")
    values["core.plans"] = count("core.plan")
    values["eval.evaluate_s"] = total("eval.evaluate")
    values["eval.self_s"] = total("eval.experiment")

    profile_s = total("profile.run", inclusive=True)
    profile_inst = attr_sum("profile.run", "instructions")
    values["profile.run_s"] = profile_s
    values["profile.instructions"] = profile_inst
    values["profile.minst_per_s"] = _ratio(profile_inst, profile_s) / 1e6

    run_s = total("sim.run", inclusive=True)
    run_inst = attr_sum("sim.run", "instructions")
    values["sim.build_s"] = total("sim.build", inclusive=True)
    values["sim.run_s"] = run_s
    values["sim.instructions"] = run_inst
    values["sim.cycles"] = attr_sum("sim.run", "cycles")
    values["sim.run_minst_per_s"] = _ratio(run_inst, run_s) / 1e6
    values["isa.assemble_s"] = total("isa.assemble", inclusive=True)
    values["campaign.spec_s"] = total("campaign.spec", inclusive=True)
    values.update(campaign_metrics(info))

    unattributed = total("bench.op")
    values["trace.overhead"] = overhead
    values["trace.unattributed_s"] = unattributed
    values["trace.coverage"] = 1.0 - _ratio(
        unattributed, total("bench.op", inclusive=True))
    values["trace.absent_boundaries"] = len(layer_tracer.absent)
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def campaign_metrics(info):
    """Shard compute, dispatch and outcome mix from campaign summaries.

    Worker compute is each shard record's ``elapsed`` (measured inside
    the worker), so no worker process is patched.
    """
    serial = info.get("serial", [])
    pool = info.get("pool", [])
    workers = info.get("workers", 0)
    compute_s = defaultdict(float)
    trials = defaultdict(int)
    fault_free = defaultdict(int)
    failed = retries = 0
    for (_, structure), summary in serial + pool:
        for record in summary.records:
            compute_s[structure] += record.elapsed or 0.0
            trials[structure] += record.trials if record.status == "ok" else 0
            retries += max(0, record.attempts - 1)
        failed += len(summary.failed_shards)
        fault_free[structure] += sum(getattr(summary.result, name)
                                     for name in FAULT_FREE)
    # pool capacity each campaign held (workers x wall) but did not
    # spend computing: dispatch, result handling and the drain tail
    pool_walls = info.get("pool_walls", [])
    idle, shards = defaultdict(float), defaultdict(int)
    for ((_, structure), summary), wall in zip(pool, pool_walls):
        idle[structure] += workers * wall - sum(
            record.elapsed or 0.0 for record in summary.records)
        shards[structure] += len(summary.records)
    pool_shards = sorted(record.elapsed or 0.0
                         for _, summary in pool for record in summary.records)
    dispatch = max(0.0, sum(idle.values()))
    values = {
        "campaign.shard_compute_s": sum(compute_s.values()),
        "campaign.dispatch_s": dispatch,
        "campaign.dispatch_ms_per_shard":
            _ratio(dispatch, len(pool_shards)) * 1e3,
        "campaign.pool_efficiency": _ratio(sum(pool_shards),
                                           workers * sum(pool_walls)),
        "campaign.shard_p50_ms":
            statistics.median(pool_shards) * 1e3 if pool_shards else 0.0,
        "campaign.pool_shards": len(pool_shards),
        "campaign.failed_shards": failed,
        "campaign.retries": retries,
    }
    # the highest percentile with at least ten shards beyond it
    tail_index = len(pool_shards) - 11
    values["campaign.shard_tail_ms"] = (
        pool_shards[tail_index] * 1e3 if tail_index >= 0 else 0.0)
    values["campaign.shard_tail_pct"] = (
        100.0 * (tail_index + 1) / len(pool_shards) if tail_index >= 0
        else 0.0)
    for structure in ("ftspm", "baseline-sram"):
        values["campaign.compute_mtrials_per_s.%s" % structure] = _ratio(
            trials[structure], compute_s[structure]) / 1e6
        values["campaign.fault_free_fraction.%s" % structure] = _ratio(
            fault_free[structure], trials[structure])
        values["campaign.dispatch_ms_per_shard.%s" % structure] = _ratio(
            max(0.0, idle[structure]), shards[structure]) * 1e3
    return values
