"""The observability layer: spans, metrics, exporters, sim attribution.

Contracts under test: the tracer reconstructs a correct span tree with
monotonic timing; the layer is inert (shared null objects, empty
registry) while disabled; the exporters emit loadable Perfetto JSON and
well-formed Prometheus text; the sim profiler's attribution agrees with
the energy ledger's independent accounting; and the instrumented stack
(pipeline, campaign, CLI) actually reports through the layer.
"""

import json

import pytest

from repro import Machine, assemble, baseline_sram_config, obs
from repro.errors import ReproError
from repro.obs.export import chrome_trace_document, prometheus_text
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.simprofile import SimProfiler
from repro.obs.trace import NULL_SPAN, Tracer

SOURCE = """
        .text
        .func main
main:   mov   r0, #0
        mov   r1, #5
loop:   add   r0, r0, r1
        sub   r1, r1, #1
        cmp   r1, #0
        bne   loop
        halt
        .endfunc
"""


@pytest.fixture(autouse=True)
def obs_isolation():
    """Every test starts and ends with the layer disabled and empty."""
    obs.reset()
    yield
    obs.reset()


# --- tracer -------------------------------------------------------------------

def test_span_nesting_and_parent_ids():
    tracer = Tracer()
    with tracer.span("outer", category="test") as outer:
        with tracer.span("inner", category="test") as inner:
            assert tracer.current_span() is inner
        with tracer.span("sibling", category="test") as sibling:
            pass
    assert inner.parent_id == outer.span_id
    assert sibling.parent_id == outer.span_id
    assert outer.parent_id is None
    assert tracer.current_span() is None
    # children_of reconstructs the tree from the flat record
    assert {s.name for s in tracer.children_of(outer)} == {
        "inner", "sibling"}


def test_span_timing_is_monotonic_and_contained():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            sum(range(1000))
    assert inner.duration_ns > 0
    assert outer.duration_ns >= inner.duration_ns
    assert outer.start_ns <= inner.start_ns
    assert (inner.start_ns + inner.duration_ns
            <= outer.start_ns + outer.duration_ns)


def test_span_attrs_and_error_marking():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("work", attrs={"input": 42}) as span:
            span.set_attr("step", "two")
            raise ValueError("boom")
    recorded, = tracer.spans(name="work")
    assert recorded.attrs["input"] == 42
    assert recorded.attrs["step"] == "two"
    assert recorded.attrs["error"] == "ValueError"


def test_span_ids_embed_the_pid():
    import os
    tracer = Tracer()
    with tracer.span("a") as a:
        pass
    assert a.span_id >> 24 == os.getpid()


def test_disabled_layer_hands_out_the_null_span():
    assert not obs.enabled()
    span = obs.span("anything", attrs={"k": "v"})
    assert span is NULL_SPAN
    with span as inner:
        inner.set_attr("ignored", 1)
    assert span.duration == 0.0 and not span.enabled
    # and the metric helpers are inert too: nothing registers
    obs.inc("nope")
    obs.observe("nope2", 1.0)
    obs.set_gauge("nope3", 1)
    assert len(obs.registry()) == 0


def test_enable_records_and_reset_drops():
    obs.enable()
    with obs.span("real") as span:
        pass
    assert span is not NULL_SPAN
    obs.inc("hits")
    assert len(obs.current_tracer().spans()) == 1
    assert obs.registry().get("hits").value() == 1
    obs.reset()
    assert not obs.enabled()
    assert len(obs.current_tracer().spans()) == 0


# --- metrics ------------------------------------------------------------------

def test_counter_labels_and_monotonicity():
    registry = MetricsRegistry()
    counter = registry.counter("requests_total")
    counter.inc(outcome="hit")
    counter.inc(2, outcome="hit")
    counter.inc(outcome="miss")
    assert counter.value(outcome="hit") == 3
    assert counter.value(outcome="miss") == 1
    assert counter.value(outcome="other") == 0
    with pytest.raises(ReproError):
        counter.inc(-1)


def test_metric_name_collision_across_kinds():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ReproError):
        registry.gauge("x")


def test_histogram_percentiles():
    histogram = Histogram("latency", buckets=(1.0, 2.0, 4.0, 8.0))
    for value in (0.5, 1.5, 1.5, 3.0, 7.0):
        histogram.observe(value)
    assert histogram.count() == 5
    assert histogram.sum() == pytest.approx(13.5)
    # the median falls in the (1, 2] bucket
    assert 1.0 <= histogram.percentile(50) <= 2.0
    # the 99th falls in the (4, 8] bucket
    assert 4.0 <= histogram.percentile(99) <= 8.0
    # beyond the last bound the histogram reports its upper edge
    histogram.observe(100.0)
    assert histogram.percentile(100) == 8.0


# --- exporters ----------------------------------------------------------------

def test_chrome_trace_document_shape():
    tracer = Tracer()
    with tracer.span("outer", category="pipeline", attrs={"k": "v"}):
        with tracer.span("inner", category="sim"):
            pass
    document = json.loads(json.dumps(chrome_trace_document(tracer)))
    events = document["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 2
    by_name = {e["name"]: e for e in complete}
    assert by_name["outer"]["cat"] == "pipeline"
    assert by_name["outer"]["args"]["k"] == "v"
    assert by_name["inner"]["args"]["parent_id"] == (
        by_name["outer"]["args"]["span_id"])
    # microsecond timestamps, inner contained in outer
    assert (by_name["outer"]["ts"] <= by_name["inner"]["ts"])
    assert all(e["dur"] >= 0 for e in complete)
    assert document["displayTimeUnit"] == "ms"


def test_prometheus_text_format():
    registry = MetricsRegistry()
    registry.counter("hits_total", "hit counter").inc(3, kind="a")
    registry.gauge("depth", "queue depth").set(2.5)
    registry.histogram("lat_seconds", "latency",
                       buckets=(0.1, 1.0)).observe(0.25)
    text = prometheus_text(registry)
    lines = text.splitlines()
    assert "# HELP hits_total hit counter" in lines
    assert "# TYPE hits_total counter" in lines
    assert 'hits_total{kind="a"} 3' in lines
    assert "depth 2.5" in lines
    assert 'lat_seconds_bucket{le="0.1"} 0' in lines
    assert 'lat_seconds_bucket{le="1"} 1' in lines
    assert 'lat_seconds_bucket{le="+Inf"} 1' in lines
    assert "lat_seconds_count 1" in lines
    assert text.endswith("\n")


def test_write_trace_and_metrics_round_trip(tmp_path):
    obs.enable()
    with obs.span("unit"):
        obs.inc("unit_total")
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.txt"
    obs.write_trace(str(trace_path))
    obs.write_metrics(str(metrics_path))
    document = json.loads(trace_path.read_text())
    assert any(e.get("ph") == "X" for e in document["traceEvents"])
    assert "unit_total 1" in metrics_path.read_text()


# --- sim attribution ----------------------------------------------------------

def test_sim_profiler_agrees_with_energy_ledger():
    """The per-device tallies match the devices' own counters."""
    from repro.tech.nvsim_lite import energy_models_for

    config = baseline_sram_config()
    machine = Machine(assemble(SOURCE), config,
                      energy_models=energy_models_for(config))
    profiler = SimProfiler(machine.program).attach(machine.events)
    machine.run()
    report = profiler.report()
    assert report.events == sum(
        tally.accesses for tally in report.devices.values()) > 0
    # no SPM on the baseline: every access is serviced by the cache,
    # whose own access counters exclude line-fill traffic to DRAM
    assert set(report.devices) == {"l1-cache"}
    cache = report.devices["l1-cache"]
    counters = machine.memory.cache.stats.accesses_stats
    assert cache.energy == pytest.approx(counters.dynamic_energy)
    assert cache.cycles == counters.total_cycles
    assert cache.writes == counters.writes
    assert cache.reads + cache.fetches == counters.reads
    # reads + writes + fetches partition the accesses
    for tally in report.devices.values():
        assert tally.reads + tally.writes + tally.fetches == tally.accesses


def test_machine_run_span_carries_hotspots_when_enabled():
    obs.enable()
    machine = Machine(assemble(SOURCE), baseline_sram_config())
    machine.run()
    run_span, = obs.current_tracer().spans(name="sim.run")
    assert run_span.attrs["engine"] in ("reference", "fast", "auto")
    assert run_span.attrs["instructions"] > 0
    assert run_span.attrs["hot_devices"]
    assert run_span.attrs["events"] > 0
    # the fold into metrics happened too
    counter = obs.registry().get("sim_device_cycles_total")
    assert sum(value for _, value in counter.samples()) > 0


def test_disabled_run_attaches_no_subscriber():
    machine = Machine(assemble(SOURCE), baseline_sram_config())
    machine.run()
    assert machine.events.subscriber_count == 0
    assert len(obs.current_tracer().spans()) == 0


def test_hotspot_table_renders():
    machine = Machine(assemble(SOURCE), baseline_sram_config())
    profiler = SimProfiler(machine.program).attach(machine.events)
    machine.run()
    table = profiler.report().table()
    assert "simulation hot spots" in table
    assert "device" in table and "block" in table


# --- the instrumented stack ---------------------------------------------------

def test_pipeline_artifact_counters_and_spans():
    from repro.pipeline.context import EvaluationContext
    from repro.workloads.case_study import case_study_program

    obs.enable()
    context = EvaluationContext()
    program = case_study_program(array_words=32, outer_iterations=1)
    context.profile_of(program)
    context.profile_of(program)  # second hit comes from the memo
    counter = obs.registry().get("pipeline_artifacts_total")
    assert counter.value(kind="profile", outcome="computed") == 1
    assert counter.value(kind="profile", outcome="memo-hit") == 1
    stage_spans = obs.current_tracer().spans(name="pipeline.profile")
    assert len(stage_spans) == 1  # only the compute is a span
    assert stage_spans[0].attrs["outcome"] == "computed"


def test_artifact_store_counters(tmp_path):
    from repro.pipeline.store import ArtifactStore

    obs.enable()
    store = ArtifactStore(tmp_path)
    key = "ab" + "0" * 62
    assert store.get(key) is None
    store.put(key, {"v": 1})
    assert store.get(key) == {"v": 1}
    counter = obs.registry().get("artifact_store_reads_total")
    assert counter.value(outcome="miss") == 1
    assert counter.value(outcome="hit") == 1
    assert obs.registry().get("artifact_store_writes_total").value() == 1


def test_campaign_emits_spans_and_metrics():
    from repro.campaign import CampaignRunner, CampaignSpec
    from repro.pipeline import get_context

    obs.enable()
    _, profile = get_context().resolve_workload(
        "case", array_words=32, outer_iterations=1)
    spec = CampaignSpec.from_structure(profile, "ftspm", trials=2000,
                                       seed=7, shard_size=1000)
    summary = CampaignRunner(spec, jobs=1).run()
    assert summary.complete
    tracer = obs.current_tracer()
    run_span, = tracer.spans(name="campaign.run")
    assert run_span.attrs["trials_completed"] == 2000
    shard_spans = tracer.children_of(run_span)
    assert [s.name for s in shard_spans] == ["campaign.shard"] * 2
    assert len(shard_spans) == spec.shard_count == 2
    assert {s.attrs["shard"] for s in shard_spans} == {0, 1}
    for shard_span in shard_spans:  # each shard's work nests under it
        assert [s.name for s in tracer.children_of(shard_span)] == [
            "campaign.shard.evaluate"]
    counter = obs.registry().get("campaign_shards_finished_total")
    assert counter.value(status="ok") == 2
    histogram = obs.registry().get("campaign_shard_seconds")
    assert histogram.count() == 2
    assert obs.registry().get("campaign_trials_done").value() == 2000


def test_campaign_metrics_without_progress_sink():
    """Metrics flow even with progress=None (the default CLI --no-progress
    path): the runner re-emits events into the registry directly."""
    from repro.campaign import CampaignRunner, CampaignSpec
    from repro.pipeline import get_context

    obs.enable()
    _, profile = get_context().resolve_workload(
        "case", array_words=32, outer_iterations=1)
    spec = CampaignSpec.from_structure(profile, "ftspm", trials=1000,
                                       seed=7, shard_size=1000)
    CampaignRunner(spec, jobs=1, progress=None).run()
    assert obs.registry().get(
        "campaign_shards_finished_total").value(status="ok") == 1


# --- CLI ----------------------------------------------------------------------

def test_cli_trace_and_metrics_flags(tmp_path, capsys):
    from repro.cli import main

    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.txt"
    # A scale no other test uses: the session-wide pipeline memo must
    # not already hold this profile, or no computation (and no sim.run
    # span) would happen.
    code = main(["profile", "case", "--array-words", "48",
                 "--outer-iterations", "1",
                 "--trace", str(trace_path),
                 "--metrics", str(metrics_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Array1" in captured.out  # subcommand stdout is untouched
    assert str(trace_path) in captured.err
    document = json.loads(trace_path.read_text())
    names = {e["name"] for e in document["traceEvents"]
             if e.get("ph") == "X"}
    assert "sim.run" in names and "pipeline.profile" in names
    text = metrics_path.read_text()
    assert "sim_device_cycles_total" in text
    assert "pipeline_artifacts_total" in text
    # the CLI resets the layer on the way out
    assert not obs.enabled()
    assert len(obs.current_tracer().spans()) == 0


def test_cli_without_flags_stays_dark(capsys):
    from repro.cli import main

    code = main(["profile", "case", "--array-words", "32",
                 "--outer-iterations", "1"])
    assert code == 0
    assert not obs.enabled()
    assert len(obs.current_tracer().spans()) == 0
