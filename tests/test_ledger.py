"""Run ledger, trace stitching, the runs CLI, and /v1/runs.

Contracts under test: every record kind validates against the pinned
schema (and the committed schema file matches the module verbatim);
appends from racing processes interleave as whole, valid JSONL lines;
records are byte-stable under injected clocks; a traced multi-process
campaign stitches every worker shard span under the one campaign span;
``repro runs show`` replays a record byte-identically; and the service
serves the ledger read-only at ``/v1/runs``.
"""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from repro import cli, obs
from repro.campaign import CampaignRunner, CampaignSpec
from repro.obs.context import capture, export_records, ingest, recording
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RECORD_KINDS,
    RUN_LEDGER_SCHEMA,
    LedgerError,
    RunLedger,
    parse_since,
    validate_record,
)
from repro.workloads import synthetic_profile

SCHEMA_FILE = os.path.join(os.path.dirname(__file__), os.pardir,
                           "docs", "schemas", "run-ledger.schema.json")


@pytest.fixture(autouse=True)
def obs_isolation():
    obs.reset()
    yield
    obs.reset()


class FakeClocks:
    """Deterministic clock/perf/cpu triple for byte-stable records."""

    def __init__(self):
        self.wall = 1_000_000.0
        self.mono = 50.0
        self.proc = 10.0

    def clock(self):
        self.wall += 1.5
        return self.wall

    def perf(self):
        self.mono += 0.25
        return self.mono

    def cpu(self):
        self.proc += 0.125
        return self.proc


def _fake_ledger(path):
    clocks = FakeClocks()
    return RunLedger(str(path), clock=clocks.clock, perf=clocks.perf,
                     cpu=clocks.cpu, repo="test-repo")


# --- schema -------------------------------------------------------------------

def test_committed_schema_file_matches_module():
    with open(SCHEMA_FILE) as handle:
        assert json.load(handle) == RUN_LEDGER_SCHEMA


@pytest.mark.parametrize("kind", RECORD_KINDS)
def test_every_record_kind_validates(tmp_path, kind):
    ledger = _fake_ledger(tmp_path / "ledger.jsonl")
    entry = ledger.begin(kind, key="k" * 64,
                         params={"trials": 10},
                         sampling="pcg64-chunked-v1")
    record = ledger.finish(entry, status="ok", stats={"trials": 10})
    validate_record(record)  # what finish() already enforced
    assert record["schema"] == LEDGER_SCHEMA_VERSION == 2
    assert "knobs" not in record
    assert record["kind"] == kind
    assert record["repo"] == "test-repo"
    assert record["wall_s"] > 0 and record["cpu_s"] > 0
    [read_back] = ledger.read()
    assert read_back == record


def test_schema_rejects_bad_records(tmp_path):
    ledger = _fake_ledger(tmp_path / "ledger.jsonl")
    with pytest.raises(LedgerError, match="unknown record kind"):
        ledger.begin("nonsense")
    record = ledger.finish(ledger.begin("evaluation"))
    for mutation in (lambda r: r.pop("wall_s"),
                     lambda r: r.update(kind="nonsense"),
                     lambda r: r.update(extra=1),
                     lambda r: r.update(wall_s=-1.0)):
        bad = dict(record)
        mutation(bad)
        with pytest.raises(LedgerError):
            validate_record(bad)


def test_injected_clocks_make_records_byte_stable(tmp_path):
    paths = (tmp_path / "a.jsonl", tmp_path / "b.jsonl")
    for path in paths:
        ledger = _fake_ledger(path)
        for kind in RECORD_KINDS:
            entry = ledger.begin(kind, key="deadbeef",
                                 params={"trials": 7})
            ledger.finish(entry, stats={"trials": 7})
    first, second = (path.read_bytes() for path in paths)
    assert first == second
    assert first.count(b"\n") == len(RECORD_KINDS)


def test_read_since_and_get_prefix(tmp_path):
    ledger = _fake_ledger(tmp_path / "ledger.jsonl")
    records = [ledger.finish(ledger.begin("evaluation"))
               for _ in range(3)]
    # FakeClocks ticks started_at by 1.5s per begin
    cutoff = records[1]["started_at"]
    since = [r["id"] for r in ledger.read(since=cutoff)]
    assert since == [records[1]["id"], records[2]["id"]]
    assert ledger.get(records[0]["id"]) == records[0]
    unique_prefix = records[0]["id"][:8]
    assert ledger.get(unique_prefix) == records[0]
    with pytest.raises(LedgerError, match="ambiguous"):
        ledger.get("r-")
    assert ledger.get("r-nosuchrun00") is None


def test_read_skips_torn_tail_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = _fake_ledger(path)
    record = ledger.finish(ledger.begin("evaluation"))
    with open(path, "a") as handle:
        handle.write('{"schema": 1, "id": "r-torn')  # crash mid-append
    assert [r["id"] for r in ledger.read()] == [record["id"]]


def test_parse_since_forms():
    assert parse_since("1722470400") == 1722470400.0
    assert parse_since("30m", now=lambda: 10_000.0) == 10_000.0 - 1800
    assert parse_since("12h", now=lambda: 90_000.0) == 90_000.0 - 43200
    import datetime
    expected = datetime.datetime(2026, 8, 8, 14, 30).timestamp()
    assert parse_since("2026-08-08T14:30") == expected
    for bad in ("", "yesterday", "5y"):
        with pytest.raises(LedgerError):
            parse_since(bad)


# --- concurrency --------------------------------------------------------------

APPENDER = """
import sys
sys.path.insert(0, {src!r})
from repro.obs.ledger import RunLedger

worker = int(sys.argv[1])
ledger = RunLedger({path!r}, clock=lambda: 1.0, perf=lambda: 2.0,
                   cpu=lambda: 3.0, repo="race-test")
for serial in range(25):
    entry = ledger.begin("evaluation", params={{"worker": worker,
                                                "serial": serial}})
    ledger.finish(entry)
"""


def test_racing_processes_append_whole_lines(tmp_path):
    path = tmp_path / "race.jsonl"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = APPENDER.format(src=os.path.abspath(src), path=str(path))
    procs = [subprocess.Popen([sys.executable, "-c", script, str(i)])
             for i in range(4)]
    for proc in procs:
        assert proc.wait(120) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 4 * 25
    seen = set()
    for line in lines:
        record = json.loads(line)  # every line parses: no interleaving
        validate_record(record)
        seen.add((record["params"]["worker"],
                  record["params"]["serial"]))
    assert len(seen) == 4 * 25  # every append from every process


# --- trace context ------------------------------------------------------------

def test_capture_is_none_while_disabled():
    assert capture() is None
    with recording(None) as collector:
        obs.add_complete_span("ignored", 0, 1)
    assert collector.records == []


def test_in_process_capture_export_ingest_round_trip():
    obs.enable()
    with obs.span("parent", category="test"):
        ctx = capture()
    assert ctx["parent_id"] is not None
    tracer = obs.current_tracer()
    before = len(tracer)
    with recording(ctx) as collector:
        with obs.span("task", category="test"):
            with obs.span("task.inner", category="test"):
                pass
    names = [record["name"] for record in collector.records]
    assert names == ["task.inner", "task"]
    outer = collector.records[1]
    assert outer["parent_id"] == ctx["parent_id"]
    assert obs.enabled()  # in-process caller keeps its obs state
    ingested = ingest(collector.records)
    assert ingested == 2
    assert len(tracer) == before + 4  # 2 recorded + 2 ingested


def test_export_records_reparents_only_set_roots():
    obs.enable()
    tracer = obs.current_tracer()
    with tracer.span("a") as a:
        with tracer.span("b"):
            pass
    spans = tracer.spans()
    records = export_records(tracer, spans, default_parent=777)
    by_name = {record["name"]: record for record in records}
    assert by_name["a"]["parent_id"] == 777
    assert by_name["b"]["parent_id"] == a.span_id
    assert by_name["a"]["start_abs_ns"] == (
        spans[-1].start_ns + tracer.epoch_abs_ns)


def _traced_campaign(tmp_path, jobs):
    spec = CampaignSpec.from_structure(
        synthetic_profile("sha"), "ftspm", trials=1_200, seed=0xBEEF,
        shard_size=200)
    obs.enable()
    ledger = _fake_ledger(tmp_path / "ledger.jsonl")
    obs.set_ledger(ledger)
    try:
        summary = CampaignRunner(spec, jobs=jobs).run()
    finally:
        obs.set_ledger(None)
    document = obs.chrome_trace_document(obs.current_tracer())
    return spec, summary, ledger, document


def test_stitched_trace_parents_worker_shards(tmp_path):
    spec, summary, ledger, document = _traced_campaign(tmp_path, jobs=2)
    assert summary.complete
    spans = [e for e in document["traceEvents"] if e.get("ph") == "X"]
    [campaign] = [e for e in spans if e["name"] == "campaign.run"]
    shards = [e for e in spans if e["name"] == "campaign.shard"]
    # every shard exactly once: workers' real spans replace the
    # parent's synthetic lane spans instead of duplicating them
    assert len(shards) == spec.shard_count
    assert all(e["args"]["parent_id"] == campaign["args"]["span_id"]
               for e in shards)
    worker_pids = {e["pid"] for e in shards}
    assert len(worker_pids) >= 2, "expected spans from >= 2 processes"
    assert campaign["pid"] not in worker_pids
    shard_ids = {e["args"]["span_id"] for e in shards}
    evaluates = [e for e in spans
                 if e["name"] == "campaign.shard.evaluate"]
    assert len(evaluates) == spec.shard_count
    assert all(e["args"]["parent_id"] in shard_ids for e in evaluates)
    names = {e["args"]["name"]
             for e in document["traceEvents"]
             if e.get("ph") == "M" and e["name"] == "process_name"}
    assert "repro" in names
    assert any(name.startswith("repro worker") for name in names)


def test_campaign_writes_ledger_record(tmp_path):
    spec, summary, ledger, _ = _traced_campaign(tmp_path, jobs=2)
    [record] = ledger.read()
    assert record["kind"] == "campaign"
    assert record["key"] == spec.fingerprint()
    assert record["sampling"] == "pcg64-chunked-v1"
    assert record["params"]["trials"] == spec.trials
    assert record["params"]["jobs"] == 2
    assert record["status"] == "ok"
    assert record["stats"]["trials_completed"] == spec.trials
    assert record["stats"]["counts"]["trials"] == spec.trials
    assert record["stats"]["steals"] >= 0
    assert record["stats"]["failed_shards"] == 0


def test_serial_campaign_keeps_lane_spans(tmp_path):
    spec, summary, _, document = _traced_campaign(tmp_path, jobs=1)
    spans = [e for e in document["traceEvents"] if e.get("ph") == "X"]
    shards = [e for e in spans if e["name"] == "campaign.shard"]
    assert len(shards) == spec.shard_count  # synthetic lanes, one pid
    assert len({e["pid"] for e in shards}) == 1


def test_per_job_queue_depth_gauge_lifecycle():
    from repro.campaign.scheduler import ShardScheduler

    obs.enable()
    spec = CampaignSpec.from_structure(
        synthetic_profile("sha"), "ftspm", trials=400, seed=1,
        shard_size=200)
    scheduler = ShardScheduler(workers=2)
    try:
        scheduler.pause()  # hold dispatch so the queue stays visible
        job = scheduler.submit(spec)
        scheduler._observe_queues()
        gauge = obs.registry().get("scheduler_job_queue_depth")
        label = {"job": "job-%d" % job.id}
        depths = [value for labels, value in gauge.samples()
                  if labels == label]
        assert depths == [spec.shard_count]
        scheduler.resume()
        job.wait()
        # the finished job's gauge sample is dropped, not left at 0
        assert all(labels != label
                   for labels, _ in gauge.samples())
    finally:
        scheduler.close()


# --- runs CLI -----------------------------------------------------------------

def _seeded_cli_ledger(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = _fake_ledger(path)
    ids = []
    for trials in (100, 200):
        entry = ledger.begin("campaign", key="c" * 64,
                             params={"trials": trials},
                             sampling="pcg64-chunked-v1")
        ids.append(ledger.finish(entry,
                                 stats={"trials": trials})["id"])
    return str(path), ids


def test_runs_show_is_byte_identical(tmp_path, capsys):
    path, ids = _seeded_cli_ledger(tmp_path)
    outputs = []
    for _ in range(2):
        assert cli.main(["runs", "show", ids[0],
                         "--ledger", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert '"pcg64-chunked-v1"' in outputs[0]
    assert "params.trials" in outputs[0]


def test_runs_list_and_since(tmp_path, capsys):
    path, ids = _seeded_cli_ledger(tmp_path)
    assert cli.main(["runs", "list", "--ledger", path,
                     "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2
    assert [run["id"] for run in payload["runs"]] == ids
    # FakeClocks ticks 1.5s per begin: a cutoff after the first
    # record's start keeps only the second
    cutoff = payload["runs"][1]["started_at"]
    assert cli.main(["runs", "list", "--ledger", path, "--json",
                     "--since", str(cutoff)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [run["id"] for run in payload["runs"]] == [ids[1]]
    assert cli.main(["runs", "list", "--ledger", path]) == 0
    table = capsys.readouterr().out
    assert ids[0] in table and ids[1] in table


#: a schema-1 line as earlier releases appended it (with ``knobs``)
V1_RECORD = {
    "schema": 1, "id": "r-0123456789ab", "kind": "campaign",
    "key": "c" * 64, "repo": "test-repo", "pipeline_schema": 2,
    "sampling": "pcg64-chunked-v1", "pid": 4242,
    "started_at": 999_000.0, "wall_s": 0.5, "cpu_s": 0.25,
    "status": "ok", "knobs": {"engine": "fast", "injector": "batch"},
    "cache": {"hits": 0, "misses": 0}, "params": {"trials": 300},
    "stats": {"trials": 300},
}


def _append_v1_record(path):
    with open(path, "a") as handle:
        handle.write(json.dumps(V1_RECORD, sort_keys=True) + "\n")


def test_runs_compare_diffs_knobs_and_stats(tmp_path, capsys):
    path, ids = _seeded_cli_ledger(tmp_path)
    assert cli.main(["runs", "compare", ids[0], ids[1],
                     "--ledger", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"] == ids[0] and payload["b"] == ids[1]
    diff = payload["diff"]
    assert diff["params.trials"] == {"a": 100, "b": 200, "delta": 100}
    assert diff["stats.trials"]["delta"] == 100
    # identity fields are skipped, identical fields don't appear
    assert "id" not in diff and "sampling" not in diff
    # a schema-1 record's knobs show up against a record without them
    _append_v1_record(path)
    assert cli.main(["runs", "compare", V1_RECORD["id"], ids[0],
                     "--ledger", path, "--json"]) == 0
    diff = json.loads(capsys.readouterr().out)["diff"]
    assert diff["schema"] == {"a": 1, "b": 2, "delta": 1}
    assert diff["knobs.engine"] == {"a": "fast", "b": None}
    assert diff["knobs.injector"] == {"a": "batch", "b": None}
    assert diff["params.trials"]["delta"] == -200


def test_schema_1_records_stay_readable(tmp_path, capsys):
    """Lines written before the ``knobs`` field was dropped still list,
    show, and serve at /v1/runs next to current records."""
    from repro.service.app import ReproService

    path, ids = _seeded_cli_ledger(tmp_path)
    _append_v1_record(path)
    assert cli.main(["runs", "list", "--ledger", path, "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)["runs"]
    assert [run["id"] for run in listed] == ids + [V1_RECORD["id"]]
    assert cli.main(["runs", "show", V1_RECORD["id"][:8],
                     "--ledger", path]) == 0
    shown = capsys.readouterr().out
    assert "knobs.engine" in shown and '"batch"' in shown
    service = ReproService(port=0, ledger_path=path)
    status, payload = _get(service, "/v1/runs/%s" % V1_RECORD["id"])
    assert status == 200
    assert payload["run"] == V1_RECORD


def test_runs_errors(tmp_path, capsys):
    path, ids = _seeded_cli_ledger(tmp_path)
    assert cli.main(["runs", "show", "r-nosuchrun00",
                     "--ledger", path]) == 1
    assert "no run" in capsys.readouterr().err
    for name in ("REPRO_LEDGER",):
        assert name not in os.environ
    assert cli.main(["runs", "list"]) == 1
    assert "no ledger given" in capsys.readouterr().err
    os.environ["REPRO_LEDGER"] = path
    try:
        assert cli.main(["runs", "show", ids[0]]) == 0
    finally:
        del os.environ["REPRO_LEDGER"]


def test_cli_ledger_flag_records_evaluation(tmp_path, capsys):
    path = tmp_path / "cli.jsonl"
    argv = ["campaign", "sha", "--structure", "ftspm",
            "--trials", "600", "--shard-size", "200",
            "--ledger", str(path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    records = RunLedger(str(path)).read()
    kinds = [record["kind"] for record in records]
    assert sorted(kinds) == ["campaign", "evaluation"]
    evaluation = records[[r["kind"] for r in records]
                         .index("evaluation")]
    assert evaluation["status"] == "ok"
    assert evaluation["params"]["command"] == "campaign"
    assert evaluation["params"]["trials"] == 600
    assert not obs.enabled()  # main() resets the layer on the way out


# --- service /v1/runs ---------------------------------------------------------

def _get(service, path, query=None):
    from repro.service.http import HttpRequest

    request = HttpRequest(method="GET", path=path, query=query or {},
                          headers={}, body=b"")
    response = asyncio.run(service._route(request))
    return response.status, json.loads(response.body.decode())


def test_service_runs_endpoints(tmp_path):
    from repro.service.app import ReproService
    from repro.service.http import HttpError, HttpRequest

    path = tmp_path / "service.jsonl"
    service = ReproService(port=0, ledger_path=str(path))
    entry = service.ledger.begin("service-job", key="j" * 64,
                                 params={"job": "j-1"})
    record = service.ledger.finish(entry, stats={"job_state": "done"})
    status, payload = _get(service, "/v1/runs")
    assert status == 200
    assert payload["count"] == 1
    assert payload["runs"][0]["id"] == record["id"]
    status, payload = _get(service, "/v1/runs/%s" % record["id"])
    assert status == 200
    assert payload["run"] == record
    with pytest.raises(HttpError) as caught:
        _get(service, "/v1/runs/r-nosuchrun00")
    assert caught.value.status == 404
    with pytest.raises(HttpError) as caught:
        _get(service, "/v1/runs", query={"since": "nonsense"})
    assert caught.value.status == 400
    status, payload = _get(service, "/v1/runs",
                           query={"since": "1.0"})
    assert payload["count"] == 1
    with pytest.raises(HttpError) as caught:
        asyncio.run(service._route(HttpRequest(
            method="POST", path="/v1/runs", query={}, headers={},
            body=b"{}")))
    assert caught.value.status == 405


def test_service_runs_404_without_ledger():
    from repro.service.app import ReproService
    from repro.service.http import HttpError

    service = ReproService(port=0)
    assert service.ledger is None
    with pytest.raises(HttpError) as caught:
        _get(service, "/v1/runs")
    assert caught.value.status == 404
    assert "--ledger" in caught.value.message
