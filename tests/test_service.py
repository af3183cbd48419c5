"""Job service: concurrency, coalescing, metrics, drain, HTTP edges.

The acceptance-grade scenario: at least eight concurrent mixed jobs
through one persistent worker pool, with identical configurations
coalescing onto a single computation — verified by the service's
executed-per-kind counters and the coalescer's lead/attach tallies.
"""

import re
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import ReproService, ServiceClient, ServiceError

CAMPAIGN = dict(workload="qsort", trials=1_500, shard_size=500)


class ServiceHarness:
    """A live service on an ephemeral port, on a background loop."""

    def __init__(self, **kwargs):
        import asyncio
        self.service = ReproService(port=0, **kwargs)
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        import asyncio
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.service.start())
        self._ready.set()
        self.loop.run_forever()

    def __enter__(self):
        import asyncio  # noqa: F401  (kept hot for the loop thread)
        self.thread.start()
        assert self._ready.wait(10), "service did not start"
        return self

    def __exit__(self, *exc):
        import asyncio
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(), self.loop)
        future.result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()
        return False

    @property
    def client(self):
        return ServiceClient(port=self.service.port)


@pytest.fixture(scope="module")
def harness():
    with ServiceHarness(workers=2, job_threads=8) as live:
        yield live


def test_mixed_concurrent_jobs_coalesce(harness):
    """8+ concurrent submissions, identical ones computing once."""
    service, client = harness.service, harness.client
    before = dict(service.executed)

    submissions = (
        [("campaign", CAMPAIGN)] * 3           # identical -> 1 compute
        + [("mapping", dict(workload="case"))] * 2   # identical -> 1
        + [("profile", dict(workload="sha"))]
        + [("lint", dict(workload="case"))]
        + [("campaign", dict(CAMPAIGN, trials=1_000))]  # distinct config
    )
    assert len(submissions) >= 8

    def submit(entry):
        kind, params = entry
        return kind, client.submit(kind, **params)

    with ThreadPoolExecutor(max_workers=len(submissions)) as pool:
        statuses = list(pool.map(submit, submissions))

    finals = {}
    for kind, status in statuses:
        final = client.wait(status["id"], timeout=300)
        assert final["state"] == "done", final
        finals.setdefault(status["id"], final)

    # Every submitter can read a result through its own job id.
    results = [client.result(status["id"])["result"]
               for _, status in statuses]
    campaign_results = [r for r in results if "counts" in r]
    identical = [r["counts"] for r in campaign_results
                 if r["trials_completed"] == CAMPAIGN["trials"]]
    assert len(identical) == 3
    assert identical[0] == identical[1] == identical[2]

    executed = {kind: service.executed[kind] - before.get(kind, 0)
                for kind in service.executed}
    assert executed["campaign"] == 2  # two distinct configs
    assert executed["mapping"] == 1
    assert executed["profile"] == 1
    assert executed["lint"] == 1
    # 8 submissions, 5 computations: 3 coalesced (in-flight or store)
    coalesced = (service.coalescer.attaches
                 + sum(1 for _, s in statuses
                       if s.get("coalesced_from") == "store"))
    assert coalesced >= 3
    assert service.scheduler.stats["pools_created"] <= 1


#: ``repro campaign``'s outcome-table rows, by CampaignResult count field
OUTCOME_ROWS = {
    "benign (immune)": "benign_immune", "benign (empty)": "benign_empty",
    "benign (dead)": "benign_dead", "no effect": "none",
    "DRE (recovered)": "dre", "DUE (detected)": "due",
    "SDC (silent)": "sdc",
}


def cli_campaign_counts(capsys, *argv):
    """Outcome counts printed by one ``repro campaign`` invocation."""
    from repro.cli import main

    assert main(["campaign", *argv, "--no-progress"]) == 0
    counts = {}
    for line in capsys.readouterr().out.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if cells[0] in OUTCOME_ROWS:
            counts[OUTCOME_ROWS[cells[0]]] = int(cells[1].replace(",", ""))
    return counts


def test_one_seed_one_answer_on_every_entry_point(harness, capsys):
    """One (workload, structure, trials, seed) gives the same outcome
    counts through ``repro campaign`` at any ``--jobs``, a service
    campaign job, and fig5's measured column."""
    from repro.eval import run_experiment

    trials, seed = 60_000, 23  # three shards at the default shard size
    argv = ("sha", "--structure", "ftspm", "--trials", str(trials),
            "--seed", str(seed))
    serial = cli_campaign_counts(capsys, *argv, "--jobs", "1")
    assert sum(serial.values()) == trials
    assert cli_campaign_counts(capsys, *argv, "--jobs", "2") == serial

    client = harness.client
    status = client.submit("campaign", workload="sha", structure="ftspm",
                           trials=trials, seed=seed)
    assert client.wait(status["id"], timeout=300)["state"] == "done"
    counts = client.result(status["id"])["result"]["counts"]
    assert {field: counts[field] for field in serial} == serial

    fig5 = run_experiment("fig5", measured_trials=trials,
                          measured_seed=seed)
    harmful = serial["due"] + serial["sdc"]
    assert harmful > 0
    assert fig5.data["measured"]["sha"]["vulnerability"] * trials == (
        pytest.approx(harmful))


def test_repeat_submission_served_from_memory(harness):
    client = harness.client
    first = client.submit("mapping", workload="case")
    client.wait(first["id"], timeout=60)
    again = client.submit("mapping", workload="case")
    assert again["state"] == "done"
    assert again["coalesced_from"] == "store"


def test_job_listing_and_status_fields(harness):
    client = harness.client
    status = client.submit("profile", workload="crc32")
    final = client.wait(status["id"], timeout=60)
    assert final["kind"] == "profile"
    assert final["key"] == status["key"]
    listed = {job["id"] for job in client.jobs()}
    assert status["id"] in listed


def test_metrics_exposition_parses(harness):
    client = harness.client
    client.wait(client.submit("profile", workload="sha")["id"], 60)
    text = client.metrics()
    assert "service_requests_total" in text
    assert "service_coalesce_total" in text
    assert "scheduler_queue_depth" in text
    label = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    sample = re.compile(
        r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{%s(,%s)*\})? '
        r'[-+]?(\d+\.?\d*([eE][-+]?\d+)?|inf|nan)$' % (label, label))
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert sample.match(line), "unparseable sample line: %r" % line


def test_http_error_paths(harness):
    client = harness.client
    with pytest.raises(ServiceError) as err:
        client.status("job-999999")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client.submit("sprint", workload="case")
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        client.submit("campaign", workload="case", trials=-5)
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        client.submit("mapping", workload="case", outer_iterations=0)
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        client.submit("mapping", workload="case", nonsense=1)
    assert err.value.status == 400
    with pytest.raises(ServiceError) as err:
        client._request("PUT", "/v1/jobs")
    assert err.value.status == 405


def test_failed_job_reports_error(harness):
    client = harness.client
    # synthetic workloads carry no program: lint must fail cleanly
    status = client.submit("lint", workload="qsort")
    final = client.wait(status["id"], timeout=60)
    assert final["state"] == "failed"
    payload = client.result(status["id"])
    assert payload["state"] == "failed"
    assert "no program to lint" in payload["error"]


def test_drain_refuses_new_submissions():
    with ServiceHarness(workers=1, job_threads=2) as live:
        client = live.client
        live.service.begin_drain()
        assert client.health()["status"] == "draining"
        with pytest.raises(ServiceError) as err:
            client.submit("profile", workload="sha")
        assert err.value.status == 503


def test_store_survives_restart(tmp_path):
    cache = str(tmp_path / "cache")
    params = dict(workload="qsort", trials=600, shard_size=300)
    with ServiceHarness(workers=1, job_threads=2,
                        cache_dir=cache) as live:
        client = live.client
        first = client.submit("campaign", **params)
        done = client.wait(first["id"], timeout=300)
        assert done["state"] == "done"
        counts = client.result(first["id"])["result"]["counts"]
    with ServiceHarness(workers=1, job_threads=2,
                        cache_dir=cache) as live:
        client = live.client
        again = client.submit("campaign", **params)
        # No computation: answered synchronously from the store.
        assert again["state"] == "done"
        assert again["coalesced_from"] == "store"
        assert client.result(again["id"])["result"]["counts"] == counts
        assert live.service.executed["campaign"] == 0
        # the artifact store itself, not a warm memo, answered the hit
        assert live.service.context.store.hits >= 1


def test_submit_param_normalization_keys():
    from repro.service.app import job_key, normalize_params
    from repro.service.http import HttpError
    base = normalize_params("campaign", dict(CAMPAIGN))
    reordered = normalize_params(
        "campaign", dict(reversed(list(CAMPAIGN.items()))))
    assert job_key("campaign", base) == job_key("campaign", reordered)
    # the evaluator and engine are not job parameters
    for knob in ("engine", "injector"):
        with pytest.raises(HttpError) as caught:
            normalize_params("campaign", dict(CAMPAIGN, **{knob: "fast"}))
        assert caught.value.status == 400
    assert (job_key("campaign", base)
            != job_key("campaign",
                       normalize_params("campaign",
                                        dict(CAMPAIGN, seed=1))))
    # kinds partition the key space even for identical params
    assert (job_key("profile", normalize_params("profile",
                                                dict(workload="sha")))
            != job_key("lint", normalize_params("lint",
                                                dict(workload="sha"))))
