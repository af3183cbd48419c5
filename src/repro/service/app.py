"""The service core: routes, job lifecycle, coalescing, drain.

:class:`ReproService` glues the layers together:

* one shared :class:`~repro.pipeline.context.EvaluationContext`
  (optionally disk-backed) — every job's simulations, profiles, and
  evaluations (each carrying its mapping plan) are memoized artifacts,
  exactly as in the batch CLI,
* one persistent :class:`~repro.campaign.scheduler.ShardScheduler`
  worker pool — concurrent campaign jobs share it and steal each
  other's idle slots,
* a thread executor for the cheap analytic jobs (mapping, profile,
  lint) and for the campaign coordinators that block on the pool,
* the :class:`~repro.service.coalesce.Coalescer` plus the artifact
  store, so identical configs cost one computation ever.

Graceful drain: ``begin_drain()`` makes every new ``POST /v1/jobs``
answer 503, drops the scheduler's pending shards (in-flight ones
finish and checkpoint), and lets running jobs conclude before
``shutdown()`` stops the listener — what SIGTERM/SIGINT are wired to
under ``repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

from .. import obs
from ..campaign import CampaignRunner, CampaignSpec, ShardScheduler
from ..campaign.seeding import SAMPLING_DISCIPLINE
from ..config import (
    DEFAULT_CAMPAIGN_SEED,
    DEFAULT_MAX_RETRIES,
    DEFAULT_SHARD_SIZE,
)
from ..core.priorities import OptimizationMode, thresholds_for_mode
from ..errors import ReproError
from ..eval.structures import STRUCTURES
from ..pipeline import EvaluationContext, set_context
from ..pipeline.keys import artifact_key
from .coalesce import Coalescer
from .http import HttpError, HttpRequest, HttpResponse, HttpServer
from .jobs import JobRegistry, JobState

_MISS = object()

JOB_KINDS = ("mapping", "campaign", "lint", "profile")

#: per-kind parameter schema: name -> (type, default); REQUIRED means
#: the submitter must provide it.  Anything outside the schema is a
#: 400, which keeps the coalescing key space canonical.
_REQUIRED = object()

_COMMON_PARAMS = {
    "workload": (str, _REQUIRED),
    "array_words": (int, 256),
    "outer_iterations": (int, 4),
    "scale": (int, 1),
}

_KIND_PARAMS = {
    "mapping": {
        "structure": (str, "ftspm"),
        "mode": (str, "balanced"),
        "profile": (str, "dynamic"),
    },
    "profile": {
        "profile": (str, "dynamic"),
    },
    "lint": {},
    "campaign": {
        "structure": (str, "ftspm"),
        "trials": (int, 100_000),
        "seed": (int, DEFAULT_CAMPAIGN_SEED),
        "shard_size": (int, DEFAULT_SHARD_SIZE),
        "retries": (int, DEFAULT_MAX_RETRIES),
    },
}


def normalize_params(kind, params):
    """Apply the schema: defaults in, types coerced, unknowns out."""
    if kind not in JOB_KINDS:
        raise HttpError(400, "unknown job kind %r (one of: %s)"
                        % (kind, ", ".join(JOB_KINDS)))
    schema = dict(_COMMON_PARAMS)
    schema.update(_KIND_PARAMS[kind])
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise HttpError(400, "unknown parameter(s) for %s job: %s"
                        % (kind, ", ".join(unknown)))
    normalized = {}
    for name, (cast, default) in sorted(schema.items()):
        if name in params:
            value = params[name]
            try:
                normalized[name] = (cast(value)
                                    if value is not None else None)
            except (TypeError, ValueError):
                raise HttpError(
                    400, "parameter %r must be %s, got %r"
                    % (name, cast.__name__, value)) from None
        elif default is _REQUIRED:
            raise HttpError(400, "missing required parameter %r" % name)
        else:
            normalized[name] = default
    _validate_choices(kind, normalized)
    return normalized


def _validate_choices(kind, params):
    structure = params.get("structure")
    if structure is not None and structure not in STRUCTURES:
        raise HttpError(400, "unknown structure %r (one of: %s)"
                        % (structure, ", ".join(sorted(STRUCTURES))))
    mode = params.get("mode")
    if mode is not None and mode not in [m.value for m in
                                         OptimizationMode]:
        raise HttpError(400, "unknown mode %r" % mode)
    flavor = params.get("profile")
    if flavor is not None and flavor not in ("dynamic", "static"):
        raise HttpError(400, "profile must be 'dynamic' or 'static'")
    for positive in ("trials", "shard_size", "array_words",
                     "outer_iterations", "scale"):
        value = params.get(positive)
        if value is not None and value <= 0:
            raise HttpError(400, "parameter %r must be positive"
                            % positive)


def job_key(kind, params):
    """Content-hash identity of one job configuration.

    The same discipline as pipeline artifact keys; campaign keys are
    additionally salted with the sampling discipline so a change to
    the canonical strike stream orphans cached measured results
    instead of replaying them.
    """
    parts = [kind, params]
    if kind == "campaign":
        parts.append(SAMPLING_DISCIPLINE)
    return artifact_key("service-job", *parts)


class ReproService:
    """One server process: registry + coalescer + scheduler + HTTP."""

    def __init__(self, host="127.0.0.1", port=0, workers=2,
                 job_threads=8, cache_dir=None, clock=None,
                 ledger_path=None):
        self.context = EvaluationContext(store=cache_dir)
        # ``clock`` stamps job timestamps; inject a fake in tests to
        # pin submitted_at/finished_at in status responses.
        self.registry = JobRegistry(clock=clock)
        # With a ledger path every executed job leaves one durable
        # run-ledger record, and /v1/runs serves the file read-only.
        self.ledger = None
        if ledger_path:
            from ..obs.ledger import RunLedger

            self.ledger = (RunLedger(ledger_path, clock=clock)
                           if clock is not None
                           else RunLedger(ledger_path))
        self.coalescer = Coalescer()
        self.scheduler = ShardScheduler(workers=workers)
        self.server = HttpServer(self._handle, host=host, port=port)
        self._executor = ThreadPoolExecutor(
            max_workers=job_threads, thread_name_prefix="repro-job")
        self._results = {}  # key -> result (in-memory artifact tier)
        self._results_lock = threading.Lock()
        self.executed = {kind: 0 for kind in JOB_KINDS}
        self.draining = False
        self._previous_context = None

    # --- lifecycle --------------------------------------------------------------

    async def start(self):
        """Bind the listener; the service context becomes the process
        default so library code (spec builders, analytic cross-checks)
        shares its memo and store."""
        obs.enable()
        if self.ledger is not None:
            # Campaign jobs then write their own campaign records too,
            # so one service ledger tells the whole story of a run.
            obs.set_ledger(self.ledger)
        self._previous_context = set_context(self.context)
        await self.server.start()
        return self

    @property
    def port(self):
        return self.server.port

    @property
    def url(self):
        return "http://%s:%d" % (self.server.host, self.server.port)

    def begin_drain(self):
        """Refuse new submissions; drop pending shards; keep serving
        status/result/metrics reads."""
        self.draining = True
        self.scheduler.request_drain()
        obs.inc("service_drains_total", help="drain requests observed")

    async def shutdown(self):
        """Drain, wait out in-flight work, and stop the listener."""
        self.begin_drain()
        loop = asyncio.get_running_loop()
        # In-flight shards finish (and checkpoint) before the pool dies;
        # job coordinator threads then observe their partial summaries.
        await loop.run_in_executor(None, self.scheduler.drain)
        await loop.run_in_executor(
            None, lambda: self._executor.shutdown(wait=True))
        self.scheduler.close()
        await self.server.stop()
        if self.ledger is not None and obs.current_ledger() is self.ledger:
            obs.set_ledger(None)
        if self._previous_context is not None:
            set_context(self._previous_context)
            self._previous_context = None

    async def run_until_signalled(self,
                                  signals=(signal.SIGINT, signal.SIGTERM),
                                  on_ready=None):
        """``repro serve`` main loop: serve until SIGTERM/SIGINT, then
        drain gracefully and return."""
        await self.start()
        if on_ready is not None:
            on_ready()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def _on_signal():
            self.begin_drain()
            stop.set()

        for sig in signals:
            loop.add_signal_handler(sig, _on_signal)
        try:
            await stop.wait()
        finally:
            for sig in signals:
                loop.remove_signal_handler(sig)
        await self.shutdown()

    # --- routing ----------------------------------------------------------------

    async def _handle(self, request: HttpRequest) -> HttpResponse:
        with obs.span("service.request", category="service", attrs={
                "method": request.method, "path": request.path}) as span:
            response = await self._route(request)
            span.set_attr("status", response.status)
        obs.inc("service_requests_total", route=self._route_label(request),
                code=str(response.status),
                help="HTTP requests by route and status code")
        return response

    @staticmethod
    def _route_label(request):
        parts = [p for p in request.path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "jobs":
            if len(parts) == 2:
                return "/v1/jobs"
            if len(parts) == 3:
                return "/v1/jobs/{id}"
            if len(parts) == 4 and parts[3] == "result":
                return "/v1/jobs/{id}/result"
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "runs":
            return "/v1/runs" if len(parts) == 2 else "/v1/runs/{id}"
        return request.path

    async def _route(self, request):
        path, method = request.path, request.method
        if path == "/v1/jobs":
            if method == "POST":
                return await self._submit(request)
            if method == "GET":
                return self._list_jobs()
            raise HttpError(405, "use GET or POST on /v1/jobs")
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise HttpError(405, "job resources are read-only")
            parts = [p for p in path.split("/") if p]
            job = self.registry.get(parts[2])
            if job is None:
                raise HttpError(404, "no such job %r" % parts[2])
            if len(parts) == 3:
                return HttpResponse.json(self.registry.status_of(job))
            if len(parts) == 4 and parts[3] == "result":
                return self._job_result(job)
            raise HttpError(404, "unknown job resource %r" % path)
        if path == "/v1/runs" or path.startswith("/v1/runs/"):
            if method != "GET":
                raise HttpError(405, "the run ledger is read-only")
            parts = [p for p in path.split("/") if p]
            if len(parts) == 2:
                return self._list_runs(request)
            if len(parts) == 3:
                return self._show_run(parts[2])
            raise HttpError(404, "unknown run resource %r" % path)
        if path == "/metrics" and method == "GET":
            return self._metrics()
        if path == "/healthz" and method == "GET":
            return HttpResponse.json({
                "status": "draining" if self.draining else "ok",
                "jobs": len(self.registry),
                "queue_depth": self.scheduler.queue_depth,
                "inflight_shards": self.scheduler.inflight,
            })
        raise HttpError(404, "no route for %s %s" % (method, path))

    # --- submission / coalescing ------------------------------------------------

    async def _submit(self, request):
        if self.draining:
            raise HttpError(503, "server is draining; not accepting jobs")
        payload = request.json()
        kind = payload.get("kind")
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise HttpError(400, "params must be a JSON object")
        params = normalize_params(kind, params)
        key = job_key(kind, params)
        job = self.registry.create(kind, params, key)
        obs.inc("service_jobs_total", kind=kind,
                help="jobs submitted by kind")
        stored = self._recall(key)
        if stored is not _MISS:
            # Completed identical config: served straight from the
            # artifact store, no computation and no queueing.
            job.coalesced_from = "store"
            job.mark_done(stored)
            obs.inc("service_coalesce_total", outcome="store",
                    help="submissions coalesced by outcome")
            return HttpResponse.json(self.registry.status_of(job),
                                     status=200)
        leader = self.coalescer.attach_or_lead(key, job.id)
        if leader is not None:
            # Identical config already computing: attach to it.
            job.coalesced_with = leader
            job.coalesced_from = "inflight"
            return HttpResponse.json(self.registry.status_of(job),
                                     status=202)
        loop = asyncio.get_running_loop()
        loop.run_in_executor(self._executor, self._run_job, job)
        return HttpResponse.json(self.registry.status_of(job), status=202)

    def _recall(self, key):
        with self._results_lock:
            if key in self._results:
                return self._results[key]
        if self.context.store is not None:
            value = self.context.store.get(key, _MISS)
            if value is not _MISS:
                with self._results_lock:
                    self._results[key] = value
            return value
        return _MISS

    def _remember(self, key, result):
        with self._results_lock:
            self._results[key] = result
        if self.context.store is not None:
            self.context.store.put(key, result)

    # --- job execution (thread executor) ----------------------------------------

    def _run_job(self, job):
        job.mark_running()
        entry = None
        if self.ledger is not None:
            entry = self.ledger.begin(
                "service-job", key=job.key,
                params=dict(job.params, job=job.id, job_kind=job.kind))
        with obs.span("service.job", category="service",
                      attrs={"kind": job.kind, "key": job.key[:12]}):
            try:
                result, cacheable = self._compute(job)
            except Exception as error:
                job.mark_failed(error)
                obs.inc("service_jobs_finished_total", kind=job.kind,
                        status="failed",
                        help="job completions by kind and status")
            else:
                if cacheable:
                    self._remember(job.key, result)
                job.mark_done(result)
                obs.inc("service_jobs_finished_total", kind=job.kind,
                        status="done",
                        help="job completions by kind and status")
            finally:
                self.executed[job.kind] += 1
                obs.inc("service_jobs_executed_total", kind=job.kind,
                        help="jobs that actually computed (led)")
                self.coalescer.release(job.key, job.id)
                if entry is not None:
                    self.ledger.finish(
                        entry,
                        status="ok" if job.state == JobState.DONE
                        else "failed",
                        stats={"job_state": job.state})

    def _compute(self, job):
        """Returns ``(result_dict, cacheable)`` for one leading job."""
        params = job.params
        if job.kind == "campaign":
            return self._compute_campaign(job)
        program, profile = self.context.resolve_workload(
            params["workload"], array_words=params["array_words"],
            outer_iterations=params["outer_iterations"],
            scale=params["scale"],
            profile_flavor=params.get("profile", "dynamic"))
        if job.kind == "profile":
            return self._profile_result(profile), True
        if job.kind == "lint":
            if program is None:
                raise ReproError("workload %r has no program to lint"
                                 % params["workload"])
            report = self.context.lint_of(program)
            return {
                "text": report.to_text(),
                "findings": json.loads(report.to_json()),
                "has_errors": report.has_errors,
            }, True
        # mapping
        structure = params["structure"]
        evaluation = self.context.evaluation(
            profile, structure,
            thresholds=thresholds_for_mode(OptimizationMode(params["mode"])))
        plan = evaluation.plan
        result = {
            "structure": structure,
            "mode": params["mode"],
            "profile_flavor": getattr(profile, "flavor", "dynamic"),
            "table": plan.format_table(
                profile, title="MDA placement (%s, %s)"
                % (params["workload"], structure)),
            "assignments": {
                name: {"region": assignment.region_name,
                       "spm_address": assignment.spm_address}
                for name, assignment in sorted(plan.assignments.items())},
            "regions": {
                name: {"size": slot.size, "used": slot.used,
                       "protection": slot.protection.value}
                for name, slot in sorted(plan.slots.items())},
        }
        if structure == "ftspm":
            result["decisions"] = [
                {"step": d.step, "block": d.block, "action": d.action,
                 "detail": d.detail}
                for d in evaluation.mda_result.decisions]
        return result, True

    @staticmethod
    def _profile_result(profile):
        from ..profile.report import format_profile_table

        return {
            "flavor": getattr(profile, "flavor", "dynamic"),
            "total_cycles": profile.total_cycles,
            "total_instructions": profile.total_instructions,
            "blocks": len(profile.blocks),
            "table": format_profile_table(profile),
            "assumptions": list(getattr(profile, "assumptions", ())
                                or ()),
        }

    def _compute_campaign(self, job):
        params = job.params
        _, profile = self.context.resolve_workload(
            params["workload"], array_words=params["array_words"],
            outer_iterations=params["outer_iterations"],
            scale=params["scale"])
        spec = CampaignSpec.from_structure(
            profile, params["structure"], trials=params["trials"],
            seed=params["seed"], shard_size=params["shard_size"])

        def progress(event):
            job.update_progress(
                shards_done=event.shards_done,
                shards_total=event.shards_total,
                trials_done=event.trials_done,
                trials_total=event.trials_total,
                throughput=round(event.throughput, 1))

        runner = CampaignRunner(
            spec, max_retries=params["retries"], progress=progress,
            scheduler=self.scheduler)
        summary = runner.run()
        interval = summary.interval("harmful")
        result = {
            "workload": params["workload"],
            "structure": params["structure"],
            "trials_requested": summary.trials_requested,
            "trials_completed": summary.trials_completed,
            "complete": summary.complete,
            "drained": summary.drained,
            "counts": summary.result.to_dict(),
            "harmful_ci": {"point": interval.point, "low": interval.low,
                           "high": interval.high},
            "analytic_vulnerability": self.context.evaluation(
                profile, params["structure"]).vulnerability,
            "failed_shards": summary.failed_shards,
            "elapsed_seconds": round(summary.elapsed, 3),
        }
        # A drained/partial campaign must never poison the artifact
        # store: only complete measurements are served to later
        # identical requests.
        return result, summary.complete

    # --- read-side endpoints ----------------------------------------------------

    def _list_jobs(self):
        jobs = [self.registry.status_of(job)
                for job in self.registry.all()]
        jobs.sort(key=lambda payload: payload["id"])
        return HttpResponse.json({"jobs": jobs, "count": len(jobs)})

    def _job_result(self, job):
        state, result, error = self.registry.result_of(job)
        if state == JobState.FAILED:
            return HttpResponse.json(
                {"id": job.id, "state": state, "error": error}, status=200)
        if state != JobState.DONE:
            raise HttpError(409, "job %s is %s; result not ready"
                            % (job.id, state))
        return HttpResponse.json(
            {"id": job.id, "state": state, "result": result})

    def _require_ledger(self):
        if self.ledger is None:
            raise HttpError(
                404, "run ledger not enabled (serve with --ledger FILE)")
        return self.ledger

    def _list_runs(self, request):
        from ..obs.ledger import LedgerError, parse_since

        ledger = self._require_ledger()
        since = None
        raw = request.query.get("since")
        if raw:
            try:
                since = parse_since(raw)
            except LedgerError as error:
                raise HttpError(400, str(error)) from None
        records = ledger.read(since=since)
        runs = [{"id": r.get("id"), "kind": r.get("kind"),
                 "status": r.get("status"),
                 "started_at": r.get("started_at"),
                 "wall_s": r.get("wall_s"), "key": r.get("key")}
                for r in records]
        return HttpResponse.json({"runs": runs, "count": len(runs)})

    def _show_run(self, run_id):
        from ..obs.ledger import LedgerError

        ledger = self._require_ledger()
        try:
            record = ledger.get(run_id)
        except LedgerError as error:
            raise HttpError(400, str(error)) from None
        if record is None:
            raise HttpError(404, "no such run %r" % run_id)
        return HttpResponse.json({"run": record})

    def _metrics(self):
        self.scheduler._observe_queues()  # refresh gauges at scrape time
        obs.set_gauge("service_jobs_known", len(self.registry),
                      help="jobs tracked by the registry")
        obs.set_gauge("service_draining", 1 if self.draining else 0,
                      help="1 while the server refuses new submissions")
        return HttpResponse.text(obs.prometheus_text(obs.registry()))
