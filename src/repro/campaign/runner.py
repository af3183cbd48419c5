"""Parallel, resumable execution of sharded injection campaigns.

The runner splits a campaign's trial budget into fixed-size shards,
dispatches them through a work-stealing
:class:`~repro.campaign.scheduler.ShardScheduler` (or in-process when
``jobs=1``), and merges the shard results in index order.  Because
every shard's RNG seed derives only from the campaign seed and the
shard index (see :mod:`repro.campaign.seeding`), the merged aggregate
is identical for any worker count and any completion order.

Pool ownership is decoupled from shard execution: by default the
runner spins up a private scheduler for the one run (the classic CLI
behavior), but a long-lived caller — the job service — passes a shared
``scheduler=`` and many concurrent campaigns then ride one persistent
worker-process pool, stealing each other's idle slots.

Fault tolerance: a shard whose worker raises — or whose worker process
dies outright, breaking the pool — is retried up to ``max_retries``
times with the *same* seed (a retried shard reproduces the original
trials exactly); after that it is recorded as failed and the campaign
reports partial results, whose confidence intervals widen accordingly.
With a run directory attached, every finished shard is checkpointed
durably, so a killed campaign resumes without redoing completed work.
:meth:`CampaignRunner.request_drain` (wired to SIGTERM/SIGINT by the
CLI) stops cleanly instead: in-flight shards finish and checkpoint,
pending ones are left for a later ``--resume``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from .. import obs
from ..errors import CampaignError
from ..eval.tables import render_table
from ..faults.injector import CampaignResult
from ..obs import context as obs_context
from .checkpoint import RunDirectory
from .executor import FAIL_SHARDS_ENV  # noqa: F401  (re-export: test hook)
from .executor import execute_shard as _execute_shard
from .progress import ProgressEvent, progress_to_metrics
from .scheduler import ShardListener, ShardScheduler
from .seeding import SAMPLING_DISCIPLINE
from .stats import wilson_interval

#: synthetic Chrome-trace lane base so overlapping shard spans render on
#: per-shard tracks instead of as a bogus nesting on the caller thread
_SHARD_LANE_BASE = 10_000

DEFAULT_MAX_RETRIES = 2


@dataclass
class ShardRecord:
    """Outcome of one shard, as kept in memory and in the journal."""

    index: int
    seed: int
    trials: int
    status: str  # "ok" | "failed"
    attempts: int = 1
    elapsed: Optional[float] = None
    result: Optional[dict] = None  # CampaignResult.to_dict() when "ok"
    error: Optional[str] = None
    resumed: bool = False

    def to_journal(self):
        record = {
            "shard": self.index,
            "seed": self.seed,
            "trials": self.trials,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }
        if self.result is not None:
            record["result"] = self.result
        if self.error is not None:
            record["error"] = self.error
        return record

    @classmethod
    def from_journal(cls, record):
        return cls(
            index=record["shard"],
            seed=record.get("seed"),
            trials=record.get("trials", 0),
            status=record.get("status", "failed"),
            attempts=record.get("attempts", 1),
            elapsed=record.get("elapsed"),
            result=record.get("result"),
            error=record.get("error"),
            resumed=True,
        )


@dataclass
class CampaignSummary:
    """Aggregate outcome of a (possibly partial) campaign run."""

    spec: object
    result: CampaignResult
    records: list = field(default_factory=list)  # ShardRecords by index
    elapsed: float = 0.0
    jobs: int = 1
    fresh_trials: int = 0
    drained: bool = False  # stopped early by a graceful drain

    @property
    def completed_shards(self):
        return [r.index for r in self.records if r.status == "ok"]

    @property
    def failed_shards(self):
        return [r.index for r in self.records if r.status == "failed"]

    @property
    def trials_requested(self):
        return self.spec.trials

    @property
    def trials_completed(self):
        return self.result.trials

    @property
    def complete(self):
        return self.trials_completed == self.trials_requested

    @property
    def throughput(self):
        """Fresh (non-resumed) trials per wall-clock second."""
        if self.elapsed <= 0:
            return 0.0
        return self.fresh_trials / self.elapsed

    def interval(self, attribute="harmful", confidence=0.95):
        """Wilson CI of an outcome rate over the completed trials.

        Failed shards contribute no trials, so a partial campaign's
        intervals are computed over a smaller n and come out wider —
        the promised graceful degradation.
        """
        if attribute == "harmful":
            count = self.result.harmful
        else:
            count = getattr(self.result, attribute)
        return wilson_interval(count, self.result.trials, confidence)

    # --- reporting --------------------------------------------------------------

    def outcome_table(self, confidence=0.95):
        result = self.result
        rows = []
        for label, count in (
                ("benign (immune)", result.benign_immune),
                ("benign (empty)", result.benign_empty),
                ("benign (dead)", result.benign_dead),
                ("no effect", result.none),
                ("DRE (recovered)", result.dre),
                ("DUE (detected)", result.due),
                ("SDC (silent)", result.sdc),
                ("harmful (DUE+SDC)", result.harmful)):
            ci = wilson_interval(count, result.trials, confidence)
            rows.append([label, count, ci.point,
                         "[%.5f, %.5f]" % (ci.low, ci.high)])
        title = ("campaign outcome: {:,}/{:,} trials".format(
            self.trials_completed, self.trials_requested))
        if self.failed_shards:
            title += " (%d shard(s) failed; intervals widened)" % len(
                self.failed_shards)
        return render_table(
            ["Outcome", "Count", "Rate",
             "%.0f%% Wilson CI" % (100 * confidence)],
            rows, title=title)

    def shard_table(self):
        rows = []
        for record in self.records:
            rate = (record.trials / record.elapsed
                    if record.elapsed else 0.0)
            rows.append([
                record.index, record.trials, record.status,
                record.attempts,
                "-" if record.elapsed is None else "%.2fs" % record.elapsed,
                "{:,.0f}".format(rate) if rate else "-",
                "resumed" if record.resumed else "fresh",
            ])
        return render_table(
            ["Shard", "Trials", "Status", "Attempts", "Time", "Trials/s",
             "Origin"],
            rows, title="per-shard breakdown")


class CampaignRunner:
    """Shard, distribute, retry, checkpoint, and merge one campaign."""

    def __init__(self, spec, jobs=1, run_dir=None, resume=False,
                 max_retries=DEFAULT_MAX_RETRIES, progress=None,
                 scheduler=None):
        if jobs < 1:
            raise CampaignError("jobs must be >= 1, got %r" % (jobs,))
        if max_retries < 0:
            raise CampaignError("max_retries must be >= 0")
        if resume and run_dir is None:
            raise CampaignError("resume requires a run directory")
        self.spec = spec
        self.jobs = jobs
        self.run_directory = (RunDirectory(run_dir)
                              if run_dir is not None else None)
        self.resume = resume
        self.max_retries = max_retries
        self.progress = progress
        #: shared work-stealing scheduler; None means this run owns a
        #: private one (built only when ``jobs > 1``).  With a shared
        #: scheduler the shards always go through its persistent pool,
        #: whatever ``jobs`` says — pool sizing belongs to the owner.
        self.scheduler = scheduler
        self._drain_requested = threading.Event()
        self._active_job = None

    # --- graceful drain ---------------------------------------------------------

    def request_drain(self):
        """Stop after the shards already in flight; checkpoint them.

        Safe from any thread and from signal handlers.  The serial
        path checks the flag between shards; the scheduler path drops
        this run's pending shards.  ``run()`` then returns a partial
        summary (``summary.drained``) that a later ``resume=True``
        completes without redoing finished work.
        """
        self._drain_requested.set()
        job = self._active_job
        if job is not None:
            job.drop_pending()

    # --- orchestration ----------------------------------------------------------

    def run(self):
        start = time.perf_counter()
        records = {}
        if self.run_directory is not None:
            self.run_directory.prepare(self.spec, resume=self.resume)
            for index, journal in sorted(
                    self.run_directory.completed_shards().items()):
                records[index] = ShardRecord.from_journal(journal)
        pending = [index for index in range(self.spec.shard_count)
                   if index not in records]
        state = _RunState(self, records, start)
        entry = self._ledger_begin(len(records))
        try:
            with obs.span("campaign.run", category="campaign", attrs={
                    "shards": self.spec.shard_count,
                    "trials": self.spec.trials,
                    "jobs": self.jobs,
                    "resumed_shards": len(records)}) as run_span:
                state.notify("start")
                if pending:
                    if self.jobs == 1 and self.scheduler is None:
                        self._run_serial(pending, state)
                    else:
                        self._run_scheduled(pending, state)
                summary = state.summary()
                state.notify("done")
                run_span.set_attr("trials_completed",
                                  summary.trials_completed)
                run_span.set_attr("failed_shards",
                                  len(summary.failed_shards))
        except Exception:
            self._ledger_finish(entry, "failed", None, state)
            raise
        self._ledger_finish(
            entry,
            "drained" if summary.drained
            else ("ok" if summary.complete else "partial"),
            summary, state)
        return summary

    # --- run ledger -------------------------------------------------------------

    def _ledger_begin(self, resumed_shards):
        ledger = obs.current_ledger()
        if ledger is None:
            return None
        return ledger.begin(
            "campaign",
            key=self.spec.fingerprint(),
            params={"trials": self.spec.trials,
                    "seed": self.spec.seed,
                    "shards": self.spec.shard_count,
                    "shard_size": self.spec.shard_size,
                    "jobs": self.jobs,
                    "resumed_shards": resumed_shards},
            sampling=SAMPLING_DISCIPLINE)

    def _ledger_finish(self, entry, status, summary, state):
        if entry is None:
            return
        stats = {"steals": state.steals, "retries": state.retries}
        if summary is not None:
            stats.update({
                "counts": summary.result.to_dict(),
                "trials_completed": summary.trials_completed,
                "fresh_trials": summary.fresh_trials,
                "failed_shards": len(summary.failed_shards),
            })
        obs.current_ledger().finish(entry, status=status, stats=stats)

    def _run_serial(self, pending, state):
        for index in pending:
            if self._drain_requested.is_set():
                state.drained = True
                return
            attempts = 0
            while True:
                attempts += 1
                shard_start = time.perf_counter()
                try:
                    result = _execute_shard(self.spec, index)
                except Exception as error:
                    if not state.note_failure(index, attempts, error):
                        break  # retries exhausted; recorded as failed
                else:
                    state.note_success(
                        index, attempts, result.to_dict(),
                        time.perf_counter() - shard_start)
                    break

    def _run_scheduled(self, pending, state):
        scheduler = self.scheduler
        private = scheduler is None
        if private:
            scheduler = ShardScheduler(workers=self.jobs)
        try:
            # Capture the open campaign.run span so worker processes
            # record real, correctly parented shard spans; the runner
            # then skips its synthetic lane spans for this run.
            trace_ctx = obs_context.capture()
            state.worker_traced = trace_ctx is not None
            job = scheduler.submit(
                self.spec, indices=pending, max_retries=self.max_retries,
                listener=_RunnerListener(state), trace_ctx=trace_ctx)
            self._active_job = job
            if self._drain_requested.is_set():
                job.drop_pending()  # the drain raced the submit
            job.wait()
            state.steals += job.steals
            state.retries += job.retries
            if job.drained:
                state.drained = True
        finally:
            self._active_job = None
            if private:
                scheduler.close()

    def _may_retry(self, attempts_made):
        return attempts_made <= self.max_retries


class _RunnerListener(ShardListener):
    """Bridges scheduler shard outcomes into the runner's bookkeeping.

    The scheduler serializes one job's callbacks under its lock, so
    the state mutation (records, checkpoint appends, progress events)
    needs no extra synchronization here.
    """

    def __init__(self, state):
        self.state = state

    def shard_ok(self, index, attempts, result_dict, elapsed):
        self.state.note_success(index, attempts, result_dict, elapsed)

    def shard_retry(self, index, attempt, error):
        self.state.notify("shard-retry", shard=index, attempt=attempt,
                          error=error)

    def shard_failed(self, index, attempts, error):
        self.state.note_failure(index, attempts,
                                CampaignError(error), final=True)


class _RunState:
    """Mutable bookkeeping shared by the serial and scheduled paths."""

    def __init__(self, runner, records, start):
        self.runner = runner
        self.spec = runner.spec
        self.records = records  # {index: ShardRecord}
        self.start = start
        self.fresh_trials = 0
        self.drained = False
        self.worker_traced = False  # workers record their own spans
        self.steals = 0
        self.retries = 0

    # --- shard outcomes ---------------------------------------------------------

    def note_success(self, index, attempts, result_dict, elapsed):
        record = ShardRecord(
            index=index,
            seed=self.spec.shard_seed(index),
            trials=self.spec.shard_trials(index),
            status="ok",
            attempts=attempts,
            elapsed=elapsed,
            result=result_dict,
        )
        self.records[index] = record
        self.fresh_trials += record.trials
        self._checkpoint(record)
        # The shard executed elsewhere (a worker process, or inline
        # just now); file its span from the measured elapsed time, on
        # a per-shard lane so parallel shards render side by side —
        # unless the workers traced themselves (worker_traced), in
        # which case their real spans arrive via the scheduler's
        # ingest and a synthetic twin would duplicate them.
        if not self.worker_traced:
            obs.add_complete_span(
                "campaign.shard", elapsed or 0.0, category="campaign",
                attrs={"shard": index, "trials": record.trials,
                       "attempts": attempts, "seed": record.seed},
                tid=_SHARD_LANE_BASE + index)
        self.notify("shard-ok", shard=index, attempt=attempts,
                    shard_elapsed=elapsed)

    def note_failure(self, index, attempts, error, final=False):
        """Record a failed attempt; returns True when a retry is due."""
        if not final and self.runner._may_retry(attempts):
            self.retries += 1  # serial path; scheduled retries are
            self.notify("shard-retry", shard=index, attempt=attempts,
                        error=str(error))  # counted on the ShardJob
            return True
        record = ShardRecord(
            index=index,
            seed=self.spec.shard_seed(index),
            trials=self.spec.shard_trials(index),
            status="failed",
            attempts=attempts,
            error=str(error),
        )
        self.records[index] = record
        self._checkpoint(record)
        self.notify("shard-failed", shard=index, attempt=attempts,
                    error=str(error))
        return False

    def _checkpoint(self, record):
        if self.runner.run_directory is not None:
            self.runner.run_directory.append_shard(record.to_journal())

    # --- aggregation ------------------------------------------------------------

    def merged_result(self):
        """Merge completed shards in index order (deterministic output)."""
        total = CampaignResult()
        for index in sorted(self.records):
            record = self.records[index]
            if record.status == "ok":
                total = total.merge(
                    CampaignResult.from_dict(record.result))
        return total

    def summary(self):
        return CampaignSummary(
            spec=self.spec,
            result=self.merged_result(),
            records=[self.records[index]
                     for index in sorted(self.records)],
            elapsed=time.perf_counter() - self.start,
            jobs=self.runner.jobs,
            fresh_trials=self.fresh_trials,
            drained=self.drained,
        )

    # --- progress ---------------------------------------------------------------

    def notify(self, kind, shard=None, attempt=1, shard_elapsed=None,
               error=None):
        if self.runner.progress is None and not obs.enabled():
            return
        done = [r for r in self.records.values() if r.status == "ok"]
        event = ProgressEvent(
            kind=kind,
            shard=shard,
            attempt=attempt,
            shards_done=len(done),
            shards_total=self.spec.shard_count,
            trials_done=sum(r.trials for r in done),
            trials_total=self.spec.trials,
            fresh_trials=self.fresh_trials,
            elapsed=time.perf_counter() - self.start,
            shard_elapsed=shard_elapsed,
            error=error,
        )
        progress_to_metrics(event)
        if self.runner.progress is not None:
            self.runner.progress(event)
