"""A persistent, work-stealing shard scheduler shared across jobs.

The classic runner forked a fresh ``ProcessPoolExecutor`` per campaign
and tore it down at the end — fine for one batch run, hopeless for a
service absorbing concurrent submissions.  :class:`ShardScheduler`
inverts the ownership: **one** long-lived worker-process pool serves
every job, and jobs are just deques of shard indices.

Scheduling discipline:

* each worker *slot* keeps an affinity to the job it last served and
  drains that job's deque front-to-back (shards run in index order
  when one job has the pool to itself, like the old runner),
* a slot whose job has no pending shards **steals** from the tail of
  the richest other deque (classic steal-from-tail), so a drained
  job's slots immediately back-fill whichever job has the most work
  left — no slot idles while any job has pending shards,
* shard results are merged by index downstream, and every shard's RNG
  seed is a pure function of (campaign seed, shard index), so neither
  stealing nor completion order can change any job's aggregate.

Fault tolerance matches the classic runner: a shard whose worker
raises burns one attempt and is retried with the same seed; a worker
*death* (``BrokenProcessPool``) charges every in-flight shard one
attempt, the pool is rebuilt once, and the survivors are re-dispatched.
Shards that exhaust their job's retry budget are reported failed.

Graceful drain: :meth:`request_drain` stops dispatch, drops every
pending (not yet started) shard back to its job as *unrun*, and lets
in-flight shards finish — and therefore checkpoint — before
:meth:`close` tears the pool down.  :func:`drain_on_signals` wires
that to SIGTERM/SIGINT so Ctrl-C can no longer abandon a shard
mid-write.
"""

from __future__ import annotations

import itertools
import signal
import threading
from collections import deque
from functools import partial
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

from .. import obs
from ..errors import CampaignError
from ..obs import context as obs_context
from .executor import shard_worker

DEFAULT_MAX_RETRIES = 2


def _noop():
    """Resolution callback for shards dropped during a drain."""


class SchedulerClosed(CampaignError):
    """Submit against a scheduler that is draining or closed."""


class ShardListener:
    """Per-job outcome callbacks, invoked under the scheduler lock.

    Callbacks for one job are therefore serialized (safe to checkpoint
    and mutate job state without extra locking), but they run on pool
    callback threads — keep them quick and never call back into the
    scheduler from inside one.
    """

    def shard_ok(self, index, attempts, result_dict, elapsed):
        pass

    def shard_retry(self, index, attempt, error):
        pass

    def shard_failed(self, index, attempts, error):
        pass


class ShardJob:
    """Handle for one submitted job: its deque, progress, and waiters."""

    def __init__(self, job_id, spec, indices, max_retries, listener,
                 trace_ctx=None):
        self.id = job_id
        self.spec = spec
        self.indices = list(indices)
        self.max_retries = max_retries
        self.listener = listener or ShardListener()
        self.trace_ctx = trace_ctx  # parent span context for workers
        self.pending = deque(self.indices)
        self.unresolved = set(self.indices)
        self.attempts = {index: 0 for index in self.indices}
        self.dropped = []  # shards never started because of a drain
        self.ok = 0
        self.failed = 0
        self.steals = 0  # this job's shards run by another job's slot
        self.retries = 0  # failed attempts requeued for this job
        self.drained = False
        self.done = threading.Event()
        self._scheduler = None

    def wait(self, timeout=None):
        """Block until every shard is resolved or dropped."""
        return self.done.wait(timeout)

    @property
    def finished(self):
        return self.done.is_set()

    def drop_pending(self):
        """Drain just this job: pending shards are dropped, in-flight
        shards finish (and checkpoint) normally."""
        if self._scheduler is not None:
            self._scheduler._drop_pending(self)


class _Slot:
    """One virtual worker seat; remembers the job it last served."""

    __slots__ = ("index", "job", "busy")

    def __init__(self, index):
        self.index = index
        self.job = None
        self.busy = False


class ShardScheduler:
    """Long-lived work-stealing dispatcher over one persistent pool."""

    def __init__(self, workers):
        if workers < 1:
            raise CampaignError("workers must be >= 1, got %r" % (workers,))
        self.workers = workers
        self._slots = [_Slot(i) for i in range(workers)]
        self._jobs = []  # submission order; drives the stealing scan
        self._lock = threading.RLock()
        self._pool = None
        self._futures = {}  # future -> (slot, job, index)
        self._draining = False
        self._closed = False
        self._paused = False
        self._ids = itertools.count(1)
        self.stats = {
            "dispatched": 0, "steals": 0, "retries": 0, "failures": 0,
            "pools_created": 0, "pool_rebuilds": 0, "jobs_submitted": 0,
        }

    # --- submission ------------------------------------------------------------

    def submit(self, spec, indices=None, max_retries=DEFAULT_MAX_RETRIES,
               listener=None, trace_ctx=None):
        """Queue a job's shards; returns its :class:`ShardJob` handle.

        ``indices`` defaults to every shard of ``spec``; a resumed
        campaign passes only the shards its checkpoint is missing.
        ``trace_ctx`` (from :func:`repro.obs.context.capture`) rides
        in every task payload so worker-side spans parent under the
        submitting run's span.
        """
        if indices is None:
            indices = range(spec.shard_count)
        with self._lock:
            if self._closed:
                raise SchedulerClosed("scheduler is closed")
            if self._draining:
                raise SchedulerClosed("scheduler is draining")
            job = ShardJob(next(self._ids), spec, indices, max_retries,
                           listener, trace_ctx=trace_ctx)
            job._scheduler = self
            self.stats["jobs_submitted"] += 1
            if not job.unresolved:  # zero shards: trivially complete
                job.done.set()
                return job
            self._jobs.append(job)
            self._observe_queues()
            self._dispatch()
        return job

    # --- dispatch --------------------------------------------------------------

    def _dispatch(self):
        if self._paused or self._draining or self._closed:
            return
        for slot in self._slots:
            if slot.busy:
                continue
            picked = self._next_task_for(slot)
            if picked is None:
                break  # nothing pending anywhere
            job, index, stolen = picked
            if stolen:
                self.stats["steals"] += 1
                job.steals += 1
                obs.inc("scheduler_steals_total",
                        help="shards stolen from another job's deque")
            self._launch(slot, job, index)
        self._observe_queues()

    def _next_task_for(self, slot):
        """(job, shard, stolen?) for a free slot, or None when idle.

        Affinity first: the slot drains its own job's deque in index
        order.  Otherwise it adopts or steals from the job with the
        most pending shards — adoption (no previous job, or the
        previous job is gone) takes the head, a genuine steal takes
        the tail.
        """
        own = slot.job
        if own is not None and own.pending:
            return own, own.pending.popleft(), False
        victim = max((job for job in self._jobs if job.pending),
                     key=lambda job: len(job.pending), default=None)
        if victim is None:
            return None
        is_steal = own is not None and own in self._jobs and victim is not own
        if is_steal:
            return victim, victim.pending.pop(), True
        return victim, victim.pending.popleft(), False

    def _launch(self, slot, job, index):
        slot.busy = True
        slot.job = job
        future = self._pool_submit(job, index)
        self._futures[future] = (slot, job, index)
        self.stats["dispatched"] += 1
        future.add_done_callback(self._on_future_done)

    def _pool_submit(self, job, index):
        try:
            return self._ensure_pool().submit(
                shard_worker, job.spec, index, job.trace_ctx)
        except BrokenProcessPool:
            # The pool broke between a callback and this dispatch;
            # rebuild once — a fresh pool cannot be broken yet.
            self._discard_pool()
            return self._ensure_pool().submit(
                shard_worker, job.spec, index, job.trace_ctx)

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self.stats["pools_created"] += 1
        return self._pool

    def _discard_pool(self):
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
            self.stats["pool_rebuilds"] += 1
            obs.inc("scheduler_pool_rebuilds_total",
                    help="worker pools rebuilt after a worker death")

    # --- completion ------------------------------------------------------------

    def _on_future_done(self, future):
        with self._lock:
            entry = self._futures.pop(future, None)
            if entry is None:
                return
            slot, job, index = entry
            slot.busy = False
            try:
                _, result_dict, elapsed, spans = future.result()
            except BrokenProcessPool:
                # A worker died.  Every in-flight future resolves with
                # this same exception and each callback retries its own
                # shard, mirroring the classic runner's accounting.
                self._discard_pool()
                self._note_attempt_failed(
                    job, index, CampaignError("worker process died"))
            except Exception as error:
                self._note_attempt_failed(job, index, error)
            else:
                job.attempts[index] += 1
                job.ok += 1
                # Worker-recorded spans stitch into this process's
                # trace (the listener API stays untouched).
                obs_context.ingest(spans)
                # partial binds the attempt count NOW; a lambda would
                # re-read job.attempts at call time and report whatever
                # a later retry of another attempt left there.
                self._resolve(job, index, partial(
                    job.listener.shard_ok, index, job.attempts[index],
                    result_dict, elapsed))
            self._dispatch()

    def _note_attempt_failed(self, job, index, error):
        job.attempts[index] += 1
        if job.attempts[index] <= job.max_retries:
            if self._draining:
                # No new dispatch during a drain: hand the shard back
                # as unrun so a checkpointed resume re-attempts it.
                job.drained = True
                job.dropped.append(index)
                self._resolve(job, index, _noop)
                return
            self.stats["retries"] += 1
            job.retries += 1
            obs.inc("scheduler_shard_retries_total",
                    help="shard attempts retried after a failure")
            job.listener.shard_retry(index, job.attempts[index],
                                     str(error))
            # Requeue at the front so the retry lands before new work.
            job.pending.appendleft(index)
            return
        job.failed += 1
        self.stats["failures"] += 1
        self._resolve(job, index, partial(
            job.listener.shard_failed, index, job.attempts[index],
            str(error)))

    def _resolve(self, job, index, notify):
        job.unresolved.discard(index)
        notify()
        if not job.unresolved:
            self._finish_job(job)

    def _finish_job(self, job):
        if job in self._jobs:
            self._jobs.remove(job)
        for slot in self._slots:
            if slot.job is job:
                slot.job = None
        if obs.enabled():
            gauge = obs.registry().get("scheduler_job_queue_depth")
            if gauge is not None:
                gauge.remove(job="job-%d" % job.id)
        job.done.set()

    # --- drain / lifecycle ------------------------------------------------------

    def request_drain(self):
        """Stop accepting and dispatching; drop all pending shards.

        In-flight shards run to completion (their listeners fire, so
        they checkpoint); everything still queued is returned to its
        job as dropped/unrun.  Idempotent.
        """
        with self._lock:
            self._draining = True
            for job in list(self._jobs):
                self._drop_pending(job)
            self._observe_queues()

    def _drop_pending(self, job):
        with self._lock:
            dropped = list(job.pending)
            job.pending.clear()
            if dropped:
                job.drained = True
                job.dropped.extend(dropped)
                for index in dropped:
                    job.unresolved.discard(index)
            if not job.unresolved:
                self._finish_job(job)

    @property
    def draining(self):
        return self._draining

    def active_jobs(self):
        with self._lock:
            return list(self._jobs)

    def drain(self, timeout=None):
        """Request a drain and block until in-flight shards resolve."""
        self.request_drain()
        for job in self.active_jobs():
            job.wait(timeout)

    def close(self, wait=True):
        """Shut the pool down.  A close without drain waits for every
        queued shard (``wait=True``) like the classic runner exit."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if not self._draining:
            # Let queued work finish before the pool goes away.
            for job in self.active_jobs():
                job.wait()
        else:
            self.drain()
        self.close()
        return False

    # --- test / introspection hooks ---------------------------------------------

    def pause(self):
        """Hold dispatch (queued shards stay queued); for tests/drain."""
        with self._lock:
            self._paused = True

    def resume(self):
        with self._lock:
            self._paused = False
            self._dispatch()

    @property
    def queue_depth(self):
        with self._lock:
            return sum(len(job.pending) for job in self._jobs)

    @property
    def inflight(self):
        with self._lock:
            return len(self._futures)

    def _observe_queues(self):
        if not obs.enabled():
            return
        obs.set_gauge("scheduler_queue_depth",
                      sum(len(job.pending) for job in self._jobs),
                      help="shards queued across all jobs")
        obs.set_gauge("scheduler_inflight", len(self._futures),
                      help="shards currently on the worker pool")
        obs.set_gauge("scheduler_jobs_active", len(self._jobs),
                      help="jobs with unresolved shards")
        for job in self._jobs:
            obs.set_gauge("scheduler_job_queue_depth", len(job.pending),
                          help="shards queued per active job",
                          job="job-%d" % job.id)


@contextmanager
def drain_on_signals(target, signals=(signal.SIGINT, signal.SIGTERM),
                     on_drain=None):
    """Scope in which SIGINT/SIGTERM request a graceful drain.

    ``target`` is anything with a ``request_drain()`` method (a
    :class:`ShardScheduler` or a
    :class:`~repro.campaign.runner.CampaignRunner`).  The first signal
    requests the drain — in-flight shards finish and checkpoint — and
    calls ``on_drain(signum)`` if given; a second signal restores the
    previous handlers and re-raises, so a wedged drain still dies.
    Main-thread only (a CPython ``signal`` restriction); outside the
    main thread this is a no-op passthrough.
    """
    if threading.current_thread() is not threading.main_thread():
        yield target
        return
    previous = {}
    fired = []

    def _handler(signum, frame):
        if fired:
            for sig, old in previous.items():
                signal.signal(sig, old)
            signal.raise_signal(signum)
            return
        fired.append(signum)
        target.request_drain()
        if on_drain is not None:
            on_drain(signum)

    for sig in signals:
        previous[sig] = signal.signal(sig, _handler)
    try:
        yield target
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
