"""Shard execution, decoupled from pool ownership.

This module is the only code a worker process runs: given a picklable
:class:`~repro.campaign.spec.CampaignSpec` and a shard index, execute
that shard's trials and return the serialized result.  Everything else
— which pool the work lands on, stealing, retries, checkpoints — lives
in the scheduler and runner layers, so the same entry point serves the
classic ``repro campaign`` CLI and the long-lived job service.
"""

from __future__ import annotations

import os
import time

from .. import obs
from ..errors import CampaignError
from ..obs import context as obs_context

#: Internal test hook: comma-separated shard indices that always fail.
FAIL_SHARDS_ENV = "REPRO_CAMPAIGN_FAIL_SHARDS"

#: Internal test hook: comma-separated shard indices whose worker
#: process dies outright (``os._exit``) the first time each is
#: attempted.  Requires :data:`KILL_MARKER_ENV` to point at a writable
#: directory; the marker file makes the death happen exactly once, so
#: the retry path is exercised deterministically.
KILL_SHARDS_ENV = "REPRO_CAMPAIGN_KILL_SHARDS"
KILL_MARKER_ENV = "REPRO_CAMPAIGN_KILL_MARKER_DIR"


def _indices_from_env(name):
    value = os.environ.get(name, "")
    return {int(item) for item in value.split(",") if item.strip()}


def _injected_failures():
    return _indices_from_env(FAIL_SHARDS_ENV)


def _maybe_die(index):
    if index not in _indices_from_env(KILL_SHARDS_ENV):
        return
    marker_dir = os.environ.get(KILL_MARKER_ENV)
    if not marker_dir:
        return
    marker = os.path.join(marker_dir, "killed-%d" % index)
    if os.path.exists(marker):
        return  # already died once; let the retry succeed
    with open(marker, "w") as handle:
        handle.write("shard %d\n" % index)
    os._exit(1)  # simulate an OOM-kill/segfault: no cleanup, no excuse


def execute_shard(spec, index):
    """Run one shard to a :class:`CampaignResult` in this process."""
    if index in _injected_failures():
        raise CampaignError(
            "injected failure for shard %d (%s)" % (index, FAIL_SHARDS_ENV))
    _maybe_die(index)
    evaluator = spec.build_injector(index)
    return evaluator.run(trials=spec.shard_trials(index))


def shard_worker(spec, index, trace_ctx=None):
    """Pool entry point: ``(index, result_dict, elapsed, spans)``.

    ``trace_ctx`` is the parent's serialized span context (see
    :func:`repro.obs.context.capture`); when present the shard runs
    under a real worker-side ``campaign.shard`` span and the exported
    span records travel back in the result tuple for the parent to
    stitch into its trace.  When absent (tracing off) ``spans`` is
    empty and no obs code runs in the worker.
    """
    start = time.perf_counter()
    with obs_context.recording(trace_ctx) as collector:
        with obs.span("campaign.shard", category="campaign",
                      attrs={"shard": index,
                             "trials": spec.shard_trials(index),
                             "seed": spec.shard_seed(index)}):
            result = execute_shard(spec, index)
    return (index, result.to_dict(), time.perf_counter() - start,
            collector.records)
