"""Campaign orchestration: parallel, resumable Monte-Carlo injection.

This package runs Monte-Carlo strike injection at statistical-quality
trial counts:

* **sharding** — the trial budget splits into fixed-size shards, each
  seeded deterministically from (campaign seed, shard index), so the
  merged aggregate is byte-identical for any worker count,
* **parallelism** — shards run on a ``multiprocessing`` pool
  (``jobs > 1``) or in-process (``jobs=1``),
* **checkpointing** — finished shards append to a JSONL journal in a
  run directory; a killed campaign resumes without redoing work,
* **fault tolerance** — a dying worker costs one retry, not the run;
  shards that exhaust retries are reported failed and the aggregate's
  Wilson confidence intervals widen over the smaller completed n,
* **statistics** — vulnerability/SDC/DUE rates carry Wilson score
  intervals, closing the loop against the analytic Fig. 5 values,
* **vectorized evaluation** — the :mod:`~repro.campaign.batch`
  subsystem classifies a shard's sampled strikes in whole-array NumPy
  passes, reproducing the per-trial evaluator's counts exactly at an
  order of magnitude more trials per second.

See ``docs/campaigns.md`` for the architecture and the checkpoint
format, and ``examples/campaign_parallel.py`` for a worked example.
"""

from .checkpoint import RunDirectory
from .executor import execute_shard, shard_worker
from .progress import ProgressEvent, ProgressPrinter
from .runner import (
    DEFAULT_MAX_RETRIES,
    CampaignRunner,
    CampaignSummary,
    ShardRecord,
)
from .scheduler import (
    SchedulerClosed,
    ShardJob,
    ShardListener,
    ShardScheduler,
    drain_on_signals,
)
from .seeding import spawn_seed, spawn_seeds
from .spec import DEFAULT_SHARD_SIZE, CampaignSpec
from .stats import ConfidenceInterval, wilson_interval, z_value

__all__ = [
    "CampaignRunner",
    "CampaignSpec",
    "CampaignSummary",
    "ConfidenceInterval",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_SHARD_SIZE",
    "ProgressEvent",
    "ProgressPrinter",
    "RunDirectory",
    "SchedulerClosed",
    "ShardJob",
    "ShardListener",
    "ShardRecord",
    "ShardScheduler",
    "drain_on_signals",
    "execute_shard",
    "shard_worker",
    "spawn_seed",
    "spawn_seeds",
    "wilson_interval",
    "z_value",
]
