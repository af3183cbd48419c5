"""Immutable description of one injection campaign.

A :class:`CampaignSpec` is everything a worker process needs to run any
shard of a campaign: the strike surface (targets), the MBU model, the
trial budget, and the sharding/seeding parameters.  It is picklable,
JSON-serializable (for the run-directory manifest), and hashable via
:meth:`fingerprint` so a resumed run can prove it matches the checkpoint
it is resuming.

Two surface readings are supported, matching the two analytic models in
:mod:`repro.faults.avf`:

* :meth:`from_entries` — the block-level ``avf_entries`` reading used by
  ``repro inject`` (counterpart of ``vulnerability_of_placement``),
* :meth:`from_structure` — the region-surface reading of Fig. 5
  (counterpart of ``region_surface_vulnerability``), whose measured
  harmful rate is directly comparable to the figure's analytic value.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..config import Protection
from ..errors import CampaignError
from ..faults.injector import Target
from ..faults.mbu import MbuDistribution

DEFAULT_SHARD_SIZE = 25_000


@dataclass(frozen=True)
class CampaignSpec:
    """A complete, picklable campaign description."""

    targets: tuple  # of repro.faults.injector.Target
    total_spm_bytes: int
    trials: int
    seed: int = 0xF7F7
    shard_size: int = DEFAULT_SHARD_SIZE
    mbu_probabilities: tuple = None  # None -> the 40 nm paper distribution
    mbu_max_multiplicity: int = 6

    def __post_init__(self):
        if self.trials <= 0:
            raise CampaignError("trials must be positive, got %r"
                                % (self.trials,))
        if self.shard_size <= 0:
            raise CampaignError("shard_size must be positive, got %r"
                                % (self.shard_size,))
        if self.total_spm_bytes <= 0:
            raise CampaignError("total_spm_bytes must be positive")
        occupied = sum(target.size for target in self.targets)
        if occupied > self.total_spm_bytes:
            raise CampaignError(
                "targets (%d B) exceed the SPM surface (%d B)"
                % (occupied, self.total_spm_bytes))

    # --- construction -----------------------------------------------------------

    @classmethod
    def from_entries(cls, entries, total_spm_bytes, total_cycles,
                     trials, seed=0xF7F7, shard_size=DEFAULT_SHARD_SIZE,
                     mbu=None):
        """Block-level surface: ``(block_stats, protection)`` pairs, the
        same input :class:`repro.faults.InjectionCampaign` takes."""
        targets = []
        for stats, protection in entries:
            ace = (min(1.0, stats.ace_cycles / total_cycles)
                   if total_cycles > 0 else 0.0)
            targets.append(Target(stats.name, protection, stats.size, ace))
        return cls._build(targets, total_spm_bytes, trials, seed,
                          shard_size, mbu)

    @classmethod
    def from_structure(cls, profile, structure, trials, seed=0xF7F7,
                       shard_size=DEFAULT_SHARD_SIZE, mbu=None,
                       uniform=None, spm_name="D-SPM"):
        """Region-surface reading of Fig. 5 for one (workload, structure).

        Each D-SPM region becomes one target whose ``ace_fraction`` is
        the region's ACE-weighted utilization, so the campaign's expected
        harmful rate equals the analytic
        :func:`~repro.faults.avf.region_surface_vulnerability` modulo the
        real-codec deviations the analytic model rounds off.
        """
        from ..faults.avf import region_surface_vulnerability
        from ..pipeline import get_context

        config, plan, _ = get_context().plan(profile, structure)
        if mbu is None:
            mbu = MbuDistribution.for_node(config.technology_node_nm)
        if uniform is None:
            uniform = structure != "ftspm"
        breakdown = region_surface_vulnerability(
            plan, profile, mbu=mbu, uniform=uniform, spm_name=spm_name)
        targets = []
        total = 0
        for block in breakdown.blocks:
            slot = plan.slots[block.name]
            targets.append(Target(block.name, slot.protection,
                                  slot.size, block.ace_fraction))
            total += slot.size
        return cls._build(targets, total, trials, seed, shard_size, mbu)

    @classmethod
    def _build(cls, targets, total_spm_bytes, trials, seed, shard_size,
               mbu):
        mbu = mbu or MbuDistribution.for_node(40)
        return cls(
            targets=tuple(targets),
            total_spm_bytes=total_spm_bytes,
            trials=trials,
            seed=seed,
            shard_size=shard_size,
            mbu_probabilities=(mbu.p1, mbu.p2, mbu.p3, mbu.p_more),
            mbu_max_multiplicity=mbu.max_multiplicity,
        )

    # --- sharding ---------------------------------------------------------------

    @property
    def shard_count(self):
        return math.ceil(self.trials / self.shard_size)

    def shard_trials(self, index):
        """Trial count of one shard (the last shard takes the remainder)."""
        self._check_index(index)
        if index < self.shard_count - 1:
            return self.shard_size
        return self.trials - self.shard_size * (self.shard_count - 1)

    def shard_seed(self, index):
        from .seeding import spawn_seed
        self._check_index(index)
        return spawn_seed(self.seed, index)

    def _check_index(self, index):
        if not 0 <= index < self.shard_count:
            raise CampaignError(
                "shard index %r out of range (campaign has %d shards)"
                % (index, self.shard_count))

    def shard_plan(self):
        """Per-shard sizing rows: index, trial count, derived seed.

        What ``repro campaign --dry-run`` prints — the complete
        execution plan, computable without running a single trial.
        """
        return [
            {"shard": index,
             "trials": self.shard_trials(index),
             "seed": self.shard_seed(index)}
            for index in range(self.shard_count)
        ]

    def build_mbu(self):
        if self.mbu_probabilities is None:
            return MbuDistribution.for_node(40)
        return MbuDistribution(self.mbu_probabilities,
                               self.mbu_max_multiplicity)

    def build_injector(self, shard_index):
        """The evaluator for one shard, seeded by the spawning discipline:
        the vectorized :class:`~repro.campaign.batch.engine.BatchInjector`
        (its per-trial oracle lives in the equivalence harness)."""
        from .batch.engine import BatchInjector

        return BatchInjector(self, shard_index)

    # --- identity (manifest / resume validation) --------------------------------

    def to_manifest(self):
        """JSON-safe form persisted in a run directory's manifest."""
        return {
            "targets": [[t.name, t.protection.value, t.size,
                         t.ace_fraction] for t in self.targets],
            "total_spm_bytes": self.total_spm_bytes,
            "trials": self.trials,
            "seed": self.seed,
            "shard_size": self.shard_size,
            "mbu_probabilities": list(self.mbu_probabilities or ()) or None,
            "mbu_max_multiplicity": self.mbu_max_multiplicity,
        }

    @classmethod
    def from_manifest(cls, payload):
        probabilities = payload.get("mbu_probabilities")
        return cls(
            targets=tuple(
                Target(name, Protection(protection), size, ace)
                for name, protection, size, ace in payload["targets"]),
            total_spm_bytes=payload["total_spm_bytes"],
            trials=payload["trials"],
            seed=payload["seed"],
            shard_size=payload["shard_size"],
            mbu_probabilities=(tuple(probabilities)
                               if probabilities else None),
            mbu_max_multiplicity=payload["mbu_max_multiplicity"],
        )

    def fingerprint(self):
        """Stable hash identifying the campaign a checkpoint belongs to."""
        canonical = json.dumps(self.to_manifest(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def analytic_vulnerability(profile, structure, mbu=None, uniform=None,
                           spm_name="D-SPM"):
    """The Fig. 5 analytic value a measured campaign is validated against."""
    from ..faults.avf import region_surface_vulnerability
    from ..pipeline import get_context

    config, plan, _ = get_context().plan(profile, structure)
    if mbu is None:
        mbu = MbuDistribution.for_node(config.technology_node_nm)
    if uniform is None:
        uniform = structure != "ftspm"
    return region_surface_vulnerability(
        plan, profile, mbu=mbu, uniform=uniform,
        spm_name=spm_name).vulnerability
