"""Immutable description of one injection campaign.

A :class:`CampaignSpec` is everything a worker process needs to run any
shard of a campaign: the strike surface (targets), the MBU model, the
trial budget, and the sharding/seeding parameters.  It is picklable,
JSON-serializable (for the run-directory manifest), and hashable via
:meth:`fingerprint` so a resumed run can prove it matches the checkpoint
it is resuming.

:meth:`from_structure` builds the surface from the region-surface
reading of Fig. 5 (:func:`repro.faults.region_surface_vulnerability`),
so a campaign's measured harmful rate is directly comparable to the
figure's analytic value.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..config import DEFAULT_CAMPAIGN_SEED, DEFAULT_SHARD_SIZE, Protection
from ..errors import CampaignError
from ..faults.injector import Target
from ..faults.mbu import MbuDistribution


@dataclass(frozen=True)
class CampaignSpec:
    """A complete, picklable campaign description."""

    targets: tuple  # of repro.faults.injector.Target
    total_spm_bytes: int
    trials: int
    seed: int = DEFAULT_CAMPAIGN_SEED
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
    def from_structure(cls, profile, structure, trials,
                       seed=DEFAULT_CAMPAIGN_SEED,
                       shard_size=DEFAULT_SHARD_SIZE):
        """Region-surface reading of Fig. 5 for one (workload, structure).

        Each D-SPM region becomes one target whose ``ace_fraction`` is
        the region's ACE-weighted utilization, so the campaign's expected
        harmful rate equals the analytic
        :func:`~repro.eval.structures.surface_vulnerability` modulo the
        real-codec deviations the analytic model rounds off.
        """
        from ..eval.structures import surface_vulnerability
        from ..pipeline import get_context

        evaluation = get_context().evaluation(profile, structure)
        plan = evaluation.plan
        mbu, breakdown = surface_vulnerability(plan, profile, structure,
                                               evaluation.config)
        targets = tuple(
            Target(region.name, region.protection,
                   plan.slots[region.name].size, region.ace_fraction)
            for region in breakdown.regions)
        return cls(
            targets=targets,
            total_spm_bytes=sum(target.size for target in targets),
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

