"""The two shard evaluators sharing one sampled strike stream.

:class:`TrialInjector` is the readable reference: it walks the sampled
trials one by one and pushes every live strike through the *real*
codecs in :mod:`repro.ecc` — encode a golden word, apply the flips,
decode, classify.  :class:`BatchInjector` is the fast path: the same
stream is classified in whole-array passes using the closed-form rules
of :mod:`repro.faults.classify`, with fault-free trials
(empty / immune / dead-window strikes) fast-forwarded by boolean masks
instead of being visited at all.

Both evaluators expose ``run(trials) -> CampaignResult``.  Campaign
shards run :class:`BatchInjector`; :class:`TrialInjector` is its
oracle.  Same spec, same shard, same seed => identical counts, by
construction (shared sampler) and by proof (classifier equivalence,
locked by tests and the golden campaign corpus).
"""

from __future__ import annotations

import numpy as np

from ... import obs
from ...ecc import ParityCodec, SecDedCodec
from ...ecc.codec import ErrorClass
from ...faults.classify import (
    CLASS_ORDER,
    PROT_IMMUNE,
    PROT_NONE,
    PROT_PARITY,
    classify_errors,
)
from ...faults.injector import CampaignResult
from .sampler import ShardSampler
from .surface import StrikeSurface


class _ShardEvaluator:
    """Common scaffolding: surface, sampler, obs instrumentation."""

    name = None  # "trial" | "batch"

    def __init__(self, spec, shard_index):
        self.spec = spec
        self.shard_index = shard_index
        self.seed = spec.shard_seed(shard_index)
        self.surface = StrikeSurface.from_spec(spec)

    def _sampler(self):
        return ShardSampler(self.surface, self.spec.build_mbu(),
                            self.seed)

    def run(self, trials=None):
        """Evaluate ``trials`` strikes; returns a CampaignResult."""
        if trials is None:
            trials = self.spec.shard_trials(self.shard_index)
        with obs.span("campaign.shard.evaluate", category="campaign",
                      attrs={"shard": self.shard_index,
                             "injector": self.name,
                             "trials": trials}):
            result = self._run(int(trials))
        obs.inc("campaign_injector_trials_total", result.trials,
                help="trials evaluated, by injector",
                injector=self.name)
        fast_forwarded = (result.benign_empty + result.benign_immune
                          + result.benign_dead)
        obs.inc("campaign_fastforward_trials_total", fast_forwarded,
                help="trials classified without codec work",
                injector=self.name)
        return result


class TrialInjector(_ShardEvaluator):
    """Per-trial reference evaluator over the canonical strike stream."""

    name = "trial"

    def _run(self, trials):
        surface = self.surface
        names = surface.names
        target_count = surface.target_count
        protection = surface.protection.tolist()
        ace = surface.ace.tolist()
        parity = ParityCodec(32)
        secded = SecDedCodec(64)
        parity_mask = (1 << parity.data_bits) - 1
        result = CampaignResult()
        for batch in self._sampler().sample(trials):
            # Python-list views: scalar indexing into ndarrays inside a
            # hot loop costs more than the conversion does.
            target = batch.target.tolist()
            ace_draws = batch.ace_draws.tolist()
            multiplicity = batch.multiplicity.tolist()
            positions = batch.positions.tolist()
            data_words = batch.data.tolist()
            cursor = 0  # next row of the compacted strike-detail arrays
            for k in range(batch.trials):
                result.trials += 1
                index = target[k]
                if index == target_count:
                    result.benign_empty += 1
                    continue
                code = protection[index]
                if code == PROT_IMMUNE:
                    result.benign_immune += 1
                    continue
                if ace_draws[k] >= ace[index]:
                    result.benign_dead += 1
                    continue
                if code == PROT_NONE:
                    outcome = ErrorClass.SDC
                else:
                    if code == PROT_PARITY:
                        codec = parity
                        data = data_words[cursor] & parity_mask
                    else:
                        codec = secded
                        data = data_words[cursor]
                    codeword = codec.encode(data)
                    flips = positions[cursor][:multiplicity[cursor]]
                    for position in flips:
                        codeword ^= 1 << position
                    outcome = codec.classify(data, codeword)
                cursor += 1
                counts = result.by_block.setdefault(
                    names[index], {klass: 0 for klass in ErrorClass})
                counts[outcome] += 1
                if outcome is ErrorClass.SDC:
                    result.sdc += 1
                elif outcome is ErrorClass.DUE:
                    result.due += 1
                elif outcome is ErrorClass.DRE:
                    result.dre += 1
                else:
                    result.none += 1
        return result


class BatchInjector(_ShardEvaluator):
    """Vectorized evaluator: classifies the stream in whole-array passes."""

    name = "batch"

    def _run(self, trials):
        surface = self.surface
        target_count = surface.target_count
        class_count = len(CLASS_ORDER)
        per_target = np.zeros((target_count, class_count),
                              dtype=np.int64)
        total = benign_empty = benign_immune = benign_dead = 0
        for batch in self._sampler().sample(trials):
            total += batch.trials
            live = batch.live
            protection = surface.protection[batch.target]
            immune = protection == PROT_IMMUNE
            occupied = batch.target != target_count
            benign_empty += int(np.count_nonzero(~occupied))
            benign_immune += int(np.count_nonzero(immune))
            benign_dead += int(np.count_nonzero(occupied & ~immune
                                                & ~live))
            if not np.any(live):
                continue  # fault-free chunk: fast-forward entirely
            classes = classify_errors(protection[live],
                                      batch.multiplicity,
                                      batch.syndrome)
            flat = batch.target[live] * class_count + classes
            per_target += np.bincount(
                flat, minlength=target_count * class_count,
            ).reshape(target_count, class_count)

        class_totals = per_target.sum(axis=0)
        result = CampaignResult(
            trials=total,
            benign_immune=benign_immune,
            benign_empty=benign_empty,
            benign_dead=benign_dead,
            none=int(class_totals[0]),
            dre=int(class_totals[1]),
            due=int(class_totals[2]),
            sdc=int(class_totals[3]),
        )
        for index in np.nonzero(per_target.sum(axis=1))[0]:
            result.by_block[surface.names[index]] = {
                klass: int(per_target[index, code])
                for code, klass in enumerate(CLASS_ORDER)}
        return result
