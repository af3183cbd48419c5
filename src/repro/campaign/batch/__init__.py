"""Vectorized batch fault-injection engine.

Monte-Carlo campaigns spend almost all of their time in the per-trial
Python loop: pick a strike point, test the ACE window, encode a word
with the struck region's codec, flip the sampled cluster, decode,
classify.  This package amortizes all of it.  The golden execution
(the workload profile the pipeline computes once per (workload,
mapping) pair) is reduced to a compact structure-of-arrays strike
surface — region boundaries, protection codes, and ACE-window
utilizations, per-region accounting in the spirit of ALADDIN's
``Scratchpad`` partitions — and every shard's trials are then sampled
and classified in whole-array NumPy passes, with the closed-form codec
outcomes of :mod:`repro.faults.classify`:

* :mod:`~repro.campaign.batch.surface` — the SoA strike surface and the
  golden-execution timeline (residency + ACE windows per block),
* :mod:`~repro.campaign.batch.sampler` — the canonical per-shard draw
  discipline: strike points, ACE draws, MBU multiplicities, and
  clustered bit positions, all drawn as arrays from one seeded PCG64
  stream (the cluster draw is :func:`repro.faults.mbu.draw_clusters`),
* :mod:`~repro.campaign.batch.engine` — the two shard evaluators:
  :class:`BatchInjector` (vectorized), which every campaign runs, and
  :class:`TrialInjector` (per-trial, through the *real* codecs), its
  oracle; both consume the same sampled strike stream,
* :mod:`~repro.campaign.batch.equivalence` — digests, cross-checks, and
  the golden campaign corpus that lock the two evaluators together.

Equivalence contract: for any spec, shard, and seed, the batch and
trial evaluators produce *identical* :class:`~repro.faults.CampaignResult`
counts — the batch classifier is closed-form codec behaviour, verified
class-by-class against the real codecs (see ``tests/
test_batch_injector.py``).  The trial evaluator runs only inside the
equivalence harness (``repro golden`` and the tests), exactly like the
reference step loop of :mod:`repro.sim.diffcheck`.
"""
