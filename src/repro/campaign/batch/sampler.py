"""Canonical vectorized draw discipline for campaign shards.

Both shard evaluators — the per-trial :class:`~repro.campaign.batch.
engine.TrialInjector` and the vectorized :class:`~repro.campaign.batch.
engine.BatchInjector` — consume the *same* sampled strike stream, drawn
here from one PCG64 generator seeded with the shard seed.  That is the
whole equivalence story: the engines cannot diverge on what was
sampled, only on how it is classified, and the classifiers are proven
equal separately.

Each fixed-size chunk is drawn in two phases, in a fixed order:

1. **Geometry** (full chunk size): strike points over the SPM surface
   and ACE-window draws.  Together with the surface these decide which
   trials are *live* — occupied, non-immune, inside the ACE window.
2. **Strike detail** (live trials only): multiplicity draws, the
   geometric-tail draws of the ``>3`` bucket, cluster window starts,
   cluster positions, and golden data words.

Phase 2 is the fault-free-window fast-forward: a trial that lands on
empty space, immune STT-RAM, or dead data never draws its cluster at
all.  The phase-2 array sizes are a pure function of (surface, seed,
chunk index), so trial k's strike is identical no matter which engine
reads the stream.  Chunking is a fixed constant for the same reason:
chunk boundaries are part of the stream's identity.

The cluster draw itself is :func:`repro.faults.mbu.draw_clusters`, the
one the Monte-Carlo ablations draw from too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...faults.classify import (
    PARITY_BITS,
    PROT_IMMUNE,
    PROT_PARITY,
    SECDED_BITS,
)
from ...faults.mbu import draw_clusters

#: trials per draw chunk; fixed because chunk boundaries are part of
#: the sampled stream's identity (see module docstring)
CHUNK_TRIALS = 65_536


@dataclass(frozen=True)
class StrikeBatch:
    """One chunk of sampled strikes, in structure-of-arrays form.

    ``target`` and ``ace_draws`` cover every trial of the chunk;
    ``live`` marks the trials that reached a codec.  The strike-detail
    arrays (``multiplicity``, ``positions``, ``syndrome``, ``data``)
    are compacted to live trials only, in trial order — walking the
    chunk, advance a cursor into them each time ``live`` is set.

    ``positions`` is zero-padded past each trial's multiplicity, which
    makes ``syndrome`` (the XOR of struck bit indices) a running XOR
    over its columns: bit 0 XORs in nothing.
    """

    trials: int
    target: np.ndarray  # int64 (trials,); == target_count -> empty
    ace_draws: np.ndarray  # float64 (trials,) in [0, 1)
    live: np.ndarray  # bool (trials,)
    multiplicity: np.ndarray  # int64 (live,), 1..max_multiplicity
    positions: np.ndarray  # int64 (live, max_multiplicity), 0-padded
    syndrome: np.ndarray  # int64 (live,), XOR of struck bit positions
    data: np.ndarray  # uint64 (live,) golden data words


class ShardSampler:
    """Draws the canonical strike stream of one shard."""

    def __init__(self, surface, mbu, seed):
        self.surface = surface
        self.mbu = mbu
        self.seed = seed
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def sample(self, trials):
        """Yield :class:`StrikeBatch` chunks covering ``trials``."""
        remaining = int(trials)
        while remaining > 0:
            chunk = min(remaining, CHUNK_TRIALS)
            yield self._sample_chunk(chunk)
            remaining -= chunk

    # --- one chunk --------------------------------------------------------------

    def _sample_chunk(self, n):
        gen = self._rng
        surface = self.surface

        # Phase 1 — geometry, full chunk size, fixed draw order.
        points = gen.integers(0, surface.total_spm_bytes, size=n,
                              dtype=np.int64)
        ace_draws = gen.random(n)
        target = surface.target_of(points)
        protection = surface.protection[target]
        live = ((target != surface.target_count)
                & (protection != PROT_IMMUNE)
                & (ace_draws < surface.ace[target]))
        count = int(np.count_nonzero(live))

        # Phase 2 — strike detail, live trials only, fixed draw order:
        # the clusters over each struck codeword, then the data words.
        codeword_bits = np.where(protection[live] == PROT_PARITY,
                                 PARITY_BITS, SECDED_BITS).astype(np.int64)
        multiplicity, positions = draw_clusters(gen, count, codeword_bits,
                                                self.mbu)
        data = gen.integers(0, 2 ** 64, size=count, dtype=np.uint64)
        # bit 0 and the zero padding contribute nothing to the syndrome
        syndrome = positions[:, 0].copy()
        for column in range(1, positions.shape[1]):
            syndrome ^= positions[:, column]

        return StrikeBatch(
            trials=n,
            target=target,
            ace_draws=ace_draws,
            live=live,
            multiplicity=multiplicity,
            positions=positions,
            syndrome=syndrome,
            data=data,
        )
