"""Structure-of-arrays strike surface.

Both shard evaluators read a campaign's strike targets as flat arrays
they can ``searchsorted`` against.  :class:`StrikeSurface` is that
form: one sorted array of cumulative byte boundaries, one
protection-code array, one ACE-utilization array, with a sentinel slot
for unoccupied SPM space.  Per-region accounting follows ALADDIN's ``Scratchpad``
partition bookkeeping: each partition carries its own occupancy and
liveness statistics rather than a global table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...faults.classify import PROT_IMMUNE, protection_code

#: protection code of the sentinel slot for the unoccupied remainder of
#: the SPM surface (after the codes of :mod:`repro.faults.classify`)
PROT_EMPTY = 4


@dataclass(frozen=True)
class StrikeSurface:
    """Flat-array form of a campaign's strike targets.

    ``ends[i]`` is the exclusive cumulative byte boundary of target
    ``i``; a uniform strike point ``p`` lands in target
    ``searchsorted(ends, p, side="right")``, or in empty space when that
    index equals ``len(names)``.  ``protection`` and ``ace`` carry one
    extra sentinel slot for empty space (``PROT_EMPTY``, utilization 0),
    so target indices can be used unguarded as fancy indices.
    """

    names: tuple
    ends: np.ndarray  # int64, len == len(names)
    protection: np.ndarray  # uint8, len == len(names) + 1
    ace: np.ndarray  # float64, len == len(names) + 1
    total_spm_bytes: int

    @classmethod
    def from_targets(cls, targets, total_spm_bytes):
        """Build the SoA surface from :class:`~repro.faults.Target`s."""
        names = tuple(target.name for target in targets)
        sizes = np.fromiter((target.size for target in targets),
                            dtype=np.int64, count=len(names))
        protection = np.zeros(len(names) + 1, dtype=np.uint8)
        protection[-1] = PROT_EMPTY
        for i, target in enumerate(targets):
            protection[i] = protection_code(target.protection)
        ace = np.zeros(len(names) + 1, dtype=np.float64)
        ace[:-1] = [target.ace_fraction for target in targets]
        return cls(
            names=names,
            ends=np.cumsum(sizes),
            protection=protection,
            ace=ace,
            total_spm_bytes=int(total_spm_bytes),
        )

    @classmethod
    def from_spec(cls, spec):
        return cls.from_targets(spec.targets, spec.total_spm_bytes)

    # --- geometry ---------------------------------------------------------------

    @property
    def target_count(self):
        return len(self.names)

    def target_of(self, points):
        """Vectorized point-to-target lookup (sentinel index = empty)."""
        return np.searchsorted(self.ends, points, side="right")

    # --- fast-forward accounting ------------------------------------------------

    def fault_free_fraction(self):
        """P(a uniform strike needs no codec work at all).

        Strikes on empty space, on immune (STT-RAM) cells, or outside a
        target's ACE window are classified without evaluating a codec —
        the fast-forward path.  Its complement is the fraction of trials
        that reach codec classification in either engine.
        """
        if self.total_spm_bytes <= 0:
            return 1.0
        sizes = np.diff(self.ends, prepend=0)
        live = self.protection[:-1] != PROT_IMMUNE
        codec_bytes = float(np.sum(sizes[live] * self.ace[:-1][live]))
        return 1.0 - codec_bytes / self.total_spm_bytes
