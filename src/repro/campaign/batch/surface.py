"""Structure-of-arrays strike surface and golden-execution timeline.

The per-trial injector walks a Python list of targets for every strike;
the vectorized engine wants the same geometry as flat arrays it can
``searchsorted`` against.  :class:`StrikeSurface` is that form: one
sorted array of cumulative byte boundaries, one protection-code array,
one ACE-utilization array, with a sentinel slot for unoccupied SPM
space.  Per-region accounting follows ALADDIN's ``Scratchpad``
partition bookkeeping: each partition carries its own occupancy and
liveness statistics rather than a global table.

:class:`GoldenTimeline` is the step before that: the compact record of
one golden execution (a measured workload profile under a mapping
plan) — per mapped block, its residency window (first to last touch)
and its ACE-cycle count.  The campaign runs the golden execution once
per (workload, mapping) pair; every Monte-Carlo trial then replays
against this timeline instead of re-simulating, and the timeline's
fault-free fraction tells the engines how many trials the fast-forward
path will absorb without ever touching a codec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...config import Protection
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

    @property
    def occupied_bytes(self):
        return int(self.ends[-1]) if len(self.ends) else 0

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


@dataclass(frozen=True)
class GoldenTimeline:
    """Compact per-block record of one golden execution.

    One row per mapped SPM block: its residency window in cycles
    (``first_touch`` to ``last_touch``), its ACE-cycle count, its size,
    and the protection of the region it landed in.  Built once from a
    measured profile and a mapping plan; every downstream trial replays
    against these arrays instead of re-running the simulation.
    """

    names: tuple
    sizes: np.ndarray  # int64
    protection: np.ndarray  # uint8
    first_touch: np.ndarray  # int64 cycles
    last_touch: np.ndarray  # int64 cycles
    ace_cycles: np.ndarray  # int64
    total_cycles: int

    @classmethod
    def from_profile(cls, profile, plan):
        """Record the golden run of ``profile`` mapped by ``plan``."""
        rows = sorted(plan.avf_entries(profile),
                      key=lambda pair: pair[0].name)
        names = tuple(stats.name for stats, _ in rows)
        as_array = lambda values, dtype: np.fromiter(  # noqa: E731
            values, dtype=dtype, count=len(names))
        return cls(
            names=names,
            sizes=as_array((s.size for s, _ in rows), np.int64),
            protection=np.fromiter(
                (protection_code(p) for _, p in rows),
                dtype=np.uint8, count=len(names)),
            first_touch=as_array(
                (s.first_touch_cycle for s, _ in rows), np.int64),
            last_touch=as_array(
                (s.last_touch_cycle for s, _ in rows), np.int64),
            ace_cycles=as_array((s.ace_cycles for s, _ in rows), np.int64),
            total_cycles=int(profile.total_cycles),
        )

    # --- derived fractions ------------------------------------------------------

    def ace_fractions(self):
        """Per-block P(strike cycle lands in the ACE window), clamped."""
        if self.total_cycles <= 0:
            return np.zeros(len(self.names))
        return np.minimum(1.0, self.ace_cycles / self.total_cycles)

    def residency_fractions(self):
        """Per-block fraction of the run the block is resident at all."""
        if self.total_cycles <= 0:
            return np.zeros(len(self.names))
        window = np.maximum(0, self.last_touch - self.first_touch)
        return np.minimum(1.0, window / self.total_cycles)

    def to_targets(self):
        """The block-level target list this timeline induces."""
        from ...faults.injector import Target

        code_to_protection = {protection_code(protection): protection
                              for protection in Protection}
        fractions = self.ace_fractions()
        return tuple(
            Target(name, code_to_protection[int(self.protection[i])],
                   int(self.sizes[i]), float(fractions[i]))
            for i, name in enumerate(self.names))

    def to_surface(self, total_spm_bytes):
        """Flatten the timeline into a :class:`StrikeSurface`."""
        return StrikeSurface.from_targets(self.to_targets(),
                                          total_spm_bytes)
