"""Architectural Vulnerability Factor model — equations (1)–(7).

The paper computes SPM vulnerability as::

    Vulnerability = SDC_AVF + DUE_AVF                            (1)
    SDC_AVF = sum_i ACE_i * SDC_probability(region_i)            (2)
    DUE_AVF = sum_i ACE_i * DUE_probability(region_i)            (3)

with the per-region probabilities driven by the strike multiplicity
distribution::

    DUE(parity)  = P(1 bit)                                      (4)
    DUE(SEC-DED) = P(2 bits)                                     (5)
    SDC(parity)  = P(>= 2 bits)                                  (6)
    SDC(SEC-DED) = P(>= 3 bits)                                  (7)

A strike lands uniformly over the data-SPM surface, so each region's
weight is its share of that surface multiplied by its ACE-weighted
utilization; STT-RAM regions contribute nothing (immune).  This is the
one vulnerability reading (Fig. 5): it reproduces the paper's
observation that the uniform all-SEC-DED baseline is workload-
independent while FTSPM's vulnerability tracks how little of its surface
is live SRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import Protection
from ..errors import FaultInjectionError
from .mbu import MbuDistribution


@dataclass(frozen=True)
class RegionErrorProbabilities:
    """Per-strike outcome probabilities for one protection scheme."""

    protection: Protection
    sdc: float
    due: float
    dre: float

    @property
    def harmful(self):
        """Probability a strike on live data harms the run (eq. 1 terms)."""
        return self.sdc + self.due


def region_error_probabilities(protection, mbu=None):
    """Equations (4)–(7) for one protection scheme."""
    mbu = mbu or MbuDistribution.for_node(40)
    if protection is Protection.IMMUNE:
        return RegionErrorProbabilities(protection, 0.0, 0.0, 0.0)
    if protection is Protection.PARITY:
        return RegionErrorProbabilities(
            protection,
            sdc=mbu.p_at_least(2),
            due=mbu.p_exactly(1),
            dre=0.0,
        )
    if protection is Protection.SECDED:
        return RegionErrorProbabilities(
            protection,
            sdc=mbu.p_at_least(3),
            due=mbu.p_exactly(2),
            dre=mbu.p_exactly(1),
        )
    if protection is Protection.NONE:
        return RegionErrorProbabilities(protection, sdc=1.0, due=0.0, dre=0.0)
    raise FaultInjectionError("unknown protection %r" % protection)


#: Block-granular ACE underestimates word-level liveness (a single live
#: word keeps its whole access gap vulnerable), so occupied bytes never
#: count below this utilization.
ACE_FLOOR = 0.3


@dataclass
class RegionVulnerability:
    """One data-SPM region's contribution to the vulnerability."""

    name: str
    protection: Protection
    area_fraction: float
    ace_fraction: float
    sdc: float
    due: float

    @property
    def total(self):
        return self.sdc + self.due


@dataclass
class VulnerabilityBreakdown:
    """Equation (1) plus its per-region decomposition."""

    sdc_avf: float = 0.0
    due_avf: float = 0.0
    regions: list = field(default_factory=list)

    @property
    def vulnerability(self):
        return self.sdc_avf + self.due_avf

    @property
    def reliability(self):
        """The paper's Section IV "reliability" scalar (86% vs 62%)."""
        return 1.0 - self.vulnerability


def region_surface_vulnerability(plan, profile, mbu=None, uniform=False):
    """Equations (1)–(3) over the data-SPM region surface (Fig. 5).

    A strike lands uniformly over the D-SPM surface; each *region*
    contributes ``area_share x utilization x harmful_probability`` where
    utilization is the ACE-time-weighted fraction of the region holding
    live data, never below :data:`ACE_FLOOR` per occupied byte.  With
    ``uniform=True`` every region is treated as fully utilized — the
    paper's reading of the homogeneous SEC-DED baseline, which makes its
    vulnerability the workload-independent constant
    ``P(2 bits) + P(>= 3 bits)`` (~0.38 at 40 nm) and its Section IV
    "reliability" the quoted 62%.  The instruction SPM is all-STT-RAM in
    FTSPM and is not part of the surface.
    """
    mbu = mbu or MbuDistribution.for_node(40)
    slots = [slot for slot in plan.slots.values()
             if slot.spm_name == "D-SPM"]
    total_area = sum(slot.size for slot in slots)
    if total_area <= 0:
        raise FaultInjectionError("the data SPM has no surface")
    breakdown = VulnerabilityBreakdown()
    total_cycles = profile.total_cycles
    for slot in slots:
        probabilities = region_error_probabilities(slot.protection, mbu)
        if uniform:
            utilization = 1.0
        else:
            live = 0.0
            for assignment in plan.blocks_in_region(slot.name):
                stats = profile.get(assignment.block_name)
                ace = (min(1.0, stats.ace_cycles / total_cycles)
                       if total_cycles > 0 else 0.0)
                live += stats.size * max(ace, ACE_FLOOR)
            utilization = min(1.0, live / slot.size)
        weight = (slot.size / total_area) * utilization
        region = RegionVulnerability(
            name=slot.name,
            protection=slot.protection,
            area_fraction=slot.size / total_area,
            ace_fraction=utilization,
            sdc=weight * probabilities.sdc,
            due=weight * probabilities.due,
        )
        breakdown.sdc_avf += region.sdc
        breakdown.due_avf += region.due
        breakdown.regions.append(region)
    return breakdown
