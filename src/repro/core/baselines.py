"""Baseline and related-work mappers the paper compares against.

* :func:`pure_sram_plan` / :func:`pure_sttram_plan` — the two Table IV
  baselines: a homogeneous SPM, filled greedily by access count (the
  classic frequency-based SPM allocation).
* :func:`steinke_energy_plan` — Steinke et al. (DATE'02)-style
  energy-first allocation: blocks ranked by access density
  (accesses per byte), placed into the cheapest-energy region first.
* :func:`hybrid_write_aware_plan` — Hu et al. (DATE'11)-style hybrid
  SRAM/NVM mapping: write-intensive blocks to SRAM, read-intensive
  blocks to STT-RAM, with **no** reliability awareness — the closest
  prior art to FTSPM's structure, lacking only the vulnerability logic.
"""

from __future__ import annotations

from ..config import MemoryTechnology
from ..errors import MappingError
from ..mem.stats import EnergyModel
from ..tech.nvsim_lite import energy_models_for
from .plan import MappingPlan


def _map_code_blocks(plan, profile, region_name):
    slot = plan.slots[region_name]
    for stats in sorted(profile.code_blocks(),
                        key=lambda s: s.accesses, reverse=True):
        if slot.fits(stats.size):
            plan.assign(stats, region_name)
        else:
            plan.leave_unmapped(stats)


def _single_region(config, spm_config):
    if len(spm_config.regions) != 1:
        raise MappingError(
            "%s of config %r is not homogeneous"
            % (spm_config.name, config.name))
    return spm_config.regions[0].name


def _fill_greedy(plan, profile, blocks, region_names, key):
    """Place blocks (ordered by ``key`` desc) into regions in order."""
    ordered = sorted(blocks, key=key, reverse=True)
    for stats in ordered:
        placed = False
        for region_name in region_names:
            if plan.slots[region_name].fits(stats.size):
                plan.assign(stats, region_name)
                placed = True
                break
        if not placed:
            plan.leave_unmapped(stats)


def pure_sram_plan(profile, config):
    """Greedy frequency-based fill of a homogeneous SEC-DED SRAM SPM."""
    plan = MappingPlan.empty(config)
    _map_code_blocks(plan, profile,
                     _single_region(config, config.instruction_spm))
    data_region = _single_region(config, config.data_spm)
    _fill_greedy(plan, profile, profile.data_blocks(), [data_region],
                 key=lambda s: s.accesses)
    return plan


def pure_sttram_plan(profile, config):
    """Greedy frequency-based fill of a homogeneous STT-RAM SPM."""
    # Structurally identical to the SRAM baseline: the configs differ.
    return pure_sram_plan(profile, config)


def steinke_energy_plan(profile, config):
    """Energy-first allocation (Steinke-style knapsack by density).

    Regions are tried cheapest-first by average access energy; block
    priority is access density (accesses per byte), the classic greedy
    relaxation of the Steinke ILP.
    """
    energy_models = energy_models_for(config)
    plan = MappingPlan.empty(config)
    _map_code_blocks(plan, profile, config.instruction_spm.regions[0].name)

    def region_energy(region_name):
        model = energy_models.get(region_name, EnergyModel())
        return model.read_energy + model.write_energy

    data_regions = sorted(
        (region.name for region in config.data_spm.regions),
        key=region_energy)
    _fill_greedy(plan, profile, profile.data_blocks(), data_regions,
                 key=lambda s: s.accesses / max(1, s.size))
    return plan


def hybrid_write_aware_plan(profile, config, write_ratio_threshold=0.25):
    """Write-aware hybrid mapping (Hu-style), reliability-blind.

    Blocks whose write share of total accesses exceeds the threshold go
    to SRAM (any SRAM region, largest-free-first); the rest go to the
    STT-RAM region.  Vulnerability plays no role — this is the ablation
    point showing what FTSPM's reliability awareness adds.
    """
    plan = MappingPlan.empty(config)
    _map_code_blocks(plan, profile, config.instruction_spm.regions[0].name)
    sram_regions = [region.name for region in config.data_spm.regions
                    if region.technology is MemoryTechnology.SRAM]
    stt_regions = [region.name for region in config.data_spm.regions
                   if region.technology is MemoryTechnology.STT_RAM]
    if not sram_regions or not stt_regions:
        raise MappingError(
            "hybrid mapper needs both SRAM and STT-RAM data regions")
    for stats in sorted(profile.data_blocks(),
                        key=lambda s: s.accesses, reverse=True):
        ratio = stats.writes / max(1, stats.accesses)
        if ratio > write_ratio_threshold:
            preferred = sorted(
                sram_regions,
                key=lambda name: plan.slots[name].free, reverse=True)
            preferred += stt_regions
        else:
            preferred = stt_regions + sorted(
                sram_regions,
                key=lambda name: plan.slots[name].free, reverse=True)
        for region_name in preferred:
            if plan.slots[region_name].fits(stats.size):
                plan.assign(stats, region_name)
                break
        else:
            plan.leave_unmapped(stats)
    return plan
