"""The paper's contribution: the FTSPM mapping layer.

* :mod:`plan` — mapping plans: which block lives in which SPM region, at
  which offset, and how that turns into DMA transfer schedules.
* :mod:`costs` — scenario cost model: estimated cycles and dynamic
  energy of a plan (what Algorithm 1's threshold checks consume).
* :mod:`mda` — the Mapping Determiner Algorithm (Algorithm 1): the
  six-step, multi-priority, reliability-aware placement.
* :mod:`priorities` — the reliability/performance/power/endurance
  optimisation modes.
* :mod:`baselines` — comparison mappers: pure-SRAM, pure-STT-RAM,
  Steinke-style energy-first, and Hu-style write-aware hybrid.
* :mod:`online` — the online phase: turning a plan into transfer
  schedules and wiring a ready-to-run machine.
"""

from .plan import Assignment, MappingPlan, RegionSlot, region_slots
from .costs import CacheCostEstimate, ScenarioCost, ScenarioCostModel
from .mda import MappingDeterminer, MdaDecision, MdaResult
from .priorities import OptimizationMode, Thresholds, thresholds_for_mode
from .baselines import (
    hybrid_write_aware_plan,
    pure_sram_plan,
    pure_sttram_plan,
    steinke_energy_plan,
)
from .online import build_machine, schedule_for_plan

__all__ = [
    "Assignment",
    "MappingPlan",
    "RegionSlot",
    "region_slots",
    "CacheCostEstimate",
    "ScenarioCost",
    "ScenarioCostModel",
    "MappingDeterminer",
    "MdaDecision",
    "MdaResult",
    "OptimizationMode",
    "Thresholds",
    "thresholds_for_mode",
    "hybrid_write_aware_plan",
    "pure_sram_plan",
    "pure_sttram_plan",
    "steinke_energy_plan",
    "build_machine",
    "schedule_for_plan",
]
