"""Evaluate one workload on one SPM structure.

The paper compares three structures (Table IV): FTSPM, the pure SEC-DED
SRAM baseline, and the pure STT-RAM baseline.  For a given workload
profile this module produces the complete metric set every figure draws
from: the mapping plan, estimated cycles and runtime, dynamic and static
energy, AVF vulnerability, and the hottest-cell write rate for the
endurance analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MemoryTechnology, preset
from ..core.baselines import pure_sram_plan, pure_sttram_plan
from ..core.costs import ScenarioCostModel
from ..core.mda import MappingDeterminer
from ..core.priorities import OptimizationMode, thresholds_for_mode
from ..errors import ConfigurationError
from ..faults.avf import region_surface_vulnerability
from ..faults.mbu import MbuDistribution
from ..tech.nvsim_lite import energy_models_for

STRUCTURES = ("ftspm", "baseline-sram", "baseline-sttram")

_WORD = 4


@dataclass
class StructureEvaluation:
    """All metrics of one (profile, structure) pair."""

    structure: str
    workload: str
    config: object
    plan: object
    cycles: float
    runtime_seconds: float
    dynamic_energy: float
    static_energy: float
    leakage_power: float
    vulnerability: float
    sdc_avf: float
    due_avf: float
    max_cell_write_rate: float  # writes/second on the hottest STT cell
    mda_result: object = None

    @property
    def reliability(self):
        return 1.0 - self.vulnerability

    @property
    def total_energy(self):
        return self.dynamic_energy + self.static_energy

    def metrics(self):
        """The scalar metric set as plain floats, for snapshots/diffs."""
        return {
            "cycles": float(self.cycles),
            "runtime_seconds": float(self.runtime_seconds),
            "dynamic_energy": float(self.dynamic_energy),
            "static_energy": float(self.static_energy),
            "vulnerability": float(self.vulnerability),
            "sdc_avf": float(self.sdc_avf),
            "due_avf": float(self.due_avf),
            "max_cell_write_rate": float(self.max_cell_write_rate),
        }


def placement_inputs(structure, config=None, thresholds=None):
    """The ``(config, thresholds)`` a structure's plan is computed from.

    The config defaults to the structure's preset.  FTSPM's thresholds
    default to the balanced mode's, which the MDA falls back to; the
    baselines' planners take none, so theirs are None.  Evaluations are
    keyed on this result, so every spelling of the same inputs shares
    one evaluation.
    """
    if structure not in STRUCTURES:
        raise ConfigurationError(
            "unknown structure %r (choose from %s)"
            % (structure, ", ".join(STRUCTURES)))
    config = config or preset(structure)
    if structure != "ftspm":
        return config, None
    return config, thresholds or thresholds_for_mode(
        OptimizationMode.BALANCED)


def plan_for_structure(profile, structure, config=None, thresholds=None):
    """Build the mapping plan a structure uses for a profile."""
    config, thresholds = placement_inputs(structure, config, thresholds)
    if structure == "ftspm":
        result = MappingDeterminer(config, thresholds=thresholds).map(profile)
        return config, result.plan, result
    if structure == "baseline-sram":
        return config, pure_sram_plan(profile, config), None
    return config, pure_sttram_plan(profile, config), None


def _spm_leakage(config, energy_models):
    leakage = 0.0
    for spm in (config.instruction_spm, config.data_spm):
        for region in spm.regions:
            leakage += energy_models[region.name].leakage_power
    return leakage


def _max_cell_write_rate(profile, plan, config, runtime_seconds):
    """Peak per-cell write rate across the structure's STT-RAM regions."""
    if runtime_seconds <= 0:
        return 0.0
    stt_regions = {
        slot.name for slot in plan.slots.values()
        if _is_stt(config, slot.name)
    }
    peak = 0.0
    for assignment in plan.mapped_blocks():
        if assignment.region_name not in stt_regions:
            continue
        stats = profile.get(assignment.block_name)
        words = max(1, stats.size // _WORD)
        hottest_writes = stats.writes / words * stats.write_skew
        peak = max(peak, hottest_writes / runtime_seconds)
    return peak


def _is_stt(config, region_name):
    for spm in (config.instruction_spm, config.data_spm):
        for region in spm.regions:
            if region.name == region_name:
                return region.technology is MemoryTechnology.STT_RAM
    return False


def surface_vulnerability(plan, profile, structure, config):
    """Fig. 5's reading of one structure's plan: ``(mbu, breakdown)``.

    Paper semantics (Fig. 5 / Section IV): the homogeneous baselines are
    read as a uniformly vulnerable surface (constant ~0.38 for SEC-DED
    SRAM, 0 for STT-RAM); the hybrid's vulnerability tracks the ACE-
    weighted utilization of its SRAM regions.  Strikes follow the MBU
    law of ``config``'s technology node.
    """
    mbu = MbuDistribution.for_node(config.technology_node_nm)
    return mbu, region_surface_vulnerability(
        plan, profile, mbu=mbu, uniform=structure != "ftspm")


def evaluate_structure(profile, structure, config=None, thresholds=None):
    """Full metric set for one workload on one structure."""
    config, plan, mda_result = plan_for_structure(
        profile, structure, config=config, thresholds=thresholds)
    energy_models = energy_models_for(config)
    cost_model = ScenarioCostModel(profile, config,
                                   energy_models=energy_models)
    cost = cost_model.cost_of(plan)
    runtime_seconds = cost.total_cycles * config.cycle_time
    leakage = _spm_leakage(config, energy_models)
    _, breakdown = surface_vulnerability(plan, profile, structure, config)
    return StructureEvaluation(
        structure=structure,
        workload=profile.source_name,
        config=config,
        plan=plan,
        cycles=cost.total_cycles,
        runtime_seconds=runtime_seconds,
        dynamic_energy=cost.dynamic_energy,
        static_energy=leakage * runtime_seconds,
        leakage_power=leakage,
        vulnerability=breakdown.vulnerability,
        sdc_avf=breakdown.sdc_avf,
        due_avf=breakdown.due_avf,
        max_cell_write_rate=_max_cell_write_rate(
            profile, plan, config, runtime_seconds),
        mda_result=mda_result,
    )
