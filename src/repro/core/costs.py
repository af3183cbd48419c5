"""Scenario cost model: cycles and energy of a mapping plan.

Algorithm 1's threshold checks ("performance overhead of current mapping
scenario", "power overhead of current mapping scenario") need a fast
estimator that can be re-evaluated inside the eviction loops.  The model
prices every block's profiled accesses at its assigned region's latency
and per-access energy; unmapped blocks pay an amortised cache cost
(hit latency plus miss-rate-weighted line fills); mapped blocks pay a
one-time DMA fill.

Overheads are measured against the paper's stated extreme point: the
all-parity-SRAM scenario is optimal for both performance and dynamic
energy, so ``perf_overhead`` and ``energy_overhead`` are relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mem.dma import BURST_ENERGY_FRACTION
from ..mem.stats import EnergyModel
from ..tech.nvsim_lite import energy_models_for

_WORD = 4

#: the fraction of unmapped-block accesses that miss the L1 cache and
#: pay a line fill from DRAM
CACHE_MISS_RATE = 0.08


@dataclass(frozen=True)
class CacheCostEstimate:
    """Amortised per-access cost of going through the L1 cache."""

    latency: float
    read_energy: float
    write_energy: float


@dataclass(frozen=True)
class ScenarioCost:
    """Estimated cost of one mapping scenario."""

    memory_cycles: float
    transfer_cycles: float
    dynamic_energy: float
    base_cycles: float

    @property
    def total_cycles(self):
        return self.base_cycles + self.memory_cycles + self.transfer_cycles


class ScenarioCostModel:
    """Prices mapping plans for one profiled workload on one platform."""

    def __init__(self, profile, config, energy_models=None):
        self.profile = profile
        self.config = config
        self.energy_models = energy_models or energy_models_for(config)
        self._cache_cost = self._estimate_cache_cost()
        self._ideal = None

    # --- cache estimate ---------------------------------------------------------

    def _estimate_cache_cost(self):
        cache = self.config.cache
        off_chip = self.config.off_chip
        words_per_line = cache.line_size // _WORD
        fill_cycles = (off_chip.latency
                       + (words_per_line - 1) * off_chip.burst_word_latency)
        cache_model = self.energy_models.get("cache", EnergyModel())
        dram_model = self.energy_models.get("dram", EnergyModel())
        fill_energy = CACHE_MISS_RATE * (
            dram_model.read_energy * words_per_line
            * BURST_ENERGY_FRACTION)
        return CacheCostEstimate(
            latency=cache.latency + CACHE_MISS_RATE * fill_cycles,
            read_energy=cache_model.read_energy + fill_energy,
            write_energy=cache_model.write_energy + fill_energy,
        )

    @property
    def cache_cost(self):
        return self._cache_cost

    # --- per-block pricing -----------------------------------------------------------

    def _block_cost(self, stats, plan):
        """(cycles, energy, transfer_cycles, transfer_energy) of one block."""
        assignment = plan.assignments.get(stats.name)
        reads = stats.reads
        writes = stats.writes
        if assignment is None or not assignment.mapped:
            cost = self._cache_cost
            cycles = reads * cost.latency + writes * cost.latency
            energy = (reads * cost.read_energy
                      + writes * cost.write_energy)
            return cycles, energy, 0.0, 0.0
        slot = plan.slots[assignment.region_name]
        model = self.energy_models.get(assignment.region_name,
                                       EnergyModel())
        cycles = reads * slot.read_latency + writes * slot.write_latency
        energy = (reads * model.read_energy + writes * model.write_energy)
        words = (stats.size + _WORD - 1) // _WORD
        off_chip = self.config.off_chip
        dram_model = self.energy_models.get("dram", EnergyModel())
        transfer_cycles = (off_chip.latency
                           + (words - 1) * off_chip.burst_word_latency
                           + words * slot.write_latency)
        transfer_energy = words * (
            dram_model.read_energy * BURST_ENERGY_FRACTION
            + model.write_energy)
        return cycles, energy, transfer_cycles, transfer_energy

    # --- public API ---------------------------------------------------------------------

    def cost_of(self, plan, include_transfers=True):
        """Estimate a plan's memory cycles and dynamic energy."""
        memory_cycles = 0.0
        transfer_cycles = 0.0
        dynamic_energy = 0.0
        for stats in self.profile.blocks.values():
            cycles, energy, t_cycles, t_energy = self._block_cost(stats, plan)
            memory_cycles += cycles
            dynamic_energy += energy
            if include_transfers:
                transfer_cycles += t_cycles
                dynamic_energy += t_energy
        return ScenarioCost(
            memory_cycles=memory_cycles,
            transfer_cycles=transfer_cycles,
            dynamic_energy=dynamic_energy,
            base_cycles=float(self.profile.total_instructions),
        )

    def ideal_cost(self):
        """The all-parity-SRAM extreme point (1-cycle, cheapest energy).

        Cached — it does not depend on the plan.
        """
        if self._ideal is None:
            read_energy = min(
                (model.read_energy
                 for name, model in self.energy_models.items()
                 if name not in ("cache", "dram")),
                default=0.0)
            write_energy = min(
                (model.write_energy
                 for name, model in self.energy_models.items()
                 if name not in ("cache", "dram")),
                default=0.0)
            cycles = 0.0
            energy = 0.0
            for stats in self.profile.blocks.values():
                cycles += stats.reads + stats.writes
                energy += (stats.reads * read_energy
                           + stats.writes * write_energy)
            self._ideal = ScenarioCost(
                memory_cycles=cycles,
                transfer_cycles=0.0,
                dynamic_energy=energy,
                base_cycles=float(self.profile.total_instructions),
            )
        return self._ideal

    def perf_overhead(self, plan):
        """Fractional slowdown of ``plan`` vs the ideal scenario."""
        ideal = self.ideal_cost()
        cost = self.cost_of(plan)
        if ideal.total_cycles == 0:
            return 0.0
        return (cost.total_cycles - ideal.total_cycles) / ideal.total_cycles

    def energy_overhead(self, plan):
        """Fractional dynamic-energy overhead of ``plan`` vs ideal."""
        ideal = self.ideal_cost()
        cost = self.cost_of(plan)
        if ideal.dynamic_energy == 0:
            return 0.0
        return ((cost.dynamic_energy - ideal.dynamic_energy)
                / ideal.dynamic_energy)
