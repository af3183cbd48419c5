"""The Mapping Determiner Algorithm (Algorithm 1 of the paper).

The off-line phase, in the paper's six steps:

1. Map code blocks to the (fully STT-RAM) instruction SPM while they fit;
   map every data block that fits into the STT-RAM region of the data SPM.
2. Sort the STT-resident data blocks by *susceptibility* — the number of
   block references multiplied by its life-time.
3. While the scenario's performance overhead exceeds its threshold,
   evict the least susceptible block from STT-RAM.
4. While the scenario's energy overhead exceeds its threshold, evict the
   least susceptible block from STT-RAM.
5. Evict every STT-resident block whose write count exceeds the write-
   cycles threshold, regardless of susceptibility (endurance guard).
6. Place the evicted blocks: blocks at least as susceptible as the
   evictee average go to the SEC-DED region, the rest to the parity
   region, subject to capacity; anything that fits nowhere stays
   unmapped (served by the cache).

During the eviction loops an evicted block is priced at the parity-SRAM
extreme point (its eventual SRAM home) so the loops converge toward the
intended trade-off rather than punishing evictions with cache costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import MemoryTechnology, Protection
from ..errors import MappingError
from .costs import ScenarioCostModel
from .plan import MappingPlan
from .priorities import OptimizationMode, thresholds_for_mode


@dataclass(frozen=True)
class MdaDecision:
    """One logged decision, for explainability and Table II checks."""

    step: int
    block: str
    action: str
    detail: str = ""


@dataclass
class MdaResult:
    """Everything the off-line phase produced."""

    plan: MappingPlan
    decisions: list = field(default_factory=list)
    evicted: list = field(default_factory=list)
    write_threshold: float = 0.0
    perf_overhead: float = 0.0
    energy_overhead: float = 0.0
    #: which profile drove the mapping: "dynamic" (measured), "static"
    #: (repro.analysis estimate), or "synthetic"
    profile_flavor: str = "dynamic"

    def log(self, step, block, action, detail=""):
        self.decisions.append(MdaDecision(step, block, action, detail))


def _find_region(config, spm_config, predicate, description):
    for region in spm_config.regions:
        if predicate(region):
            return region.name
    raise MappingError(
        "config %r has no %s region (MDA needs the hybrid structure)"
        % (config.name, description))


class MappingDeterminer:
    """Off-line mapping phase bound to one hybrid platform config."""

    def __init__(self, config, thresholds=None):
        self.config = config
        self.thresholds = (thresholds
                           or thresholds_for_mode(OptimizationMode.BALANCED))
        self.ispm_region = _find_region(
            config, config.instruction_spm,
            lambda region: True, "instruction-SPM")
        self.stt_region = _find_region(
            config, config.data_spm,
            lambda region: region.technology is MemoryTechnology.STT_RAM,
            "STT-RAM data")
        self.ecc_region = _find_region(
            config, config.data_spm,
            lambda region: region.protection is Protection.SECDED,
            "SEC-DED data")
        self.parity_region = _find_region(
            config, config.data_spm,
            lambda region: region.protection is Protection.PARITY,
            "parity data")

    # --- pool-aware overhead evaluation ----------------------------------------

    def _overheads(self, cost_model, plan, pool, profile):
        """(perf, energy) overhead, pricing pooled blocks at parity cost."""
        cost = cost_model.cost_of(plan)
        extra_cycles = 0.0
        extra_energy = 0.0
        parity_model = cost_model.energy_models.get(self.parity_region)
        for name in pool:
            stats = profile.get(name)
            accesses = stats.reads + stats.writes
            # Pool blocks were priced as unmapped (cache); reprice at the
            # parity extreme point: 1 cycle and parity energies.
            cache = cost_model.cache_cost
            extra_cycles += accesses * (1.0 - cache.latency)
            if parity_model is not None:
                extra_energy += (
                    stats.reads * (parity_model.read_energy
                                   - cache.read_energy)
                    + stats.writes * (parity_model.write_energy
                                      - cache.write_energy))
        ideal = cost_model.ideal_cost()
        total_cycles = cost.total_cycles + extra_cycles
        total_energy = cost.dynamic_energy + extra_energy
        perf = ((total_cycles - ideal.total_cycles) / ideal.total_cycles
                if ideal.total_cycles else 0.0)
        energy = ((total_energy - ideal.dynamic_energy)
                  / ideal.dynamic_energy if ideal.dynamic_energy else 0.0)
        return perf, energy

    # --- the algorithm ------------------------------------------------------------

    def map(self, profile):
        """Run Algorithm 1 on a profile; returns an :class:`MdaResult`."""
        plan = MappingPlan.empty(self.config)
        result = MdaResult(plan=plan,
                           profile_flavor=getattr(profile, "flavor",
                                                  "dynamic"))
        cost_model = ScenarioCostModel(profile, self.config)
        pool = []  # block names evicted from (or never admitted to) STT

        # Step 1a: instruction blocks into the STT-RAM I-SPM.
        ispm = plan.slots[self.ispm_region]
        for stats in sorted(profile.code_blocks(),
                            key=lambda s: s.accesses, reverse=True):
            if ispm.fits(stats.size):
                plan.assign(stats, self.ispm_region)
                result.log(1, stats.name, "map-ispm")
            else:
                plan.leave_unmapped(stats)
                result.log(1, stats.name, "unmapped",
                           "does not fit instruction SPM")

        # Step 1b: data blocks into the STT-RAM data region.
        stt = plan.slots[self.stt_region]
        data_blocks = profile.by_susceptibility(profile.data_blocks())
        for stats in data_blocks:
            if stt.fits(stats.size):
                plan.assign(stats, self.stt_region)
                result.log(1, stats.name, "map-stt")
            else:
                pool.append(stats.name)
                result.log(1, stats.name, "pool",
                           "does not fit STT-RAM region")

        def stt_resident():
            """STT-resident data blocks, least susceptible first (step 2)."""
            names = [a.block_name
                     for a in plan.blocks_in_region(self.stt_region)]
            return sorted((profile.get(name) for name in names),
                          key=lambda s: s.susceptibility)

        def evict(stats, step, reason):
            plan.unassign(stats.name, stats.size)
            pool.append(stats.name)
            result.log(step, stats.name, "evict-stt", reason)

        # Step 3: performance budget.
        while True:
            perf, _ = self._overheads(cost_model, plan, pool, profile)
            if perf <= self.thresholds.performance_overhead:
                break
            candidates = stt_resident()
            if not candidates:
                break
            evict(candidates[0], 3,
                  "performance overhead %.3f > %.3f"
                  % (perf, self.thresholds.performance_overhead))

        # Step 4: energy budget.
        while True:
            _, energy = self._overheads(cost_model, plan, pool, profile)
            if energy <= self.thresholds.energy_overhead:
                break
            candidates = stt_resident()
            if not candidates:
                break
            evict(candidates[0], 4,
                  "energy overhead %.3f > %.3f"
                  % (energy, self.thresholds.energy_overhead))

        # Step 5: endurance guard.
        total_data_writes = sum(
            stats.writes for stats in profile.data_blocks())
        write_threshold = self.thresholds.write_threshold(total_data_writes)
        result.write_threshold = write_threshold
        for stats in stt_resident():
            if stats.writes > write_threshold:
                evict(stats, 5,
                      "writes %d > threshold %.0f"
                      % (stats.writes, write_threshold))

        # Step 6: place the pool into SEC-DED / parity by susceptibility.
        self._place_pool(plan, result, pool, profile)
        result.evicted = list(pool)

        plan.repack(profile)
        perf, energy = self._overheads(cost_model, plan, [], profile)
        result.perf_overhead = perf
        result.energy_overhead = energy
        return result

    def _place_pool(self, plan, result, pool, profile):
        if not pool:
            return
        stats_list = [profile.get(name) for name in pool]
        average = (sum(s.susceptibility for s in stats_list)
                   / len(stats_list))
        ecc = plan.slots[self.ecc_region]
        parity = plan.slots[self.parity_region]
        stt = plan.slots[self.stt_region]

        def write_intensity(stats):
            words = max(1, stats.size // 4)
            return stats.writes / words * stats.write_skew

        # Under capacity pressure the SRAM regions should absorb the
        # hottest writers first, so any block that falls back to STT-RAM
        # is the coolest one — Algorithm 1 does not specify an order, and
        # this tie-break preserves its endurance intent.
        for stats in sorted(stats_list, key=write_intensity, reverse=True):
            if stats.susceptibility >= average:
                preferred, fallback = ecc, parity
            else:
                preferred, fallback = parity, ecc
            if preferred.fits(stats.size):
                plan.assign(stats, preferred.name)
                result.log(6, stats.name, "map-" + preferred.name,
                           "susceptibility %.3g vs avg %.3g"
                           % (stats.susceptibility, average))
            elif fallback.fits(stats.size):
                plan.assign(stats, fallback.name)
                result.log(6, stats.name, "map-" + fallback.name,
                           "preferred region full")
            elif stt.fits(stats.size):
                # An SPM home — even the wear-limited one — still beats
                # demoting the block to the cache/off-chip path.
                plan.assign(stats, stt.name)
                result.log(6, stats.name, "map-" + stt.name,
                           "SRAM regions full; returned to STT-RAM")
            else:
                plan.leave_unmapped(stats)
                result.log(6, stats.name, "unmapped", "no SPM space left")
