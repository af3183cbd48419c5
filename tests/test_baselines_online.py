"""Baseline mappers and the online (schedule/machine) phase."""

import pytest

from repro import baseline_sram_config, baseline_sttram_config, ftspm_config
from repro.core import (
    build_machine,
    hybrid_write_aware_plan,
    pure_sram_plan,
    pure_sttram_plan,
    schedule_for_plan,
    steinke_energy_plan,
)
from repro.core.mda import MappingDeterminer
from repro.errors import MappingError
from repro.profile.blocks import BlockKind, ProgramBlock
from repro.profile.profiler import BlockStats, Profile

KB = 1024


def make_block(name, kind, size, reads, writes):
    stats = BlockStats(block=ProgramBlock(name, kind, 0x1000, size))
    stats.reads = reads
    stats.writes = writes
    stats.first_touch_cycle = 0
    stats.last_touch_cycle = 500_000
    stats.ace_cycles = 100_000
    return stats


@pytest.fixture
def profile():
    return Profile(
        program=None,
        blocks={b.name: b for b in [
            make_block("code", BlockKind.CODE, 2 * KB, 400_000, 0),
            make_block("reader", BlockKind.DATA, 4 * KB, 300_000, 1_000),
            make_block("writer", BlockKind.DATA, 2 * KB, 50_000, 80_000),
            make_block("mixed", BlockKind.DATA, 2 * KB, 100_000, 20_000),
        ]},
        total_cycles=1_000_000,
        total_instructions=700_000,
    )


def test_pure_sram_plan_maps_everything_that_fits(profile):
    plan = pure_sram_plan(profile, baseline_sram_config())
    for name in ("code", "reader", "writer", "mixed"):
        assert plan.assignment_of(name).mapped


def test_pure_sram_plan_requires_homogeneous_config(profile):
    with pytest.raises(MappingError):
        pure_sram_plan(profile, ftspm_config())


def test_pure_sram_capacity_overflow_leaves_unmapped(profile):
    profile.blocks["huge"] = make_block(
        "huge", BlockKind.DATA, 20 * KB, 10, 0)
    plan = pure_sram_plan(profile, baseline_sram_config())
    assert not plan.assignment_of("huge").mapped


def test_pure_sttram_plan(profile):
    plan = pure_sttram_plan(profile, baseline_sttram_config())
    assert plan.assignment_of("writer").region_name == "dspm-stt"


def test_steinke_prefers_cheapest_regions(profile):
    plan = steinke_energy_plan(profile, ftspm_config())
    # highest access density first into the cheapest-energy region
    densities = {name: (profile.get(name).accesses / profile.get(name).size)
                 for name in ("reader", "writer", "mixed")}
    densest = max(densities, key=densities.get)
    assignment = plan.assignment_of(densest)
    assert assignment.mapped


def test_hybrid_write_aware_splits_by_write_ratio(profile):
    plan = hybrid_write_aware_plan(profile, ftspm_config())
    assert plan.assignment_of("reader").region_name == "dspm-stt"
    writer_region = plan.assignment_of("writer").region_name
    assert plan.slots[writer_region].protection.is_sram_scheme


def test_hybrid_write_aware_needs_hybrid_config(profile):
    with pytest.raises(MappingError):
        hybrid_write_aware_plan(profile, baseline_sram_config())


def test_hybrid_is_reliability_blind_vs_mda(profile):
    """The ablation point: Hu-style mapping ignores susceptibility."""
    hybrid = hybrid_write_aware_plan(profile, ftspm_config())
    mda = MappingDeterminer(ftspm_config()).map(profile).plan
    # both deport the writer from STT, but only MDA ranks by
    # susceptibility for the ECC/parity split; assert they are built
    # from different criteria by checking the decision exists at all
    assert hybrid.assignment_of("writer").mapped
    assert mda.assignment_of("writer").mapped


# --- online phase -------------------------------------------------------------

def test_schedule_for_plan_creates_static_maps(case_profile, case_plan):
    schedule = schedule_for_plan(case_plan.plan, case_profile)
    mapped = {a.block_name for a in case_plan.plan.mapped_blocks()}
    assert len(schedule.actions) == len(mapped)


def test_build_machine_runs_case_study(case_program, case_profile,
                                        case_plan, ftspm_cfg):
    machine = build_machine(case_program, ftspm_cfg, case_plan.plan,
                            case_profile)
    result = machine.run()
    assert result.halted
    # with everything mapped, the cache should see almost no traffic
    assert machine.memory.cache.stats.accesses == 0


def test_build_machine_requires_profile_with_plan(case_program, case_plan,
                                                  ftspm_cfg):
    with pytest.raises(MappingError):
        build_machine(case_program, ftspm_cfg, case_plan.plan, None)


def test_build_machine_without_plan_uses_cache(case_program, ftspm_cfg):
    machine = build_machine(case_program, ftspm_cfg)
    machine.run()
    assert machine.memory.cache.stats.accesses > 0


def test_ftspm_run_produces_same_result_as_baseline(case_program,
                                                    case_profile,
                                                    case_plan, ftspm_cfg,
                                                    sram_cfg):
    """Functional equivalence: mapping must not change program output."""
    ftspm_machine = build_machine(case_program, ftspm_cfg, case_plan.plan,
                                  case_profile)
    ftspm_machine.run()
    baseline = build_machine(case_program, sram_cfg)
    baseline.run()
    a1 = case_program.symbol("Array1")
    size = 96 * 4
    assert (ftspm_machine.memory.peek_bytes(a1, size)
            == baseline.memory.peek_bytes(a1, size))
