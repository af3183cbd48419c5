"""Mapping plans: allocation, eviction, repacking, reporting."""

import pytest

from repro import ftspm_config
from repro.config import Protection
from repro.core import MappingPlan, region_slots
from repro.errors import MappingError
from repro.mem.hierarchy import DSPM_BASE, ISPM_BASE
from repro.profile.blocks import BlockKind, ProgramBlock
from repro.profile.profiler import BlockStats, Profile


def stats_of(name, size, kind=BlockKind.DATA):
    return BlockStats(block=ProgramBlock(name, kind, 0x1000, size))


def make_profile(*stats_list):
    return Profile(program=None,
                   blocks={s.name: s for s in stats_list},
                   total_cycles=1000, total_instructions=800)


@pytest.fixture
def plan():
    return MappingPlan.empty(ftspm_config())


def test_region_slots_layout():
    slots = region_slots(ftspm_config())
    assert slots["ispm-stt"].base == ISPM_BASE
    assert slots["dspm-parity"].base == DSPM_BASE
    assert slots["dspm-secded"].base == DSPM_BASE + 2048
    assert slots["dspm-stt"].base == DSPM_BASE + 4096
    assert slots["dspm-stt"].spm_name == "D-SPM"
    assert slots["ispm-stt"].spm_name == "I-SPM"


def test_slot_latencies_follow_config():
    slots = region_slots(ftspm_config())
    assert slots["dspm-secded"].read_latency == 2
    assert slots["dspm-stt"].write_latency == 10


def test_assign_bumps_addresses(plan):
    a = plan.assign(stats_of("a", 100), "dspm-parity")
    b = plan.assign(stats_of("b", 50), "dspm-parity")
    assert a.spm_address == DSPM_BASE
    assert b.spm_address == DSPM_BASE + 100
    assert plan.slots["dspm-parity"].used == 150


def test_assign_overflow_raises(plan):
    plan.assign(stats_of("a", 2000), "dspm-parity")
    with pytest.raises(MappingError):
        plan.assign(stats_of("b", 100), "dspm-parity")


def test_double_assign_rejected(plan):
    plan.assign(stats_of("a", 100), "dspm-parity")
    with pytest.raises(MappingError):
        plan.assign(stats_of("a", 100), "dspm-secded")


def test_unknown_region_rejected(plan):
    with pytest.raises(MappingError):
        plan.assign(stats_of("a", 100), "bogus")


def test_leave_unmapped(plan):
    assignment = plan.leave_unmapped(stats_of("a", 100))
    assert not assignment.mapped
    assert plan.protection_of("a") is None


def test_unassign_frees_space(plan):
    plan.assign(stats_of("a", 100), "dspm-parity")
    region = plan.unassign("a", 100)
    assert region == "dspm-parity"
    assert plan.slots["dspm-parity"].used == 0
    with pytest.raises(MappingError):
        plan.assignment_of("a")


def test_unassign_unmapped_returns_none(plan):
    plan.leave_unmapped(stats_of("a", 100))
    assert plan.unassign("a", 100) is None


def test_repack_compacts_offsets(plan):
    a, b, c = stats_of("a", 100), stats_of("b", 200), stats_of("c", 50)
    profile = make_profile(a, b, c)
    plan.assign(a, "dspm-parity")
    plan.assign(b, "dspm-parity")
    plan.assign(c, "dspm-parity")
    plan.unassign("b", 200)
    plan.repack(profile)
    addresses = sorted(assignment.spm_address
                       for assignment in plan.mapped_blocks())
    assert addresses == [DSPM_BASE, DSPM_BASE + 100]
    assert plan.slots["dspm-parity"].used == 150


def test_protection_of_mapped_block(plan):
    plan.assign(stats_of("a", 64), "dspm-secded")
    assert plan.protection_of("a") is Protection.SECDED


def test_blocks_in_region(plan):
    plan.assign(stats_of("a", 64), "dspm-stt")
    plan.assign(stats_of("b", 64), "dspm-stt")
    plan.assign(stats_of("c", 64), "dspm-parity")
    assert len(plan.blocks_in_region("dspm-stt")) == 2


def test_region_occupancy(plan):
    plan.assign(stats_of("a", 64), "dspm-stt")
    occupancy = plan.region_occupancy()
    assert occupancy["dspm-stt"] == 64
    assert occupancy["dspm-parity"] == 0


def test_table_rows_layout(plan):
    a = stats_of("a", 64)
    b = stats_of("b", 64)
    profile = make_profile(a, b)
    plan.assign(a, "dspm-stt")
    plan.leave_unmapped(b)
    rows = dict((r[0], (r[1], r[2])) for r in plan.table_rows(profile))
    assert rows["a"] == ("Yes", "STT-RAM")
    assert rows["b"] == ("No", "-")


def test_format_table_renders(plan):
    a = stats_of("a", 64)
    profile = make_profile(a)
    plan.assign(a, "dspm-secded")
    text = plan.format_table(profile)
    assert "SRAM(ECC)" in text
