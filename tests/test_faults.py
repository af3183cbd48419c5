"""Fault model: MBU distribution, AVF equations, injection campaign."""

import numpy as np
import pytest

from repro.campaign import CampaignRunner, CampaignSpec
from repro.config import Protection, ftspm_config
from repro.core import MappingPlan, region_slots
from repro.errors import FaultInjectionError
from repro.faults import (
    MbuDistribution,
    Target,
    region_error_probabilities,
    region_surface_vulnerability,
)
from repro.faults.avf import ACE_FLOOR
from repro.faults.mbu import draw_clusters
from repro.profile.blocks import BlockKind, ProgramBlock
from repro.profile.profiler import BlockStats, Profile

#: area share of one 2 KiB SRAM region of FTSPM's 16 KiB data SPM
SRAM_SHARE = 2048 / (16 * 1024)


def block_stats(name, size, ace_cycles):
    stats = BlockStats(
        block=ProgramBlock(name, BlockKind.DATA, 0, size))
    stats.ace_cycles = ace_cycles
    return stats


def surface(mbu, *placements, uniform=False):
    """Fig. 5 reading of a hand-built FTSPM plan over a 100-cycle run;
    ``placements`` are ``(name, size, ace_cycles, region)`` tuples."""
    plan = MappingPlan.empty(ftspm_config())
    blocks = {}
    for name, size, ace_cycles, region in placements:
        blocks[name] = block_stats(name, size, ace_cycles)
        plan.assign(blocks[name], region)
    profile = Profile(program=None, blocks=blocks, total_cycles=100)
    return region_surface_vulnerability(plan, profile, mbu=mbu,
                                        uniform=uniform)


@pytest.fixture(scope="module")
def mbu():
    return MbuDistribution.for_node(40)


# --- distribution -------------------------------------------------------------

def test_paper_probabilities(mbu):
    assert mbu.p1 == 0.62
    assert mbu.p2 == 0.25
    assert mbu.p3 == 0.06
    assert mbu.p_more == 0.07


def test_p_at_least(mbu):
    assert mbu.p_at_least(1) == pytest.approx(1.0)
    assert mbu.p_at_least(2) == pytest.approx(0.38)
    assert mbu.p_at_least(3) == pytest.approx(0.13)
    assert mbu.p_at_least(4) == pytest.approx(0.07)


def test_p_exactly_bounds(mbu):
    with pytest.raises(FaultInjectionError):
        mbu.p_exactly(4)
    with pytest.raises(FaultInjectionError):
        mbu.p_at_least(5)


def test_probabilities_must_sum_to_one():
    with pytest.raises(FaultInjectionError):
        MbuDistribution((0.5, 0.2, 0.1, 0.1))


def test_probabilities_must_be_non_negative():
    with pytest.raises(FaultInjectionError):
        MbuDistribution((1.1, 0.0, 0.0, -0.1))


@pytest.mark.parametrize("max_multiplicity", [3, 2, 0])
def test_max_multiplicity_must_cover_the_more_than_three_bucket(
        max_multiplicity):
    """The ">3" bucket always flips at least 4 bits, so a cap below 4
    cannot hold the strikes ``draw_clusters`` would draw."""
    with pytest.raises(FaultInjectionError, match="at least 4"):
        MbuDistribution((0.62, 0.25, 0.06, 0.07), max_multiplicity)


def test_max_multiplicity_four_sizes_the_positions():
    mbu = MbuDistribution((0.62, 0.25, 0.06, 0.07), max_multiplicity=4)
    multiplicity, positions = draw_clusters(
        np.random.Generator(np.random.PCG64(4)), 2_000, 72, mbu)
    assert positions.shape == (2_000, 4)
    assert multiplicity.max() == 4


def test_sampled_multiplicity_matches_distribution(mbu):
    """The cluster draw every campaign shard and ablation uses follows
    Dixit & Wood's 62/25/6/7 % multiplicity law."""
    trials = 50_000
    multiplicity, _ = draw_clusters(
        np.random.Generator(np.random.PCG64(42)), trials, 72, mbu)
    assert np.mean(multiplicity == 1) == pytest.approx(0.62, abs=0.01)
    assert np.mean(multiplicity == 2) == pytest.approx(0.25, abs=0.01)
    assert np.mean(multiplicity == 3) == pytest.approx(0.06, abs=0.01)
    assert np.mean(multiplicity > 3) == pytest.approx(0.07, abs=0.01)
    # the ">3" bucket extends geometrically: P(m >= 5 | m >= 4) = 0.4
    tail = multiplicity[multiplicity >= 4]
    assert np.mean(tail >= 5) == pytest.approx(0.40, abs=0.02)


# --- equations (4)-(7) -----------------------------------------------------------

def test_parity_probabilities(mbu):
    probs = region_error_probabilities(Protection.PARITY, mbu)
    assert probs.due == pytest.approx(0.62)
    assert probs.sdc == pytest.approx(0.38)
    assert probs.harmful == pytest.approx(1.0)


def test_secded_probabilities(mbu):
    probs = region_error_probabilities(Protection.SECDED, mbu)
    assert probs.due == pytest.approx(0.25)
    assert probs.sdc == pytest.approx(0.13)
    assert probs.dre == pytest.approx(0.62)
    assert probs.harmful == pytest.approx(0.38)


def test_immune_probabilities(mbu):
    probs = region_error_probabilities(Protection.IMMUNE, mbu)
    assert probs.harmful == 0.0


def test_unprotected_probabilities(mbu):
    probs = region_error_probabilities(Protection.NONE, mbu)
    assert probs.sdc == 1.0


# --- region-surface AVF (Fig. 5) ---------------------------------------------------

def test_vulnerability_weights_by_ace_and_area(mbu):
    breakdown = surface(mbu, ("a", 1024, 50, "dspm-secded"))
    # 1/8 of the surface x half the region live half the run x (0.13 + 0.25)
    assert breakdown.vulnerability == pytest.approx(
        SRAM_SHARE * (1024 * 0.5 / 2048) * 0.38)
    (secded,) = [region for region in breakdown.regions
                 if region.name == "dspm-secded"]
    assert secded.area_fraction == SRAM_SHARE
    assert secded.ace_fraction == pytest.approx(0.25)


def test_immune_blocks_contribute_nothing(mbu):
    breakdown = surface(mbu, ("stt", 4096, 100, "dspm-stt"))
    assert breakdown.vulnerability == 0.0


def test_reliability_complements_vulnerability(mbu):
    breakdown = surface(mbu, ("p", 2048, 100, "dspm-parity"))
    assert breakdown.vulnerability == pytest.approx(SRAM_SHARE)
    assert breakdown.reliability == pytest.approx(
        1.0 - breakdown.vulnerability)


def test_ace_weighting_can_be_disabled(mbu):
    placement = ("a", 1024, 10, "dspm-secded")
    weighted = surface(mbu, placement)
    unweighted = surface(mbu, placement, uniform=True)
    assert unweighted.vulnerability > weighted.vulnerability
    # every region fully live: parity harms on any strike, SEC-DED on >= 2
    assert unweighted.vulnerability == pytest.approx(
        SRAM_SHARE * 1.0 + SRAM_SHARE * 0.38)


def test_ace_floor_bounds_occupied_utilization(mbu):
    """A block is live for at least ``ACE_FLOOR`` of the run however
    short its measured ACE time; above the floor its ACE time counts."""
    assert ACE_FLOOR == 0.3
    floored = SRAM_SHARE * (1024 * ACE_FLOOR / 2048) * 0.38
    for ace_cycles in (0, 10, 30):
        breakdown = surface(mbu, ("a", 1024, ace_cycles, "dspm-secded"))
        assert breakdown.vulnerability == pytest.approx(floored)
    above = surface(mbu, ("a", 1024, 40, "dspm-secded"))
    assert above.vulnerability == pytest.approx(floored * 0.4 / ACE_FLOOR)


def test_total_spm_bytes_must_be_positive(mbu):
    """A plan with no data-SPM surface has nothing to strike."""
    config = ftspm_config()
    plan = MappingPlan(config=config, slots={
        name: slot for name, slot in region_slots(config).items()
        if slot.spm_name != "D-SPM"})
    profile = Profile(program=None, blocks={}, total_cycles=100)
    with pytest.raises(FaultInjectionError):
        region_surface_vulnerability(plan, profile, mbu=mbu)


# --- Monte-Carlo injection ------------------------------------------------------------

TARGETS = (
    Target("ecc-block", Protection.SECDED, 2048, 0.6),
    Target("parity-block", Protection.PARITY, 2048, 0.3),
    Target("stt-block", Protection.IMMUNE, 12288, 1.0),
)


def run_campaign(trials, seed=1, targets=TARGETS):
    spec = CampaignSpec(targets=targets, total_spm_bytes=16 * 1024,
                        trials=trials, seed=seed)
    return CampaignRunner(spec).run().result


def test_campaign_counts_sum():
    result = run_campaign(trials=5000)
    total = (result.benign_immune + result.benign_empty
             + result.benign_dead + result.none + result.dre
             + result.due + result.sdc)
    assert total == result.trials == 5000


def test_campaign_sttram_strikes_are_benign():
    result = run_campaign(trials=5000)
    assert result.benign_immune > 0
    assert "stt-block" not in result.by_block


def test_campaign_matches_analytic_avf(mbu):
    """Monte-Carlo codec outcomes land near equations (1)-(7).

    The deviation is the real codec behaviour the analytic model rounds
    off (odd >=3 parity upsets are detected, some SEC-DED triples become
    DUE instead of SDC), so the tolerance is loose but the magnitude and
    ordering must agree.
    """
    analytic = sum(
        target.size / (16 * 1024) * target.ace_fraction
        * region_error_probabilities(target.protection, mbu).harmful
        for target in TARGETS)
    measured = run_campaign(trials=120_000, seed=3)
    assert measured.vulnerability == pytest.approx(analytic, rel=0.25)


def test_campaign_dre_only_from_ecc():
    result = run_campaign(trials=20_000)
    from repro.ecc.codec import ErrorClass
    parity_counts = result.by_block.get("parity-block")
    if parity_counts is not None:
        assert parity_counts[ErrorClass.DRE] == 0
    assert result.dre > 0  # ECC corrects single flips


def test_campaign_deterministic_with_seed():
    first = run_campaign(trials=3000, seed=9)
    second = run_campaign(trials=3000, seed=9)
    assert first.sdc == second.sdc
    assert first.due == second.due


def test_campaign_rejects_overflowing_blocks():
    targets = (Target("big", Protection.SECDED, 64 * 1024, 0.1),)
    with pytest.raises(FaultInjectionError):
        run_campaign(trials=100, targets=targets)


def test_campaign_rate_helper():
    result = run_campaign(trials=1000)
    assert result.rate("sdc") == result.sdc / 1000
