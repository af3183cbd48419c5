"""Integration: the paper's headline claims, end to end.

Each test regenerates an evaluation artifact and asserts the *shape* the
paper reports — who wins and by roughly what factor.  Absolute numbers
differ (our substrate is an analytic simulator); EXPERIMENTS.md records
the measured values next to the paper's.
"""


import pytest

from conftest import (
    check_case_dynamic_reduction,
    check_case_not_slower,
    check_case_reliability_gap,
    check_case_static_reduction,
    check_fig5_band,
    check_fig6_band,
    check_fig7_band,
    check_fig8_band,
    check_perf_overhead_band,
    check_static_power_band,
)
from repro.campaign import CampaignRunner, CampaignSpec
from repro.core.online import build_machine
from repro.eval import run_experiment
from repro.eval.structures import STRUCTURES, evaluate_structure
from repro.workloads import mibench_names, synthetic_profile

_SMALL = dict(array_words=96, outer_iterations=2)


# --- Abstract: "reduces the SPM vulnerability by about 7x" ------------------

def test_claim_vulnerability_reduction_about_7x():
    check_fig5_band(run_experiment("fig5").data)


# --- Abstract: "dynamic energy 77% less than pure NVM, 47% less than SRAM" --

def test_claim_dynamic_energy_reductions():
    check_fig7_band(run_experiment("fig7").data)


# --- Section V: static energy and power ---------------------------------------

def test_claim_static_power_scalars_exact():
    check_static_power_band(run_experiment("static-power").data)


def test_claim_static_energy_reduction():
    check_fig6_band(run_experiment("fig6").data)


# --- Section V: endurance "three orders of magnitude" ---------------------------

def test_claim_endurance_improvement():
    check_fig8_band(run_experiment("fig8").data)


# --- Section V: performance overhead "less than 1%" ------------------------------

def test_claim_performance_overhead_negligible():
    check_perf_overhead_band(run_experiment("perf-overhead").data)


# --- Section IV: case-study scalars (full simulation) -----------------------------

@pytest.fixture(scope="module")
def case_scalars():
    return run_experiment("case-scalars", **_SMALL).data


def test_claim_case_reliability_gap(case_scalars):
    check_case_reliability_gap(case_scalars)


def test_claim_case_baseline_reliability(case_scalars):
    # paper: the SEC-DED SRAM baseline is 62% reliable, 1 - (P(2) + P(>=3))
    assert case_scalars["reliability_sram"] == pytest.approx(0.62,
                                                             abs=0.005)


def test_claim_case_dynamic_energy_reduction(case_scalars):
    check_case_dynamic_reduction(case_scalars)


def test_claim_case_static_energy_reduction(case_scalars):
    check_case_static_reduction(case_scalars)


def test_claim_case_not_slower(case_scalars):
    check_case_not_slower(case_scalars)


# --- cross-check: Monte-Carlo injection vs analytic AVF ----------------------------

def _campaign(profile, structure, trials, seed):
    """Inject through the shipped campaign path (batch evaluator) over
    the structure's Fig. 5 region surface."""
    spec = CampaignSpec.from_structure(profile, structure, trials=trials,
                                       seed=seed)
    return CampaignRunner(spec).run()


def test_injection_confirms_structure_ordering():
    """Measured (codec-level) vulnerability must preserve the ordering
    the analytic model reports: FTSPM well below the SRAM baseline,
    with the two 95% Wilson intervals disjoint."""
    profile = synthetic_profile("susan")
    intervals = {
        structure: _campaign(profile, structure, trials=60_000,
                             seed=99).interval("harmful")
        for structure in ("ftspm", "baseline-sram")}
    assert intervals["ftspm"].high < intervals["baseline-sram"].low


def test_sttram_injection_always_benign():
    profile = synthetic_profile("susan")
    summary = _campaign(profile, "baseline-sttram", trials=20_000, seed=5)
    assert summary.result.trials == 20_000
    assert summary.result.harmful == 0


# --- whole-suite sanity --------------------------------------------------------------

def test_every_benchmark_evaluates_on_every_structure():
    for name in mibench_names():
        profile = synthetic_profile(name)
        for structure in STRUCTURES:
            evaluation = evaluate_structure(profile, structure)
            assert evaluation.cycles > 0
            assert 0.0 <= evaluation.vulnerability <= 1.0


def test_full_pipeline_crc32_kernel(crc_build, crc_profile, ftspm_cfg):
    """Real kernel through profile -> MDA -> FTSPM run -> golden check."""
    from repro.core.mda import MappingDeterminer
    result = MappingDeterminer(ftspm_cfg).map(crc_profile)
    machine = build_machine(crc_build.program, ftspm_cfg, result.plan,
                            crc_profile)
    machine.run()
    for symbol, expected in crc_build.expected.items():
        address = crc_build.program.symbol(symbol)
        got = int.from_bytes(machine.memory.peek_bytes(address, 4),
                             "little")
        assert got == expected
