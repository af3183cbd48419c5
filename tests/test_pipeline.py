"""Evaluation pipeline: content-hash keys, artifact store, context.

The guarantees under test:

* artifact keys are pure functions of content — same program bytes and
  config fields give the same key anywhere, and changing either changes
  the key,
* the disk store round-trips artifacts and treats corruption as a miss,
* an :class:`EvaluationContext` simulates each unique (workload,
  structure, config) artifact exactly once, no matter how many
  experiments consume it,
* a cache-backed run in a fresh process reproduces the fresh run's
  results byte-for-byte without executing a single simulation,
* every reader of a placement takes it from the evaluation, so the MDA
  runs once per resolved key (the preset config and the balanced
  thresholds name the same evaluation whether given or omitted) and
  never on a warm replay.
"""

import json
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

import repro
from repro.config import baseline_sram_config, ftspm_config, preset
from repro.core.priorities import OptimizationMode, thresholds_for_mode
from repro.pipeline import (
    ArtifactStore,
    EvaluationContext,
    artifact_key,
    canonical_json,
    config_fingerprint,
    digest,
    get_context,
    profile_fingerprint,
    program_fingerprint,
    set_context,
    using_context,
)
from repro.workloads.case_study import case_study_program

SCALE = {"array_words": 64, "outer_iterations": 1}


# --- keys --------------------------------------------------------------------

def test_canonical_json_is_order_independent():
    assert (canonical_json({"b": 1, "a": [2.5, None]})
            == canonical_json({"a": [2.5, None], "b": 1}))


def test_artifact_key_depends_on_kind_and_parts():
    assert artifact_key("profile", "x") == artifact_key("profile", "x")
    assert artifact_key("profile", "x") != artifact_key("plan", "x")
    assert artifact_key("profile", "x") != artifact_key("profile", "y")


def test_config_fingerprint_tracks_field_changes():
    assert config_fingerprint(ftspm_config()) == \
        config_fingerprint(ftspm_config())
    assert config_fingerprint(ftspm_config()) != \
        config_fingerprint(ftspm_config(4, 4, 8))
    assert config_fingerprint(ftspm_config()) != \
        config_fingerprint(baseline_sram_config())


def test_program_fingerprint_tracks_program_bytes():
    same_a = case_study_program(**SCALE)
    same_b = case_study_program(**SCALE)
    bigger = case_study_program(array_words=96, outer_iterations=1)
    assert program_fingerprint(same_a) == program_fingerprint(same_b)
    assert program_fingerprint(same_a) != program_fingerprint(bigger)


def test_profile_fingerprint_tracks_block_stats(case_profile):
    before = profile_fingerprint(case_profile)
    stats = next(iter(case_profile.blocks.values()))
    stats.reads += 1
    try:
        assert profile_fingerprint(case_profile) != before
    finally:
        stats.reads -= 1
    assert profile_fingerprint(case_profile) == before


# --- the store ---------------------------------------------------------------

def test_store_roundtrip_and_miss(tmp_path):
    store = ArtifactStore(tmp_path / "cache")
    key = artifact_key("test", 1)
    assert store.get(key, "missing") == "missing"
    store.put(key, {"value": 42})
    assert store.get(key) == {"value": 42}
    assert len(store) == 1
    assert (store.hits, store.misses, store.writes) == (1, 1, 1)


def test_store_treats_corruption_as_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    key = artifact_key("test", 2)
    store.put(key, [1, 2, 3])
    path = os.path.join(store.root, key[:2], key + ".pkl")
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")
    assert store.get(key, None) is None


# --- the context -------------------------------------------------------------

def test_context_memoizes_evaluations(case_profile):
    context = EvaluationContext()
    first = context.evaluation(case_profile, "ftspm")
    again = context.evaluation(case_profile, "ftspm")
    assert first is again
    assert context.counters.evaluations == 1
    assert context.counters.memo_hits >= 1
    # a different config is a different artifact
    other = context.evaluation(case_profile, "ftspm",
                               config=ftspm_config(4, 4, 8))
    assert other is not first


def test_context_simulates_each_artifact_exactly_once():
    context = EvaluationContext()
    context.case_runs(**SCALE)
    context.case_runs(**SCALE)  # fully served from the memo
    context.case_study(**SCALE)
    counters = context.counters
    # 1 profiling run + one run per structure, never repeated
    assert counters.simulations == 4
    assert counters.unique_simulations == counters.simulations


def test_repeated_lookups_fingerprint_no_config_again(monkeypatch):
    """The profiling platform and the structure presets are shared
    instances, so their fingerprints are cached by identity instead of
    pinning one cache entry per lookup."""
    from repro.eval.structures import STRUCTURES
    from repro.pipeline import context as context_module

    fingerprinted = []

    def counted(config):
        fingerprinted.append(config)
        return config_fingerprint(config)

    monkeypatch.setattr(context_module, "config_fingerprint", counted)
    context = EvaluationContext()

    def lookups():
        _, profile = context.case_study(**SCALE)
        for structure in STRUCTURES:
            context.evaluation(profile, structure)

    lookups()
    first = len(fingerprinted)
    lookups()
    assert len(fingerprinted) == first


def test_default_context_scoping():
    original = get_context()
    scoped = EvaluationContext()
    with using_context(scoped):
        assert get_context() is scoped
    assert get_context() is original
    previous = set_context(scoped)
    assert previous is original
    set_context(original)


def test_context_reuses_store_across_instances(tmp_path, case_profile):
    cold = EvaluationContext(store=tmp_path / "cache")
    fresh = cold.evaluation(case_profile, "ftspm")
    warm = EvaluationContext(store=tmp_path / "cache")
    cached = warm.evaluation(case_profile, "ftspm")
    assert warm.counters.evaluations == 0
    assert warm.counters.store_hits == 1
    assert cached.vulnerability == fresh.vulnerability
    assert cached.dynamic_energy == fresh.dynamic_energy
    assert profile_fingerprint(case_profile) == \
        profile_fingerprint(case_profile)


# --- cross-process reproduction ----------------------------------------------

_WORKER = """
import hashlib, json, sys
from repro.pipeline import EvaluationContext, canonical_json, \
    profile_fingerprint
context = EvaluationContext(store=sys.argv[1])
program, profile = context.case_study(array_words=64, outer_iterations=1)
evaluation = context.evaluation(profile, "ftspm")
_, _, runs = context.case_runs(array_words=64, outer_iterations=1)
payload = canonical_json({
    "profile": profile_fingerprint(profile),
    "vulnerability": evaluation.vulnerability,
    "dynamic_energy": evaluation.dynamic_energy,
    "static_energy": evaluation.static_energy,
    "cycles": evaluation.cycles,
    "runs": runs,
})
print(json.dumps({
    "digest": hashlib.sha256(payload.encode()).hexdigest(),
    "simulations": context.counters.simulations,
}))
"""


def _run_worker(cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    output = subprocess.run(
        [sys.executable, "-c", _WORKER, str(cache_dir)],
        check=True, capture_output=True, text=True, env=env)
    return json.loads(output.stdout)


def test_cached_results_byte_identical_across_processes(tmp_path):
    cache_dir = tmp_path / "cache"
    fresh = _run_worker(cache_dir)
    cached = _run_worker(cache_dir)
    assert fresh["simulations"] == 4          # computed everything
    assert cached["simulations"] == 0         # replayed everything
    assert cached["digest"] == fresh["digest"]


# --- whole-report single-pass guarantee --------------------------------------

@pytest.mark.slow
def test_report_simulates_each_pair_exactly_once():
    from repro.eval.report import generate_report

    context = EvaluationContext()
    with using_context(context):
        generate_report(
            array_words=96, outer_iterations=2,
            include=("table1", "table2", "table3", "fig2", "fig4", "fig5",
                     "fig6", "fig7", "fig8", "case-scalars",
                     "perf-overhead", "kernels-sweep"))
    counters = context.counters
    assert counters.simulations > 0
    assert counters.unique_simulations == counters.simulations


# --- one MDA run per key -----------------------------------------------------

#: report sections that read a placement: Table II's decision log, Figs.
#: 2 and 4's distributions, Fig. 5, the placed case-study runs and four
#: of the five ablations that read the MDA plan (ablation-interleaving
#: would add only Monte-Carlo time).  The 2/2/12 row of the region-size
#: sweep and the balanced row of the priority modes pass the inputs
#: Figs. 5-8 leave out.
_PLAN_READERS = ("table2", "fig2", "fig4", "fig5", "case-scalars",
                 "ablation-region-sizes", "ablation-priorities",
                 "ablation-reliability-awareness", "ablation-mbu")


def _resolved_inputs(profile, structure, config, thresholds):
    """What a plan is computed from, spelled one way: the structure's
    preset config stands in for None, and on FTSPM the balanced
    thresholds the MDA falls back to; the baselines' planners take no
    thresholds."""
    config = config or preset(structure)
    if structure == "ftspm":
        thresholds = digest(asdict(
            thresholds or thresholds_for_mode(OptimizationMode.BALANCED)))
    else:
        thresholds = None
    return (structure, profile_fingerprint(profile),
            config_fingerprint(config), thresholds)


@pytest.fixture
def plan_calls(monkeypatch):
    """Every ``plan_for_structure`` call, by its resolved inputs
    (structure first)."""
    from repro.eval import structures

    calls = []
    original = structures.plan_for_structure

    def counted(profile, structure, config=None, thresholds=None):
        calls.append(_resolved_inputs(profile, structure, config,
                                      thresholds))
        return original(profile, structure, config, thresholds)

    monkeypatch.setattr(structures, "plan_for_structure", counted)
    return calls


def test_omitted_and_explicit_inputs_share_one_evaluation(case_profile,
                                                          plan_calls):
    context = EvaluationContext()
    implicit = context.evaluation(case_profile, "ftspm")
    explicit = context.evaluation(
        case_profile, "ftspm", config=ftspm_config(),
        thresholds=thresholds_for_mode(OptimizationMode.BALANCED))
    assert explicit is implicit
    # the baselines' planners take no thresholds, so none reach the key
    sram = context.evaluation(case_profile, "baseline-sram")
    assert context.evaluation(
        case_profile, "baseline-sram", config=baseline_sram_config(),
        thresholds=thresholds_for_mode(OptimizationMode.RELIABILITY)) is sram
    assert [call[0] for call in plan_calls] == ["ftspm", "baseline-sram"]


def test_report_plans_each_key_once_and_never_when_warm(tmp_path,
                                                         plan_calls):
    from repro.eval.report import generate_report

    def report():
        context = EvaluationContext(store=tmp_path / "cache")
        with using_context(context):
            text = generate_report(include=_PLAN_READERS, **SCALE)
        return context, text

    cold, cold_text = report()
    assert cold.counters.evaluations > 0
    assert len(plan_calls) == cold.counters.evaluations
    assert len(plan_calls) == len(set(plan_calls))
    del plan_calls[:]
    warm, warm_text = report()
    assert plan_calls == []
    assert warm.counters.computes == 0
    assert warm.store.writes == 0
    assert warm_text == cold_text


def test_campaign_spec_and_evaluation_share_one_plan(tmp_path, plan_calls):
    from repro.campaign import CampaignSpec

    context = EvaluationContext(store=tmp_path / "cache")
    profile = context.synthetic_profile("sha")
    with using_context(context):
        CampaignSpec.from_structure(profile, "ftspm", trials=1000, seed=7)
        context.evaluation(profile, "ftspm")
    assert [call[0] for call in plan_calls] == ["ftspm"]


# --- one placed-run artifact -------------------------------------------------

def test_kernels_sweep_replays_from_a_filled_store(tmp_path, monkeypatch):
    from repro.eval.experiments import experiment_kernels_sweep
    from repro.sim.machine import Machine

    with using_context(EvaluationContext(store=tmp_path / "cache")):
        cold = experiment_kernels_sweep(kernels=["crc32"])
    machines = []
    original = Machine.run

    def counted(self, *args, **kwargs):
        machines.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Machine, "run", counted)
    warm = EvaluationContext(store=tmp_path / "cache")
    with using_context(warm):
        replay = experiment_kernels_sweep(kernels=["crc32"])
    assert machines == []
    assert warm.counters.simulations == 0
    assert replay.data["runs"] == 3
    assert replay.data["verified"] == replay.data["runs"]
    assert replay.text == cold.text


def test_expected_values_are_part_of_the_simulation_key():
    context = EvaluationContext()
    build = context.kernel_build("crc32")
    profile = context.profile_of(build.program)
    checked = context.simulation(build.program, profile, "ftspm",
                                 expected=build.expected)
    wrong = {symbol: value ^ 1 for symbol, value in build.expected.items()}
    mismatch = context.simulation(build.program, profile, "ftspm",
                                  expected=wrong)
    assert checked["verified"] and not mismatch["verified"]
    assert mismatch["cycles"] == checked["cycles"]
    # the profiling run plus one run per distinct key
    assert context.counters.simulations == 3
    assert context.counters.unique_simulations == 3
