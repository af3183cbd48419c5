"""Campaign engine: sharding determinism, merging, checkpoints, CIs.

The hard guarantees under test:

* same ``(seed, trials)`` gives identical aggregate counts for any
  worker count (``jobs=1`` vs ``jobs=4``),
* ``CampaignResult.merge`` is associative, so shards compose,
* a campaign killed mid-run and resumed reproduces the uninterrupted
  aggregate bit-for-bit,
* failed shards degrade the report gracefully (partial n, wider CIs).
"""

import json

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ConfidenceInterval,
    RunDirectory,
    analytic_vulnerability,
    spawn_seed,
    spawn_seeds,
    wilson_interval,
    z_value,
)
from repro.campaign.batch.engine import TrialInjector
from repro.campaign.runner import FAIL_SHARDS_ENV
from repro.config import Protection
from repro.errors import CampaignError
from repro.faults import CampaignResult, InjectionCampaign, Target
from repro.ecc.codec import ErrorClass
from repro.workloads import synthetic_profile


def canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def sha_profile():
    return synthetic_profile("sha")


@pytest.fixture(scope="module")
def sha_spec(sha_profile):
    return CampaignSpec.from_structure(
        sha_profile, "ftspm", trials=12_000, seed=0xBEEF, shard_size=2_000)


@pytest.fixture(scope="module")
def sha_reference(sha_spec):
    """Uninterrupted serial run every other mode must reproduce."""
    return CampaignRunner(sha_spec, jobs=1).run()


# --- seed spawning -----------------------------------------------------------

def test_spawn_seed_deterministic():
    assert spawn_seed(42, 3) == spawn_seed(42, 3)
    assert spawn_seeds(42, 5) == [spawn_seed(42, i) for i in range(5)]


def test_spawn_seed_distinct_across_index_and_root():
    seeds = spawn_seeds(7, 100) + spawn_seeds(8, 100)
    assert len(set(seeds)) == 200


def test_spawn_seeds_prefix_stable():
    # growing the campaign must not re-seed existing shards
    assert spawn_seeds(3, 10) == spawn_seeds(3, 20)[:10]


# --- Wilson intervals --------------------------------------------------------

def test_z_value_95():
    assert z_value(0.95) == pytest.approx(1.959964, abs=1e-5)


def test_wilson_known_value():
    # canonical reference: 10/100 at 95% -> [0.0552, 0.1744]
    interval = wilson_interval(10, 100)
    assert interval.point == pytest.approx(0.1)
    assert interval.low == pytest.approx(0.0552, abs=5e-4)
    assert interval.high == pytest.approx(0.1744, abs=5e-4)


def test_wilson_stays_in_unit_interval():
    zero = wilson_interval(0, 50)
    full = wilson_interval(50, 50)
    assert zero.low == 0.0 and zero.high > 0
    assert full.high == 1.0 and full.low < 1
    assert zero.brackets(0.0) and full.brackets(1.0)


def test_wilson_zero_trials_degenerates():
    interval = wilson_interval(0, 0)
    assert (interval.low, interval.high) == (0.0, 1.0)


def test_wilson_narrows_with_n():
    assert (wilson_interval(100, 1000).half_width
            < wilson_interval(10, 100).half_width)


def test_wilson_rejects_bad_counts():
    with pytest.raises(CampaignError):
        wilson_interval(5, 3)
    with pytest.raises(CampaignError):
        z_value(1.5)


# --- CampaignResult composition ----------------------------------------------

def make_result(sdc=1, due=2, blocks=("a",)):
    result = CampaignResult(trials=10, none=10 - sdc - due,
                            sdc=sdc, due=due)
    for block in blocks:
        counts = {klass: 0 for klass in ErrorClass}
        counts[ErrorClass.SDC] = sdc
        result.by_block[block] = counts
    return result


def test_merge_sums_counts_and_blocks():
    merged = make_result(blocks=("a",)).merge(make_result(blocks=("a", "b")))
    assert merged.trials == 20
    assert merged.sdc == 2 and merged.due == 4
    assert merged.by_block["a"][ErrorClass.SDC] == 2
    assert merged.by_block["b"][ErrorClass.SDC] == 1


def test_merge_is_associative():
    a, b, c = make_result(1, 0), make_result(2, 3), make_result(0, 5)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    assert canonical(left) == canonical(right)


def test_merge_identity_and_sum():
    result = make_result()
    assert canonical(result.merge(CampaignResult())) == canonical(result)
    total = sum([make_result(), make_result(), make_result()])
    assert total.trials == 30


def test_merge_does_not_mutate_operands():
    a, b = make_result(blocks=("a",)), make_result(blocks=("a",))
    a.merge(b)
    assert a.by_block["a"][ErrorClass.SDC] == 1


def test_merge_rejects_non_result():
    with pytest.raises(Exception):
        make_result().merge({"trials": 3})


def test_result_dict_round_trip():
    result = make_result(blocks=("a", "b"))
    rebuilt = CampaignResult.from_dict(
        json.loads(json.dumps(result.to_dict())))
    assert canonical(rebuilt) == canonical(result)
    assert rebuilt.by_block["a"][ErrorClass.DUE] == 0


# --- CampaignSpec ------------------------------------------------------------

def test_spec_shard_arithmetic():
    spec = CampaignSpec(
        targets=(Target("x", Protection.SECDED, 1024, 0.5),),
        total_spm_bytes=4096, trials=50_001, shard_size=25_000)
    assert spec.shard_count == 3
    assert [spec.shard_trials(i) for i in range(3)] == [25_000, 25_000, 1]
    with pytest.raises(CampaignError):
        spec.shard_trials(3)


def test_spec_validation():
    target = Target("x", Protection.SECDED, 1024, 0.5)
    with pytest.raises(CampaignError):
        CampaignSpec(targets=(target,), total_spm_bytes=4096, trials=0)
    with pytest.raises(CampaignError):
        CampaignSpec(targets=(target,), total_spm_bytes=512, trials=10)


def test_spec_fingerprint_tracks_identity(sha_profile, sha_spec):
    same = CampaignSpec.from_structure(
        sha_profile, "ftspm", trials=12_000, seed=0xBEEF, shard_size=2_000)
    other_seed = CampaignSpec.from_structure(
        sha_profile, "ftspm", trials=12_000, seed=1, shard_size=2_000)
    assert same.fingerprint() == sha_spec.fingerprint()
    assert other_seed.fingerprint() != sha_spec.fingerprint()


def test_spec_manifest_round_trip(sha_spec):
    rebuilt = CampaignSpec.from_manifest(
        json.loads(json.dumps(sha_spec.to_manifest())))
    assert rebuilt == sha_spec
    assert rebuilt.fingerprint() == sha_spec.fingerprint()


def test_spec_from_entries_matches_injector(sha_profile):
    from repro.eval.structures import plan_for_structure
    _, plan, _ = plan_for_structure(sha_profile, "ftspm")
    entries = plan.avf_entries(sha_profile)
    spec = CampaignSpec.from_entries(
        entries, plan.total_spm_bytes(), sha_profile.total_cycles,
        trials=1000)
    reference = InjectionCampaign(
        entries, plan.total_spm_bytes(), sha_profile.total_cycles)
    assert list(spec.targets) == list(reference.targets)
    assert spec.total_spm_bytes == plan.total_spm_bytes()


# --- runner determinism ------------------------------------------------------

def test_serial_run_is_deterministic(sha_spec, sha_reference):
    again = CampaignRunner(sha_spec, jobs=1).run()
    assert canonical(again.result) == canonical(sha_reference.result)


def test_jobs4_identical_to_jobs1(sha_spec, sha_reference):
    parallel = CampaignRunner(sha_spec, jobs=4).run()
    assert canonical(parallel.result) == canonical(sha_reference.result)


def test_aggregate_equals_manual_shard_merge(sha_spec, sha_reference):
    manual = CampaignResult()
    for index in range(sha_spec.shard_count):
        shard = TrialInjector(sha_spec, index).run(
            trials=sha_spec.shard_trials(index))
        manual = manual.merge(shard)
    assert canonical(manual) == canonical(sha_reference.result)


def test_different_seed_changes_counts(sha_profile, sha_spec, sha_reference):
    other = CampaignSpec.from_structure(
        sha_profile, "ftspm", trials=12_000, seed=1234, shard_size=2_000)
    result = CampaignRunner(other, jobs=1).run()
    assert canonical(result.result) != canonical(sha_reference.result)


def test_runner_rejects_bad_parameters(sha_spec):
    with pytest.raises(CampaignError):
        CampaignRunner(sha_spec, jobs=0)
    with pytest.raises(CampaignError):
        CampaignRunner(sha_spec, resume=True)  # resume without run_dir


# --- checkpoint / resume -----------------------------------------------------

class KillAfter:
    """Progress hook that simulates a hard kill after N finished shards."""

    def __init__(self, shards):
        self.shards = shards

    def __call__(self, event):
        if event.kind == "shard-ok" and event.shards_done >= self.shards:
            raise RuntimeError("simulated kill")


def test_resume_after_kill_matches_uninterrupted(
        tmp_path, sha_spec, sha_reference):
    run_dir = str(tmp_path / "run")
    with pytest.raises(RuntimeError):
        CampaignRunner(sha_spec, jobs=1, run_dir=run_dir,
                       progress=KillAfter(2)).run()
    journal = RunDirectory(run_dir).completed_shards()
    assert len(journal) == 2  # only the finished shards were persisted
    resumed = CampaignRunner(sha_spec, jobs=1, run_dir=run_dir,
                             resume=True).run()
    assert canonical(resumed.result) == canonical(sha_reference.result)
    origins = {r.index: r.resumed for r in resumed.records}
    assert origins[0] and origins[1] and not origins[2]


def test_resume_is_idempotent_when_complete(tmp_path, sha_spec,
                                            sha_reference):
    run_dir = str(tmp_path / "run")
    CampaignRunner(sha_spec, jobs=1, run_dir=run_dir).run()
    resumed = CampaignRunner(sha_spec, jobs=1, run_dir=run_dir,
                             resume=True).run()
    assert resumed.fresh_trials == 0
    assert canonical(resumed.result) == canonical(sha_reference.result)


def test_restart_without_resume_flag_refuses(tmp_path, sha_spec):
    run_dir = str(tmp_path / "run")
    CampaignRunner(sha_spec, jobs=1, run_dir=run_dir).run()
    with pytest.raises(CampaignError):
        CampaignRunner(sha_spec, jobs=1, run_dir=run_dir).run()


def test_resume_with_different_spec_refuses(tmp_path, sha_profile,
                                            sha_spec):
    run_dir = str(tmp_path / "run")
    CampaignRunner(sha_spec, jobs=1, run_dir=run_dir).run()
    other = CampaignSpec.from_structure(
        sha_profile, "ftspm", trials=12_000, seed=999, shard_size=2_000)
    with pytest.raises(CampaignError):
        CampaignRunner(other, jobs=1, run_dir=run_dir, resume=True).run()


def test_resume_missing_directory_refuses(tmp_path, sha_spec):
    with pytest.raises(CampaignError):
        CampaignRunner(sha_spec, jobs=1,
                       run_dir=str(tmp_path / "nowhere"),
                       resume=True).run()


def test_truncated_journal_line_is_ignored(tmp_path, sha_spec,
                                           sha_reference):
    run_dir = str(tmp_path / "run")
    CampaignRunner(sha_spec, jobs=1, run_dir=run_dir).run()
    directory = RunDirectory(run_dir)
    with open(directory.shards_path, "a") as handle:
        handle.write('{"shard": 99, "status": "o')  # kill mid-write
    assert set(directory.completed_shards()) == set(
        range(sha_spec.shard_count))


# --- failure handling --------------------------------------------------------

def test_permanent_shard_failure_reports_partial(sha_spec, sha_reference,
                                                 monkeypatch):
    monkeypatch.setenv(FAIL_SHARDS_ENV, "1")
    summary = CampaignRunner(sha_spec, jobs=1, max_retries=1).run()
    assert summary.failed_shards == [1]
    assert not summary.complete
    assert summary.trials_completed == (
        sha_spec.trials - sha_spec.shard_trials(1))
    failed = summary.records[1]
    assert failed.status == "failed"
    assert failed.attempts == 2  # first try + 1 retry
    assert "injected" in failed.error
    # fewer completed trials -> wider interval
    assert (summary.interval("harmful").half_width
            > sha_reference.interval("harmful").half_width)
    assert "failed" in summary.outcome_table()


def test_permanent_shard_failure_in_pool(sha_spec, monkeypatch):
    monkeypatch.setenv(FAIL_SHARDS_ENV, "0,4")
    summary = CampaignRunner(sha_spec, jobs=3, max_retries=1).run()
    assert summary.failed_shards == [0, 4]
    assert summary.trials_completed == sha_spec.trials - 2 * 2_000
    ok = [r for r in summary.records if r.status == "ok"]
    assert len(ok) == sha_spec.shard_count - 2


def test_transient_failure_is_retried(sha_spec, sha_reference,
                                      monkeypatch):
    import repro.campaign.runner as runner_module
    real = runner_module._execute_shard
    calls = {"failed": 0}

    def flaky(spec, index):
        if index == 2 and calls["failed"] == 0:
            calls["failed"] += 1
            raise RuntimeError("transient worker death")
        return real(spec, index)

    monkeypatch.setattr(runner_module, "_execute_shard", flaky)
    summary = CampaignRunner(sha_spec, jobs=1, max_retries=2).run()
    assert calls["failed"] == 1
    assert summary.complete
    assert summary.records[2].attempts == 2
    # the retried shard reran with its own seed: aggregate unchanged
    assert canonical(summary.result) == canonical(sha_reference.result)


# --- progress / metrics ------------------------------------------------------

def test_progress_events_cover_lifecycle(sha_spec):
    events = []
    summary = CampaignRunner(sha_spec, jobs=1,
                             progress=events.append).run()
    kinds = [event.kind for event in events]
    assert kinds[0] == "start" and kinds[-1] == "done"
    assert kinds.count("shard-ok") == sha_spec.shard_count
    final = events[-1]
    assert final.trials_done == sha_spec.trials
    assert final.throughput > 0
    assert summary.throughput > 0
    assert "per-shard breakdown" in summary.shard_table()


def test_progress_printer_renders(sha_spec, capsys):
    import io
    from repro.campaign import ProgressPrinter
    stream = io.StringIO()
    CampaignRunner(sha_spec, jobs=1,
                   progress=ProgressPrinter(stream)).run()
    text = stream.getvalue()
    assert "campaign:" in text
    assert "trials/s" in text
    assert "campaign done" in text


# --- statistical closure against the analytic model --------------------------

def test_ci_brackets_fig5_analytic_ftspm(sha_profile):
    spec = CampaignSpec.from_structure(
        sha_profile, "ftspm", trials=60_000, seed=0xF7F7)
    summary = CampaignRunner(spec, jobs=1).run()
    interval = summary.interval("harmful")
    analytic = analytic_vulnerability(sha_profile, "ftspm")
    assert interval.brackets(analytic)
    assert interval.half_width < 0.01


def test_ci_brackets_uniform_baseline():
    profile = synthetic_profile("qsort")
    spec = CampaignSpec.from_structure(
        profile, "baseline-sram", trials=30_000, seed=3)
    summary = CampaignRunner(spec, jobs=1).run()
    analytic = analytic_vulnerability(profile, "baseline-sram")
    assert analytic == pytest.approx(0.38)  # the paper's constant
    assert summary.interval("harmful").brackets(analytic)


def test_sttram_baseline_measures_zero():
    profile = synthetic_profile("sha")
    spec = CampaignSpec.from_structure(
        profile, "baseline-sttram", trials=5_000, seed=1)
    summary = CampaignRunner(spec, jobs=1).run()
    interval = summary.interval("harmful")
    assert interval.point == 0.0
    assert isinstance(interval, ConfidenceInterval)


# --- experiments integration hook --------------------------------------------

def test_fig5_default_shape_unchanged():
    from repro.eval import run_experiment
    result = run_experiment("fig5")
    assert result.headers == ["Benchmark", "FTSPM", "Pure SRAM",
                              "Ratio (SRAM/FTSPM)"]
    assert "measured" not in result.data


def test_fig5_measured_hook():
    from repro.eval import run_experiment
    result = run_experiment("fig5", measured_trials=2_000,
                            measured_seed=7)
    assert result.headers[-2:] == ["Measured (MC)", "95% CI"]
    measured = result.data["measured"]
    benchmarks = [row[0] for row in result.rows[:-1]]  # minus geomean row
    assert set(measured) == set(benchmarks)
    for entry in measured.values():
        assert entry["low"] <= entry["vulnerability"] <= entry["high"]


def test_case_scalars_measured_hook():
    from repro.eval import run_experiment
    result = run_experiment("case-scalars", array_words=96,
                            outer_iterations=2, measured_trials=20_000)
    measured = result.data["measured_vulnerability"]
    assert measured["ftspm"]["brackets_analytic"]
    assert measured["baseline-sram"]["brackets_analytic"]
    assert result.rows[-1][0] == "measured vulnerability (MC)"


# --- CLI ---------------------------------------------------------------------

def run_cli(capsys, *argv):
    from repro.cli import main
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_campaign_smoke(capsys):
    code, out, _ = run_cli(capsys, "campaign", "sha",
                           "--trials", "6000", "--shard-size", "2000",
                           "--seed", "42", "--no-progress")
    assert code == 0
    assert "Wilson CI" in out
    assert "CI brackets analytic" in out
    assert "per-shard breakdown" in out


def test_cli_campaign_checkpoint_and_resume(capsys, tmp_path):
    run_dir = str(tmp_path / "run")
    args = ("campaign", "sha", "--trials", "6000",
            "--shard-size", "2000", "--seed", "42", "--no-progress",
            "--out", run_dir)
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code, again, _ = run_cli(capsys, *args, "--resume")
    assert code == 0
    # all shards resumed; measured numbers identical to the first run
    assert "resumed" in again

    def measured_lines(text):
        return [line for line in text.splitlines()
                if line.startswith(("measured vulnerability",
                                    "analytic vulnerability",
                                    "CI brackets analytic"))
                or line.lstrip().startswith(("benign", "DRE", "DUE",
                                             "SDC"))]

    assert measured_lines(first) == measured_lines(again)


def test_cli_campaign_resume_requires_out(capsys):
    code, _, err = run_cli(capsys, "campaign", "sha", "--resume",
                           "--no-progress")
    assert code == 1
    assert "--out" in err


def test_cli_inject_jobs_flag(capsys):
    code, out, _ = run_cli(capsys, "inject", "sha",
                           "--trials", "4000", "--jobs", "2",
                           "--seed", "9")
    assert code == 0
    assert "Wilson CI" in out
    assert "jobs/shards" in out


def test_cli_inject_one_answer_per_seed(capsys):
    """``--jobs 1`` and ``--jobs 2`` run one campaign path, so a seed
    prints the same counts and interval whatever the worker count."""
    outputs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "inject", "sha", "--trials",
                               "20000", "--seed", "7", "--jobs", jobs)
        assert code == 0
        outputs.append([line for line in out.splitlines()
                        if not line.startswith("jobs/shards:")])
    assert outputs[0] == outputs[1]
    assert any(line.startswith("95% Wilson CI") for line in outputs[0])
