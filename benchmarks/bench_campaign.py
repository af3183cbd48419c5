"""Campaign throughput: injector speedup and worker-pool scaling.

Two acceptance bars, both recorded machine-readably in
``benchmarks/reports/BENCH_campaign.json`` so CI can archive the
evidence:

* the vectorized ``batch`` injector must deliver a >=10x ``repro
  campaign`` throughput improvement over the classic per-trial
  sampler (the pre-batch baseline),
* the worker pool must keep its >=2x wall-clock speedup at 4 workers
  on a 2M-trial campaign versus the serial path.

The injector comparison times the per-trial ``TrialInjector`` oracle
directly, since campaigns only ever run the batch evaluator.  The
scaling campaign is 2M trials in 8 shards of 250k: the batch evaluator
runs ~10x the trial evaluator's rate, so each shard does about the
compute a 25k-trial shard did under the trial evaluator, and pool
start-up does not decide the ratio.  On a box without enough cores
the scaling test still verifies the more important invariant -- the
parallel aggregate is byte-identical to the serial one -- and records
the measured numbers honestly instead of asserting a speedup the
hardware cannot produce.

Runs standalone (``python benchmarks/bench_campaign.py``) or under
pytest alongside the other benchmarks.
"""

from __future__ import annotations

import json
import os
import time

try:
    import pytest
except ImportError:  # standalone script run
    pytest = None

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.batch.engine import BatchInjector, TrialInjector
from repro.campaign.batch.equivalence import campaign_outcome
from repro.faults import CampaignResult, InjectionCampaign
from repro.workloads import synthetic_profile

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")
BENCH_JSON = "BENCH_campaign.json"

SCALING_TRIALS = 2_000_000
SCALING_SHARD = 250_000
JOBS = 4

INJECTOR_TRIALS = 400_000
INJECTOR_SHARD = 100_000
SPEEDUP_FLOOR = 10.0
ROUNDS = 3


def _spec(trials, shard_size=None):
    return CampaignSpec.from_structure(
        synthetic_profile("sha"), "ftspm", trials=trials, seed=0xF7F7,
        **({} if shard_size is None else {"shard_size": shard_size}))


# --- injector throughput ----------------------------------------------------

def _time_injector(spec, injector):
    """Best-of-ROUNDS seconds to evaluate every shard serially."""
    best = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        total = campaign_outcome(spec, injector)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, total


def _time_classic(spec):
    """The pre-batch baseline: the classic per-trial sampler."""
    best = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        total = CampaignResult()
        for index in range(spec.shard_count):
            campaign = InjectionCampaign.from_targets(
                spec.targets, spec.total_spm_bytes, mbu=spec.build_mbu(),
                seed=spec.shard_seed(index))
            total = total.merge(campaign.run(trials=spec.shard_trials(index)))
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def measure_injectors():
    spec = _spec(INJECTOR_TRIALS, shard_size=INJECTOR_SHARD)
    # a lighter classic run -- the baseline is slow and its per-trial
    # cost is constant, so fewer trials time it just as well
    classic_spec = _spec(INJECTOR_TRIALS // 4, shard_size=INJECTOR_SHARD)
    classic_s = _time_classic(classic_spec)
    trial_s, trial_total = _time_injector(spec, TrialInjector)
    batch_s, batch_total = _time_injector(spec, BatchInjector)
    assert trial_total.to_dict() == batch_total.to_dict(), (
        "trial and batch injectors diverged on the benchmark campaign")
    classic_rate = classic_spec.trials / classic_s
    trial_rate = spec.trials / trial_s
    batch_rate = spec.trials / batch_s
    return {
        "workload": "sha",
        "structure": "ftspm",
        "trials": spec.trials,
        "shards": spec.shard_count,
        "rounds": ROUNDS,
        "classic_trials_per_s": round(classic_rate),
        "trial_trials_per_s": round(trial_rate),
        "batch_trials_per_s": round(batch_rate),
        "speedup_vs_classic": round(batch_rate / classic_rate, 2),
        "speedup_vs_trial": round(batch_rate / trial_rate, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "aggregates": "identical (trial vs batch)",
    }


def persist(injectors, scaling=None):
    payload = {"schema": 1, "injectors": injectors}
    if scaling is not None:
        payload["scaling"] = scaling
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, BENCH_JSON)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def render(injectors):
    return "\n".join([
        "campaign injector throughput (sha on ftspm, %d trials)"
        % injectors["trials"],
        "  classic sampler : %9d trials/s"
        % injectors["classic_trials_per_s"],
        "  trial injector  : %9d trials/s"
        % injectors["trial_trials_per_s"],
        "  batch injector  : %9d trials/s"
        % injectors["batch_trials_per_s"],
        "  speedup         : %.1fx vs classic, %.1fx vs trial "
        "(floor: %.0fx)" % (injectors["speedup_vs_classic"],
                            injectors["speedup_vs_trial"],
                            injectors["speedup_floor"]),
    ])


def test_batch_injector_speedup():
    injectors = measure_injectors()
    persist(injectors)
    assert injectors["speedup_vs_classic"] >= SPEEDUP_FLOOR, (
        "batch injector delivered %.1fx over the classic sampler; "
        "the acceptance floor is %.0fx"
        % (injectors["speedup_vs_classic"], SPEEDUP_FLOOR))


# --- worker-pool scaling ----------------------------------------------------

def _timed_run(spec, jobs):
    start = time.perf_counter()
    summary = CampaignRunner(spec, jobs=jobs).run()
    return summary, time.perf_counter() - start


def measure_scaling(parallel_run=None):
    spec = _spec(SCALING_TRIALS, shard_size=SCALING_SHARD)
    serial, serial_elapsed = _timed_run(spec, 1)
    if parallel_run is None:
        parallel, parallel_elapsed = _timed_run(spec, JOBS)
    else:
        parallel, parallel_elapsed = parallel_run(spec)

    canonical = lambda summary: json.dumps(
        summary.result.to_dict(), sort_keys=True)
    assert canonical(parallel) == canonical(serial)

    cores = os.cpu_count() or 1
    return {
        "trials": SCALING_TRIALS,
        "shards": spec.shard_count,
        "jobs": JOBS,
        "injector": "batch",
        "available_cores": cores,
        "serial_s": round(serial_elapsed, 3),
        "pool_s": round(parallel_elapsed, 3),
        "speedup": round(serial_elapsed / parallel_elapsed, 2),
        "aggregates": "identical (serial vs jobs=%d)" % JOBS,
    }


def test_campaign_scaling_2m(benchmark):
    def parallel_run(spec):
        summary = benchmark.pedantic(
            lambda: CampaignRunner(spec, jobs=JOBS).run(),
            rounds=1, iterations=1)
        return summary, summary.elapsed

    scaling = measure_scaling(parallel_run)
    lines = [
        "campaign scaling benchmark",
        "==========================",
        "trials:            %d" % scaling["trials"],
        "shards:            %d" % scaling["shards"],
        "injector:          %s" % scaling["injector"],
        "available cores:   %d" % scaling["available_cores"],
        "serial (jobs=1):   %.2f s  (%.0f trials/s)"
        % (scaling["serial_s"], scaling["trials"] / scaling["serial_s"]),
        "pool   (jobs=%d):   %.2f s  (%.0f trials/s)"
        % (JOBS, scaling["pool_s"], scaling["trials"] / scaling["pool_s"]),
        "speedup:           %.2fx" % scaling["speedup"],
        "aggregates:        byte-identical (serial vs jobs=%d)" % JOBS,
    ]
    os.makedirs(REPORT_DIR, exist_ok=True)
    with open(os.path.join(REPORT_DIR, "campaign-scaling.txt"),
              "w") as handle:
        handle.write("\n".join(lines) + "\n")

    # fold the scaling numbers into the machine-readable report too
    injectors = None
    path = os.path.join(REPORT_DIR, BENCH_JSON)
    if os.path.exists(path):
        with open(path) as handle:
            injectors = json.load(handle).get("injectors")
    if injectors is not None:
        persist(injectors, scaling)

    if scaling["available_cores"] >= JOBS:
        assert scaling["speedup"] >= 2.0, (
            "expected >=2x speedup at %d workers on a %d-core machine, "
            "got %.2fx" % (JOBS, scaling["available_cores"],
                           scaling["speedup"]))
    else:
        pytest.skip(
            "only %d core(s) available: cannot demonstrate a %d-worker "
            "speedup (measured %.2fx); aggregate equality verified, "
            "numbers recorded in campaign-scaling.txt"
            % (scaling["available_cores"], JOBS, scaling["speedup"]))


if __name__ == "__main__":
    outcome = measure_injectors()
    print(render(outcome))
    print("\nwrote %s" % persist(outcome))
