"""Campaign throughput: injector speedup and worker-pool scaling.

Two acceptance bars, both recorded machine-readably in
``benchmarks/reports/BENCH_campaign.json`` so CI can archive the
evidence:

* the vectorized ``batch`` injector must deliver at least
  ``SPEEDUP_FLOOR`` times the trials/s of the per-trial
  ``TrialInjector`` oracle on the same sampled stream,
* the worker pool must keep its >=2x wall-clock speedup at 4 workers
  on a 2M-trial campaign versus the serial path.

The injector comparison times the ``TrialInjector`` oracle directly,
since campaigns only ever run the batch evaluator.  It runs on two
surfaces.  The gated row is sha on ftspm, where about 98% of trials
land on immune or dead cells and are fast-forwarded, so it mostly
times the strike geometry.  The all-live row is sha on baseline-sram,
where every trial reaches a codec, so it times the cluster draw and
the classifier; it is recorded, with no floor.  The scaling
campaign is 2M trials in 8 shards of 250k: the batch evaluator
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
from repro.campaign.batch.surface import StrikeSurface
from repro.workloads import synthetic_profile

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")
BENCH_JSON = "BENCH_campaign.json"

SCALING_TRIALS = 2_000_000
SCALING_SHARD = 250_000
JOBS = 4

INJECTOR_TRIALS = 400_000
INJECTOR_SHARD = 100_000
#: batch over trial trials/s.  Over 24 runs on a 2-vCPU host the ratio
#: read 6.1-12.2x, so the floor sits below the slowest run; and there
#: the trial oracle ran 2.1-3.5x the trials/s of the per-trial
#: ``random.Random`` sampler this gate used to compare against, so 5x
#: demands at least the batch throughput the former >=10x floor did.
SPEEDUP_FLOOR = 5.0
ROUNDS = 3
#: one draw chunk: on the all-live surface the trial oracle classifies
#: every trial in Python (about 30k trials/s on a 2-vCPU host)
ALL_LIVE_TRIALS = 65_536


def _spec(trials, shard_size=None, structure="ftspm"):
    return CampaignSpec.from_structure(
        synthetic_profile("sha"), structure, trials=trials, seed=0xF7F7,
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


def _injector_row(structure, trials, shard_size):
    """Both injectors over one sha campaign on ``structure``."""
    spec = _spec(trials, shard_size=shard_size, structure=structure)
    trial_s, trial_total = _time_injector(spec, TrialInjector)
    batch_s, batch_total = _time_injector(spec, BatchInjector)
    assert trial_total.to_dict() == batch_total.to_dict(), (
        "trial and batch injectors diverged on the %s benchmark campaign"
        % structure)
    trial_rate = spec.trials / trial_s
    batch_rate = spec.trials / batch_s
    return {
        "workload": "sha",
        "structure": structure,
        "trials": spec.trials,
        "shards": spec.shard_count,
        "rounds": ROUNDS,
        "fault_free_fraction": round(
            StrikeSurface.from_spec(spec).fault_free_fraction(), 4),
        "trial_trials_per_s": round(trial_rate),
        "batch_trials_per_s": round(batch_rate),
        "speedup_vs_trial": round(batch_rate / trial_rate, 2),
        "aggregates": "identical (trial vs batch)",
    }


def measure_injectors():
    """The gated row: sha on ftspm, mostly fast-forwarded trials."""
    injectors = _injector_row("ftspm", INJECTOR_TRIALS, INJECTOR_SHARD)
    injectors["speedup_floor"] = SPEEDUP_FLOOR
    return injectors


def measure_all_live():
    """The recorded row: sha on baseline-sram, every trial live."""
    return _injector_row("baseline-sram", ALL_LIVE_TRIALS, ALL_LIVE_TRIALS)


def persist(injectors, all_live, scaling=None):
    payload = {"schema": 1, "injectors": injectors,
               "injectors_all_live": all_live}
    if scaling is not None:
        payload["scaling"] = scaling
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, BENCH_JSON)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def render(injectors, all_live):
    lines = []
    for row in (injectors, all_live):
        lines += [
            "campaign injector throughput (sha on %s, %d trials, "
            "%.1f%% fast-forwarded)"
            % (row["structure"], row["trials"],
               100 * row["fault_free_fraction"]),
            "  trial injector  : %9d trials/s" % row["trial_trials_per_s"],
            "  batch injector  : %9d trials/s" % row["batch_trials_per_s"],
            "  speedup         : %.1fx vs trial%s"
            % (row["speedup_vs_trial"],
               " (floor: %.0fx)" % row["speedup_floor"]
               if "speedup_floor" in row else ""),
        ]
    return "\n".join(lines)


def test_batch_injector_speedup():
    injectors = measure_injectors()
    persist(injectors, measure_all_live())
    assert injectors["speedup_vs_trial"] >= SPEEDUP_FLOOR, (
        "batch injector delivered %.1fx over the trial oracle; "
        "the acceptance floor is %.0fx"
        % (injectors["speedup_vs_trial"], SPEEDUP_FLOOR))


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
    doc = {}
    path = os.path.join(REPORT_DIR, BENCH_JSON)
    if os.path.exists(path):
        with open(path) as handle:
            doc = json.load(handle)
    if "injectors" in doc and "injectors_all_live" in doc:
        persist(doc["injectors"], doc["injectors_all_live"], scaling)

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
    outcome, all_live = measure_injectors(), measure_all_live()
    print(render(outcome, all_live))
    print("\nwrote %s" % persist(outcome, all_live))
