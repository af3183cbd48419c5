"""Disabled-observability overhead: the layer must be free when off.

Times the fast engine over the case-study program two ways — through
the bare engine loop (no instrumentation reachable) and through
:meth:`Machine.run` with :mod:`repro.obs` disabled (one flag check and
one null profiler lookup per run) — and asserts the relative overhead
stays under 2%.

Runs are interleaved and each variant keeps its **minimum** over
several repetitions: the minimum of a timing sample estimates the
noise-free cost, so the comparison is stable on loaded CI hosts.
Evidence goes to ``benchmarks/reports/obs-overhead.txt`` and, as
machine-readable JSON, to ``benchmarks/reports/BENCH_obs.json`` — the
file CI's observability job re-checks the ceiling from.

Runs standalone (``python benchmarks/bench_obs.py``) or under pytest
alongside the other benchmarks.
"""

from __future__ import annotations

import json
import os
import time

from repro import obs
from repro.config import baseline_sram_config
from repro.sim.machine import DEFAULT_INSTRUCTION_LIMIT, Machine
from repro.workloads.case_study import case_study_program

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")
BENCH_JSON = "BENCH_obs.json"

OVERHEAD_CEILING = 0.02  # 2%
ROUNDS = 7
ARRAY_WORDS = 256
OUTER_ITERATIONS = 4


def _machine():
    return Machine(case_study_program(array_words=ARRAY_WORDS,
                                      outer_iterations=OUTER_ITERATIONS),
                   baseline_sram_config())


def _bare_run():
    """The floor: drive the fast engine directly, no obs code on path."""
    machine = _machine()
    machine.apply_static_schedule()
    start = time.perf_counter()
    machine._fast_engine().run(DEFAULT_INSTRUCTION_LIMIT)
    return time.perf_counter() - start


def _instrumented_run():
    """The product path: Machine.run with the obs layer disabled."""
    machine = _machine()
    start = time.perf_counter()
    machine.run()
    return time.perf_counter() - start


def measure():
    obs.reset()  # the layer must be off for this measurement
    bare = []
    instrumented = []
    _bare_run(), _instrumented_run()  # warm decode/import caches
    for _ in range(ROUNDS):
        bare.append(_bare_run())
        instrumented.append(_instrumented_run())
    best_bare = min(bare)
    best_instrumented = min(instrumented)
    return {
        "bare_s": best_bare,
        "instrumented_s": best_instrumented,
        "overhead": best_instrumented / best_bare - 1.0,
        "rounds": ROUNDS,
    }


def render(result):
    lines = [
        "disabled-observability overhead: fast engine, case study",
        "(%d words, %d outer iterations; min of %d interleaved rounds)"
        % (ARRAY_WORDS, OUTER_ITERATIONS, result["rounds"]),
        "",
        "  bare engine loop    : %9.4f s" % result["bare_s"],
        "  Machine.run (obs off): %8.4f s" % result["instrumented_s"],
        "  overhead            : %8.2f%% (ceiling: %.0f%%)"
        % (100 * result["overhead"], 100 * OVERHEAD_CEILING),
        "",
        "Scope note: with the layer disabled, Machine.run performs one",
        "enabled-flag check and hands out shared null objects; no event",
        "subscriber attaches, so the fast engine stays in its batched",
        "zero-publish mode and the per-access cost is unchanged.",
    ]
    return "\n".join(lines)


def persist(result):
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, "obs-overhead.txt")
    with open(path, "w") as handle:
        handle.write(render(result) + "\n")
    # Machine-readable twin: CI re-checks the ceiling from this file,
    # so the gate covers whatever run actually produced the artifact.
    payload = {
        "schema": 1,
        "benchmark": "disabled-obs-overhead",
        "config": {"array_words": ARRAY_WORDS,
                   "outer_iterations": OUTER_ITERATIONS,
                   "rounds": result["rounds"],
                   "engine": "fast",
                   "workload": "case-study"},
        "obs": {"bare_s": round(result["bare_s"], 6),
                "instrumented_s": round(result["instrumented_s"], 6),
                "overhead": round(result["overhead"], 6),
                "overhead_ceiling": OVERHEAD_CEILING},
    }
    with open(os.path.join(REPORT_DIR, BENCH_JSON), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def test_disabled_obs_overhead_under_ceiling():
    result = measure()
    persist(result)
    assert result["overhead"] < OVERHEAD_CEILING, (
        "disabled obs overhead %.2f%% above the %.0f%% ceiling"
        % (100 * result["overhead"], 100 * OVERHEAD_CEILING))


if __name__ == "__main__":
    outcome = measure()
    print(render(outcome))
    print("\nwrote %s" % persist(outcome))
