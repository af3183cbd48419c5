"""Benchmark helpers: run one experiment per target, save its report.

Every benchmark regenerates a paper artifact via
:func:`repro.eval.run_experiment`, times it with pytest-benchmark
(single round — the artifact is the point, the timing is a bonus), and
writes the rendered table to ``benchmarks/reports/<name>.txt`` so the
regenerated rows are inspectable after a run.
"""

from __future__ import annotations

import os

from repro.eval import run_experiment

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


def regenerate(benchmark, name, **params):
    """Time one experiment regeneration and persist its report."""
    result = benchmark.pedantic(
        lambda: run_experiment(name, **params), rounds=1, iterations=1)
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, "%s.txt" % name)
    with open(path, "w") as handle:
        handle.write(result.text + "\n")
    return result
