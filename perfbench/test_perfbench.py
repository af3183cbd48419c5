"""Tiny-scale self-tests of the benchmark (seconds, not a measurement).

    python3 -m pytest -q perfbench

They check the printed results against BENCHMARK.json, that a wrong
expectation and a trace below the coverage floor are caught as failed
operations, that tracing survives a missing boundary, that a changed
scaling parameter fails the run, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("report", "simulate", "campaign")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=300)


def test_benchmark_file_shape():
    benchmark = _benchmark()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert benchmark["paths"] == ["perfbench"]
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    end_to_end = benchmark["end_to_end"]
    assert [(m["name"], m["unit"]) for m in end_to_end] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in benchmark["per_layer"]] == list(
        layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in end_to_end + benchmark["per_layer"]]
    assert len(names) == len(set(names))
    for metric in end_to_end + benchmark["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = _benchmark()["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in
            result["metrics"].items()} == {m["name"]: m["unit"]
                                           for m in listed}
    for metric in listed:
        assert any(line.startswith("%s " % metric["name"])
                   and line.endswith(" %s" % metric["unit"])
                   for line in lines[:-1])
    if not trace:
        assert result["metrics"]["ok_ops_ratio"]["value"] == 1.0


def test_planted_wrong_expectation_drops_ok_ratio():
    run.import_package()
    planted = workloads.load_expectations()
    key = "kernel:crc32@1"
    planted[key] = dict(planted[key])
    instructions, cycles = planted[key]["ftspm"]
    planted[key]["ftspm"] = [instructions, cycles + 1]
    workload = workloads.SimulateWorkload(7, 1, tiny=True,
                                          expectations=planted)
    workload.setup()
    try:
        workload.run()
    finally:
        workload.close()
    assert workload.outcome.failures == ["%s on ftspm" % key]
    assert workload.outcome.ok_ratio < 1.0


def test_missing_boundary_is_recorded_not_fatal(monkeypatch):
    run.import_package()
    from repro.eval import structures

    original = structures.plan_for_structure
    monkeypatch.setattr(layers, "BOUNDARIES", layers.BOUNDARIES + (
        ("repro.eval.structures", "no_such_function", "x.y", "x"),
        ("repro.no_such_module", "anything", "x.y", "x"),
        ("repro.sim.machine", "Machine.no_such_method", "x.y", "x"),
    ))
    tracer = layers.LayerTracer().install()
    try:
        assert structures.plan_for_structure is not original
    finally:
        tracer.uninstall()
    assert structures.plan_for_structure is original
    assert tracer.absent == [
        "repro.eval.structures:no_such_function",
        "repro.no_such_module:anything",
        "repro.sim.machine:Machine.no_such_method",
    ]


def test_changed_scaling_parameter_fails_loudly(monkeypatch):
    run.import_package()
    from repro.eval import EXPERIMENTS

    def renamed(bits=8_000, strike_rate=1.5):
        raise AssertionError("must not run at full scale")

    monkeypatch.setitem(EXPERIMENTS, "ablation-scrubbing", renamed)
    workload = workloads.ReportWorkload(7, 1, tiny=True)
    workload.setup()
    try:
        with pytest.raises(TypeError):
            EXPERIMENTS["ablation-scrubbing"]()
    finally:
        workload.close()
    assert EXPERIMENTS["ablation-scrubbing"] is renamed


def test_low_trace_coverage_fails_a_check(monkeypatch, capsys):
    monkeypatch.setattr(layers, "BOUNDARIES", ())
    run.main(["--workload", "simulate", "--seed", "7", "--seconds", "1",
              "--trace", "1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["metrics"]["trace.coverage"]["value"] < run.MIN_COVERAGE
    assert result["correct"] is False and result["failed"] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("report", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
