"""Steadiness evidence: repeat the benchmark and summarise its spread.

    python3 perfbench/steady.py --out perfbench/steadiness.json

Runs ``run.py`` 10 times on every workload of BENCHMARK.json, each run
in a fresh process with another ``--seed`` (1-10), and records for
every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as
a share of the median, next to the metric's bound and the host
fingerprint of the runs.  It then repeats that as a second set (seeds
11-20) and records how much worse each metric's median got against the
first set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True,
        universal_newlines=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    host = next(json.loads(line[len("host "):]) for line in lines
                if line.startswith("host "))
    return host, json.loads(lines[-1])


def summarise(values, bound):
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (quartiles[2] - quartiles[0]) / median if median else 0.0
    return {"median": median, "q1": quartiles[0], "q3": quartiles[2],
            "iqr_share": spread, "bound": bound,
            "within_third_of_bound": spread < bound / 3,
            "values": values}


def run_set(names, seeds, benchmark, bounds, hosts):
    """One set: every seed on every workload; per-metric summaries."""
    workloads = {}
    for name in names:
        results = []
        for seed in seeds:
            host, result = run_once(name, seed, benchmark["run_seconds"])
            hosts.append(host)
            results.append(result)
            print("%s seed %d: %s" % (name, seed, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in result["metrics"].items()})), flush=True)
        metrics = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            metrics[metric] = summarise(values, bounds[metric])
            print("  %-14s median %.5g  IQR %.1f%% of median (bound %.0f%%)"
                  % (metric, metrics[metric]["median"],
                     100 * metrics[metric]["iqr_share"],
                     100 * bounds[metric]), flush=True)
        workloads[name] = {
            "seeds": list(seeds),
            "all_correct": all(r["correct"] for r in results),
            "metrics": metrics,
        }
    return workloads


def agreement(sets, benchmark):
    """How much worse each later set's median is than the first set's."""
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    first = sets[0]
    report = {}
    for name, workload in first.items():
        report[name] = {}
        for metric, summary in workload["metrics"].items():
            base = summary["median"]
            worst = 0.0
            for later in sets[1:]:
                median = later[name]["metrics"][metric]["median"]
                change = (median - base) / base if base else 0.0
                worse = change if better[metric] == "lower" else -change
                worst = max(worst, worse)
            report[name][metric] = {"worse_share": worst,
                                    "bound": bounds[metric],
                                    "within_bound": worst <= bounds[metric]}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON summary here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    names = [w["name"] for w in benchmark["workloads"]]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    hosts = []
    sets = []
    for index in range(SETS):
        first = 1 + index * RUNS
        sets.append(run_set(names, range(first, first + RUNS),
                            benchmark, bounds, hosts))
    summary = {"run_seconds": benchmark["run_seconds"], "runs": RUNS,
               "sets": sets,
               "hosts": [dict(t) for t in
                         {tuple(sorted(h.items())) for h in hosts}],
               "agreement": agreement(sets, benchmark)}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
