"""FTSPM reproduction benchmark: three closed-loop workloads, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report --seed 1 --seconds 32 --trace 0

``--workload`` is ``report``, ``simulate`` or ``campaign``; without it
every workload runs, each in its own process.  The last line a workload
run prints is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a separate traced pass with ``--trace 1``.
The lines before it name every metric with its unit, including the
workload's named throughput figures, and the host fingerprint.

See perfbench/README.md for the workloads, the metrics and the
layer-to-end-to-end map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import layers
import workloads

_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: every end-to-end metric, in print order: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("primary_s", "s"),
    ("secondary_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_ratio", "ratio"),
)

#: set-ups measured per run (this process plus fresh processes)
SETUP_SAMPLES = 5
#: share of the timed wall the layers' self times must cover when traced
MIN_COVERAGE = 0.95


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="FTSPM reproduction benchmark (see perfbench/README.md)")
    parser.add_argument("--workload",
                        choices=("report", "simulate", "campaign"),
                        help="run one workload (default: all, one process "
                             "each)")
    parser.add_argument("--seed", type=_seed, default=1,
                        help="non-negative workload seed")
    parser.add_argument("--seconds", type=int, default=32,
                        help="measured seconds one run is sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics of a traced pass")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: seconds of work, not a "
                             "measurement")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def import_package():
    """Put the checkout's sources first on the path; fail without them."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit("perfbench: no repro sources under %s; run from the root "
                 "of a checkout" % SRC)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported repro from %s, not %s"
                 % (repro.__file__, SRC))


def host_fingerprint():
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def make_workload(args):
    return workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                              tiny=args.tiny)


def setup_sample(args):
    """One set-up in this fresh process, timed from interpreter start."""
    import_package()
    workload = make_workload(args)
    try:
        workload.setup()
        elapsed = time.perf_counter() - _START
    finally:
        workload.close()
    print(json.dumps({"setup_s": elapsed}))


def fresh_setups(args, count):
    """Set-up times of ``count`` fresh processes, one after another."""
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--setup-only"]
    if args.tiny:
        command.append("--tiny")
    samples = []
    for _ in range(count):
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              check=True, universal_newlines=True,
                              timeout=120)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def peak_rss_mb(workers):
    """This process's peak RSS plus ``workers`` x the largest child's.

    Pool workers are forked children that have exited by now, so the
    largest one's peak stands in for each of them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def run_workload(args):
    import_package()
    workload = make_workload(args)
    layer_values = None
    try:
        workload.setup()
        setup_s = time.perf_counter() - _START
        plain = workload.run()
        if args.trace:
            layer_values = traced_pass(args, workload, plain)
    finally:
        workload.close()
    outcome = workload.outcome
    for label in outcome.failures:
        print("FAILED check: %s" % label, file=sys.stderr)
    info = workload.layer_info()
    lines = ["workload %s seed %d seconds %d trace %d"
             % (args.workload, args.seed, args.seconds, args.trace),
             "host %s" % json.dumps(host_fingerprint(), sort_keys=True)]
    if layer_values is not None:
        metrics = layer_values
    else:
        rss = peak_rss_mb(info.get("workers", 0))
        samples = [setup_s] + fresh_setups(
            args, 1 if args.tiny else SETUP_SAMPLES - 1)
        values = {
            "setup_s": statistics.median(samples),
            "primary_s": plain["primary_s"],
            "secondary_s": plain["secondary_s"],
            "peak_rss_mb": rss,
            "ok_ops_ratio": outcome.ok_ratio,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        lines.append("setup samples %s" % json.dumps(
            [round(sample, 4) for sample in samples]))
        lines.extend("%s %.6g %s" % (name, value, unit)
                     for name, (value, unit) in sorted(
                         plain["named"].items()))
    lines.extend("%s %.6g %s" % (name, value, unit)
                 for name, (value, unit) in metrics.items())
    print("\n".join(lines))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def traced_pass(args, workload, plain):
    """Repeat set-up inputs and the timed pass under the layer tracer."""
    from repro.obs import write_chrome_trace

    tracer = layers.LayerTracer().install()
    try:
        with tracer.root("bench.setup"):
            workload.build_inputs()
        with tracer.root("bench.timed"):
            traced = workload.run(timed=tracer.timed)
    finally:
        tracer.uninstall()
    overhead = traced["timed_s"] / plain["timed_s"] - 1.0
    values = layers.layer_metrics(tracer, workload.layer_info(), overhead)
    coverage = values["trace.coverage"][0]
    workload.outcome.check("trace coverage %.4f >= %.2f"
                           % (coverage, MIN_COVERAGE),
                           coverage >= MIN_COVERAGE)
    for boundary in tracer.absent:
        print("absent boundary: %s" % boundary, file=sys.stderr)
    path = os.path.join(workloads.work_dir(), "trace-%s-%d.json"
                        % (args.workload, args.seed))
    write_chrome_trace(tracer.tracer, path)
    print("trace written to %s" % os.path.relpath(path, ROOT),
          file=sys.stderr)
    return values


def run_all(args):
    """Every workload in its own process, one after another."""
    status = 0
    for name in ("report", "simulate", "campaign"):
        command = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            command.append("--tiny")
        print("== %s" % name, flush=True)
        done = subprocess.run(command, cwd=ROOT)
        status = status or done.returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        setup_sample(args)
    else:
        run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
