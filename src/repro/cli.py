"""Command-line interface: ``ftspm`` (or ``python -m repro``).

Subcommands::

    ftspm experiments [NAME ...] [--out DIR]   regenerate tables/figures
    ftspm profile WORKLOAD                     Table I-style profile
    ftspm map WORKLOAD [--mode MODE]           MDA placement (Table II)
    ftspm run WORKLOAD [--structure S]         full simulation + metrics
    ftspm inject WORKLOAD [--trials N]         Monte-Carlo fault injection
    ftspm campaign WORKLOAD [--jobs N]         parallel, resumable campaign
    ftspm serve [--port P] [--workers N]       async HTTP job service
    ftspm submit KIND WORKLOAD [--param k=v]   submit a job to 'serve'
    ftspm runs list|show|compare [...]         query the run ledger
    ftspm lint TARGET [...]                    static diagnostics (CI gate)
    ftspm devlint [FILE ...]                   self-check the repro package
    ftspm diff [A B | --against DIR]           structural mapping diff
    ftspm golden [--update] [--force]          golden corpus check/refresh
    ftspm disasm WORKLOAD                      disassemble a workload
    ftspm list                                 available workloads/experiments

``WORKLOAD`` is ``case`` (the paper's case study), ``kernel:NAME`` (a real
executed kernel), or a MiBench-like suite name (profile-level only).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import obs
from .config import preset
from .core.online import build_machine
from .core.priorities import OptimizationMode, thresholds_for_mode
from .errors import ReproError
from .eval.experiments import experiment_names, run_experiment
from .eval.structures import STRUCTURES
from .isa.disasm import disassemble_program
from .pipeline import get_context
from .profile.report import format_profile_table
from .units import format_energy, format_time
from .workloads.kernels import kernel_names
from .workloads.synthetic import mibench_names


def _resolve_workload(spec, array_words=256, outer_iterations=4, scale=1):
    """Return (program_or_None, profile) for a workload spec."""
    return get_context().resolve_workload(
        spec, array_words=array_words, outer_iterations=outer_iterations,
        scale=scale)


def _cmd_list(args):
    print("experiments:", ", ".join(experiment_names()))
    print("kernels:", ", ".join("kernel:%s" % k for k in kernel_names()))
    print("suite:", ", ".join(mibench_names()))
    print("structures:", ", ".join(STRUCTURES))
    return 0


def _cmd_experiments(args):
    names = args.names or experiment_names()
    for name in names:
        result = run_experiment(name)
        print(result.text)
        print()
        if args.out:
            import os
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, "%s.txt" % name)
            with open(path, "w") as handle:
                handle.write(result.text + "\n")
    return 0


def _cmd_report(args):
    from .eval.report import format_timings, generate_report
    timings = [] if args.timings else None
    text = generate_report(array_words=args.array_words,
                           outer_iterations=args.outer_iterations,
                           cache_dir=args.cache_dir,
                           timings=timings)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print("wrote %s (%d bytes)" % (args.out, len(text)))
    else:
        print(text)
    if timings is not None:
        # Timings go to stderr so the report on stdout stays byte-stable.
        print(format_timings(timings), file=sys.stderr)
    return 0


def _cmd_profile(args):
    _, profile = get_context().resolve_workload(
        args.workload, array_words=args.array_words,
        outer_iterations=args.outer_iterations, scale=args.scale,
        profile_flavor=args.profile)
    print(format_profile_table(
        profile, title="Profile of %s (%s)"
        % (args.workload, getattr(profile, "flavor", "dynamic"))))
    assumptions = getattr(profile, "assumptions", None)
    if assumptions:
        print()
        for assumption in assumptions:
            print("  assumed: %s" % assumption)
    return 0


def _cmd_lint(args):
    from .analysis import lint_program, lint_source
    from .diagnostics import emit_report

    worst_exit = 0
    for target in args.targets:
        if target.endswith(".s") or os.sep in target:
            with open(target) as handle:
                report = lint_source(handle.read(), name=target)
        else:
            program, _ = _resolve_workload(target)
            if program is None:
                raise ReproError(
                    "workload %r has no program to lint" % target)
            report = lint_program(program, source=target)
        worst_exit = max(worst_exit, emit_report(report, fmt=args.format))
    return worst_exit


#: the committed suppression file, looked up at the repo root
DEVLINT_BASELINE = "devlint-baseline.json"


def _find_devlint_baseline():
    """The default baseline: CWD first, then next to ``src/``."""
    if os.path.exists(DEVLINT_BASELINE):
        return DEVLINT_BASELINE
    from .analysis.hostlint.modules import package_root
    candidate = os.path.join(
        os.path.dirname(os.path.dirname(package_root())),
        DEVLINT_BASELINE)
    return candidate if os.path.exists(candidate) else None


def _devlint_module(path):
    """Parse one explicitly named .py file for ``repro devlint FILE``."""
    from .analysis.hostlint import parse_module

    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    normalized = path.replace(os.sep, "/")
    marker = normalized.rfind("repro/")
    relpath = normalized[marker:] if marker >= 0 else normalized
    dotted = relpath[:-3] if relpath.endswith(".py") else relpath
    if dotted.endswith("/__init__"):
        dotted = dotted[:-len("/__init__")]
    return parse_module(dotted.replace("/", "."), source,
                        path=path, relpath=relpath)


def _cmd_devlint(args):
    from .analysis.hostlint import Baseline, DEVLINT_RULES, lint_modules, \
        lint_package
    from .diagnostics import EXIT_ERROR, emit_report

    if args.list_rules:
        for rule, (severity, title) in DEVLINT_RULES.items():
            print("%-28s %-8s %s" % (rule, severity.value, title))
        return 0

    try:
        baseline = None
        if not args.no_baseline and not args.write_baseline:
            path = args.baseline
            if path is None:
                path = _find_devlint_baseline()  # optional by default
            elif not os.path.exists(path):
                raise ReproError("baseline file %r not found" % path)
            if path is not None:
                baseline = Baseline.load(path)
        if args.paths:
            modules = [_devlint_module(path) for path in args.paths]
            report = lint_modules(modules, baseline=baseline,
                                  source=",".join(args.paths))
        else:
            report = lint_package(baseline=baseline)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return EXIT_ERROR

    if args.write_baseline:
        # Re-suppress everything currently firing; the developer then
        # fills in the mandatory justification for each new entry.
        refreshed = Baseline.from_findings(
            report.all_findings(),
            justification="TODO: justify or fix")
        refreshed.save(args.baseline or DEVLINT_BASELINE)
        print("wrote %d suppression(s) to %s"
              % (len(refreshed.entries),
                 args.baseline or DEVLINT_BASELINE), file=sys.stderr)

    code = emit_report(report, fmt=args.format, out=args.out)
    # A capture run succeeded once the file is written; the next plain
    # run is the one that gates.
    return 0 if args.write_baseline else code


def _cmd_map(args):
    _, profile = get_context().resolve_workload(
        args.workload, array_words=args.array_words,
        outer_iterations=args.outer_iterations, scale=args.scale,
        profile_flavor=args.profile)
    config = preset(args.structure)
    if args.structure == "ftspm":
        mode = OptimizationMode(args.mode)
        _, plan, result = get_context().plan(
            profile, "ftspm", config=config,
            thresholds=thresholds_for_mode(mode))
        print(plan.format_table(
            profile, title="MDA placement (%s, mode=%s, %s profile)"
            % (args.workload, mode.value,
               getattr(profile, "flavor", "dynamic"))))
        print()
        for decision in result.decisions:
            print("  step%d %-14s %-18s %s" % (
                decision.step, decision.block, decision.action,
                decision.detail))
    else:
        _, plan, _ = get_context().plan(profile, args.structure,
                                        config=config)
        print(plan.format_table(
            profile, title="%s placement (%s)"
            % (args.structure, args.workload)))
    return 0


def _cmd_run(args):
    program, profile = _resolve_workload(
        args.workload, args.array_words, args.outer_iterations, args.scale)
    if program is None:
        raise ReproError(
            "workload %r is profile-only; pick 'case' or a kernel"
            % args.workload)
    config, plan, _ = get_context().plan(profile, args.structure)
    machine = build_machine(program, config, plan, profile)
    result = machine.run()
    print("structure:        %s" % args.structure)
    print("instructions:     {:,}".format(result.instructions))
    print("cycles:           {:,}".format(result.cycles))
    print("runtime:          %s" % format_time(result.seconds))
    print("CPI:              %.2f" % result.cpi)
    print("dynamic energy:   %s" % format_energy(machine.dynamic_energy()))
    print("static energy:    %s" % format_energy(machine.static_energy()))
    print("cache accesses:   {:,} (miss rate {:.1%})".format(
        machine.memory.cache.stats.accesses,
        machine.memory.cache.stats.miss_rate))
    return 0


def _print_injection_counts(result):
    print("trials:           {:,}".format(result.trials))
    print("benign (immune):  {:,}".format(result.benign_immune))
    print("benign (empty):   {:,}".format(result.benign_empty))
    print("benign (dead):    {:,}".format(result.benign_dead))
    print("no effect:        {:,}".format(result.none))
    print("DRE (recovered):  {:,}".format(result.dre))
    print("DUE (detected):   {:,}".format(result.due))
    print("SDC (silent):     {:,}".format(result.sdc))
    print("measured vulnerability: %.5f" % result.vulnerability)


def _cmd_inject(args):
    from .campaign import CampaignRunner, CampaignSpec

    _, profile = _resolve_workload(
        args.workload, args.array_words, args.outer_iterations, args.scale)
    _, plan, _ = get_context().plan(profile, args.structure)
    spec = CampaignSpec.from_entries(
        plan.avf_entries(profile), plan.total_spm_bytes(),
        profile.total_cycles, trials=args.trials, seed=args.seed)
    summary = CampaignRunner(spec, jobs=args.jobs).run()
    _print_injection_counts(summary.result)
    interval = summary.interval("harmful")
    print("95%% Wilson CI:    [%.5f, %.5f]" % (interval.low, interval.high))
    print("jobs/shards:      %d/%d (%d failed)" % (
        args.jobs, spec.shard_count, len(summary.failed_shards)))
    return 0


def _print_campaign_plan(args, spec):
    """--dry-run: the complete shard plan, without running a trial."""
    from .campaign.batch.surface import StrikeSurface
    from .eval.tables import render_table

    print("campaign plan: %s on %s" % (args.workload, args.structure))
    print("trials:       {:,} in {} shard(s) of <= {:,}".format(
        spec.trials, spec.shard_count, spec.shard_size))
    print("jobs:         %d" % args.jobs)
    fraction = StrikeSurface.from_spec(spec).fault_free_fraction()
    print("fault-free:   %.1f%% of strikes fast-forward without "
          "codec work" % (100.0 * fraction))
    rows = [[row["shard"], "{:,}".format(row["trials"]),
             "0x%016x" % row["seed"]] for row in spec.shard_plan()]
    print(render_table(["Shard", "Trials", "Seed"], rows,
                       title="shard plan (nothing executed)"))


def _cmd_campaign(args):
    from .campaign import (
        CampaignRunner,
        CampaignSpec,
        ProgressPrinter,
        analytic_vulnerability,
        drain_on_signals,
    )

    if args.resume and not args.out:
        raise ReproError("--resume requires --out RUN_DIR")
    _, profile = _resolve_workload(
        args.workload, args.array_words, args.outer_iterations, args.scale)
    spec = CampaignSpec.from_structure(
        profile, args.structure, trials=args.trials, seed=args.seed,
        shard_size=args.shard_size)
    if args.dry_run:
        _print_campaign_plan(args, spec)
        return 0
    progress = None if args.no_progress else ProgressPrinter()
    runner = CampaignRunner(spec, jobs=args.jobs, run_dir=args.out,
                            resume=args.resume, max_retries=args.retries,
                            progress=progress)
    # First SIGINT/SIGTERM drains gracefully (in-flight shards finish
    # and checkpoint; pending ones stay resumable); a second one kills.
    with drain_on_signals(runner):
        summary = runner.run()
    print(summary.outcome_table())
    print()
    print(summary.shard_table())
    print()
    interval = summary.interval("harmful")
    analytic = analytic_vulnerability(profile, args.structure)
    print("measured vulnerability: %s" % interval)
    print("analytic vulnerability: %.5f (Fig. 5 region-surface value)"
          % analytic)
    print("CI brackets analytic:   %s"
          % ("yes" if interval.brackets(analytic) else "NO"))
    print("throughput:             {:,.0f} trials/s over {} job(s)".format(
        summary.throughput, args.jobs))
    if summary.drained:
        print("NOTE: campaign drained on signal after {:,} trials; "
              "rerun with --out/--resume to finish the rest".format(
                  summary.trials_completed))
    if not summary.complete:
        print("WARNING: campaign incomplete ({:,}/{:,} trials); "
              "intervals are widened".format(
                  summary.trials_completed, summary.trials_requested))
    return 0


def _cmd_serve(args):
    import asyncio

    from .service import ReproService

    service = ReproService(host=args.host, port=args.port,
                           workers=args.workers,
                           job_threads=args.job_threads,
                           cache_dir=args.cache_dir,
                           ledger_path=args.ledger)

    def announce():
        print("serving on %s (workers=%d, cache=%s)"
              % (service.url, args.workers, args.cache_dir or "memory"),
              flush=True)

    asyncio.run(service.run_until_signalled(on_ready=announce))
    print("drained; bye")
    return 0


def _parse_submit_params(pairs):
    """``key=value`` pairs -> params dict (values parsed as JSON when
    they look like numbers/booleans, kept as strings otherwise)."""
    import json
    params = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ReproError(
                "bad --param %r (expected key=value)" % pair)
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    return params


def _cmd_submit(args):
    import json

    from .service.client import ServiceClient, ServiceError

    params = _parse_submit_params(args.param)
    params["workload"] = args.workload
    client = ServiceClient(host=args.host, port=args.port,
                           timeout=args.timeout)
    try:
        status = client.submit(args.kind, **params)
        if args.no_wait:
            print(json.dumps(status, indent=1, sort_keys=True))
            return 0
        final = client.wait(status["id"], timeout=args.timeout)
        payload = client.result(status["id"])
    except ServiceError as error:
        raise ReproError(str(error)) from None
    except (ConnectionError, OSError) as error:
        raise ReproError("cannot reach %s:%d: %s"
                         % (args.host, args.port, error)) from None
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0 if final["state"] == "done" else 1


def _runs_ledger_path(args):
    import os

    if args.ledger:
        return args.ledger
    from_env = os.environ.get("REPRO_LEDGER")
    if from_env:
        return from_env
    raise ReproError("no ledger given (use --ledger FILE.jsonl or set "
                     "REPRO_LEDGER)")


def _flatten_record(record, prefix=""):
    """Nested record -> sorted ``{"params.trials": ...}`` dotted keys."""
    flat = {}
    for name in sorted(record):
        value = record[name]
        if isinstance(value, dict):
            flat.update(_flatten_record(value, prefix + name + "."))
        else:
            flat[prefix + name] = value
    return flat


def _runs_get(ledger, run_id):
    record = ledger.get(run_id)
    if record is None:
        raise ReproError("no run %r in %s" % (run_id, ledger.path))
    return record


def _cmd_runs_list(args):
    import json

    from .eval.tables import render_table
    from .obs.ledger import RunLedger, parse_since

    ledger = RunLedger(_runs_ledger_path(args))
    since = parse_since(args.since) if args.since else None
    records = ledger.read(since=since)
    if args.json:
        print(json.dumps({"count": len(records), "runs": records},
                         indent=1, sort_keys=True))
        return 0
    rows = [[record["id"], record["kind"], record["status"],
             "%.3f" % record["started_at"], "%.3f" % record["wall_s"],
             (record.get("key") or "-")[:12]]
            for record in records]
    print(render_table(["Run", "Kind", "Status", "Started", "Wall s",
                        "Key"], rows,
                       title="run ledger: %d record(s)" % len(records)))
    return 0


def _cmd_runs_show(args):
    import json

    from .obs.ledger import RunLedger

    record = _runs_get(RunLedger(_runs_ledger_path(args)), args.id)
    if args.json:
        print(json.dumps(record, indent=1, sort_keys=True))
        return 0
    # Flattened sorted keys with JSON-rendered values: two invocations
    # over the same ledger replay the record byte-identically.
    flat = _flatten_record(record)
    width = max(len(name) for name in flat)
    for name in sorted(flat):
        print("%-*s  %s" % (width, name,
                            json.dumps(flat[name], sort_keys=True)))
    return 0


def _cmd_runs_compare(args):
    import json

    from .eval.tables import render_table
    from .obs.ledger import RunLedger

    ledger = RunLedger(_runs_ledger_path(args))
    left = _runs_get(ledger, args.a)
    right = _runs_get(ledger, args.b)
    flat_a = _flatten_record(left)
    flat_b = _flatten_record(right)
    # Identity fields always differ between two runs; skip the noise.
    skip = {"id", "pid", "started_at"}
    diff = {}
    for name in sorted((set(flat_a) | set(flat_b)) - skip):
        value_a = flat_a.get(name)
        value_b = flat_b.get(name)
        if value_a == value_b:
            continue
        entry = {"a": value_a, "b": value_b}
        if (isinstance(value_a, (int, float))
                and isinstance(value_b, (int, float))
                and not isinstance(value_a, bool)
                and not isinstance(value_b, bool)):
            entry["delta"] = round(value_b - value_a, 9)
        diff[name] = entry
    if args.json:
        print(json.dumps({"a": left["id"], "b": right["id"],
                          "diff": diff}, indent=1, sort_keys=True))
        return 0
    rows = [[name, json.dumps(entry["a"], sort_keys=True),
             json.dumps(entry["b"], sort_keys=True),
             "%+.6g" % entry["delta"] if "delta" in entry else "-"]
            for name, entry in sorted(diff.items())]
    print(render_table(["Field", left["id"], right["id"], "Delta"],
                       rows, title="%s vs %s: %d field(s) differ"
                       % (left["id"], right["id"], len(diff))))
    return 0


def _evaluation_params(args):
    """The argparse fields worth pinning in a ledger record."""
    params = {"command": args.command}
    for name in ("workload", "structure", "trials", "seed", "shard_size",
                 "jobs", "array_words", "outer_iterations", "scale"):
        value = getattr(args, name, None)
        if value is not None:
            params[name] = value
    return params


def _cmd_trace(args):
    from .mem.hierarchy import MemorySystem
    from .tech.nvsim_lite import energy_models_for
    from .workloads.traces import Trace, TraceReplayer, record_trace

    if args.replay:
        trace = Trace.load(args.replay)
        config = preset(args.structure)
        memory = MemorySystem(config, energy_models_for(config))
        replayer = TraceReplayer(memory).replay(trace)
        print("replayed {:,} records in {:,} memory cycles".format(
            replayer.replayed, replayer.cycles))
        print("cache: {:,} accesses, miss rate {:.1%}".format(
            memory.cache.stats.accesses, memory.cache.stats.miss_rate))
        return 0
    program, _ = _resolve_workload(
        args.workload, args.array_words, args.outer_iterations, args.scale)
    if program is None:
        raise ReproError("workload %r cannot be traced (profile-only)"
                         % args.workload)
    trace = record_trace(program, preset(args.structure))
    fetches, reads, writes = trace.counts()
    print("captured {:,} records ({:,} fetches, {:,} reads, {:,} writes)"
          .format(len(trace), fetches, reads, writes))
    if args.out:
        trace.save(args.out)
        print("wrote %s" % args.out)
    return 0


def _report_corpus_changes(before, after):
    """Print which golden digests an update actually moved."""
    changed = unchanged = 0
    for path in sorted(after):
        if path not in before:
            print("new:       %s (%s)" % (path, after[path][:12]))
        elif after[path] != before[path]:
            changed += 1
            print("changed:   %s (%s -> %s)"
                  % (path, before[path][:12], after[path][:12]))
        else:
            unchanged += 1
    for path in sorted(set(before) - set(after)):
        print("orphaned:  %s (not rewritten)" % path)
    print("digests: %d changed, %d unchanged" % (changed, unchanged))


def _cmd_golden(args):
    from .campaign.batch.equivalence import (
        check_campaign_golden,
        write_campaign_golden,
    )
    from .diff import check_mapping_golden, write_mapping_golden
    from .diff.snapshots import mapping_golden_dir
    from .sim.diffcheck import (
        ENGINES,
        check_golden,
        check_golden_profiles,
        corpus_file_digests,
        golden_names,
        uncommitted_source_changes,
        write_golden,
    )

    names = args.names or None
    known = set(golden_names())
    for name in args.names:
        if name not in known:
            raise ReproError(
                "unknown golden workload %r (one of: %s)"
                % (name, ", ".join(golden_names())))
    if args.update:
        dirty = uncommitted_source_changes()
        if dirty and not args.force:
            print("error: refusing to re-baseline the golden corpus: "
                  "uncommitted changes under src/repro/:",
                  file=sys.stderr)
            for path in dirty:
                print("  %s" % path, file=sys.stderr)
            print("commit (or stash) them first, or pass --force to "
                  "re-baseline anyway", file=sys.stderr)
            return 2
        before = corpus_file_digests(args.dir)
        for path in write_golden(args.dir, names=names):
            print("wrote %s" % path)
        print("wrote %s" % write_campaign_golden(args.dir, names=names))
        for path in write_mapping_golden(mapping_golden_dir(args.dir),
                                         names=names):
            print("wrote %s" % path)
        _report_corpus_changes(before, corpus_file_digests(args.dir))
        return 0
    problems = {}
    for engine in ENGINES:
        for name, problem in check_golden(args.dir, names=names,
                                          engine=engine).items():
            problems["%s/%s" % (name, engine)] = problem
    for name, problem in check_golden_profiles(names=names).items():
        problems["profile:%s" % name] = problem
    for key, problem in check_campaign_golden(args.dir,
                                              names=names).items():
        problems["campaign:%s" % key] = problem
    mapping_report = check_mapping_golden(mapping_golden_dir(args.dir),
                                          names=names)
    for entry in mapping_report.entries:
        if entry.status == "clean":
            continue
        problems["mapping:%s" % entry.key] = (
            entry.problem if entry.problem is not None
            else entry.diff.summary())
    checked = names or golden_names()
    if not problems:
        print("golden corpus OK (%d workload(s) checked, sim + profile "
              "+ campaign + mapping)" % len(checked))
        return 0
    for name, problem in sorted(problems.items()):
        print("%s: %s" % (name, problem))
    print("golden corpus MISMATCH (%d problem(s) over %d workload(s))"
          % (len(problems), len(checked)))
    return 1


def _diff_thresholds(args):
    from .diff import DiffThresholds

    return DiffThresholds(
        max_moves=args.allow_moves,
        tolerances={
            "vulnerability": args.tol_vulnerability / 100.0,
            "dynamic_energy": args.tol_energy / 100.0,
            "static_energy": args.tol_energy / 100.0,
            "cycles": args.tol_cycles / 100.0,
        })


def _diff_flavors(args):
    return None if args.flavor == "both" else (args.flavor,)


def _diff_side_label(which, args):
    parts = ["%s profile" % (getattr(args, which + "_profile")
                             or "dynamic")]
    structure = getattr(args, which + "_structure")
    if structure:
        parts.append("structure=%s" % structure)
    return ", ".join(parts)


def _diff_fresh_pair(args, thresholds):
    """Two freshly computed runs of one workload, settings per side."""
    from .diff import DiffSetReport, compute_snapshot, diff_snapshots

    report = DiffSetReport(thresholds=thresholds)
    sides = {}
    for which in ("a", "b"):
        sides[which] = compute_snapshot(
            args.workload,
            flavor=getattr(args, which + "_profile") or "dynamic",
            structure=getattr(args, which + "_structure")
            or args.structure)
    report.add(args.workload, diff_snapshots(
        sides["a"], sides["b"], a_label=_diff_side_label("a", args),
        b_label=_diff_side_label("b", args), key=args.workload))
    return report


def _diff_paths(args, thresholds):
    """Diff two snapshot files, or two directories aligned by name."""
    from .diff import DiffSetReport, diff_snapshots, load_snapshot

    report = DiffSetReport(thresholds=thresholds)
    a_dir, b_dir = os.path.isdir(args.a), os.path.isdir(args.b)
    if a_dir != b_dir:
        raise ReproError(
            "cannot diff a file against a directory (%r vs %r)"
            % (args.a, args.b))
    if not a_dir:
        key = os.path.basename(args.a)
        try:
            diff = diff_snapshots(load_snapshot(args.a),
                                  load_snapshot(args.b),
                                  a_label=args.a, b_label=args.b,
                                  key=key)
        except ReproError as error:
            report.add_problem(key, str(error))
            return report
        report.add(key, diff)
        return report
    entries = sorted(set(
        name for directory in (args.a, args.b)
        for name in os.listdir(directory) if name.endswith(".json")))
    if not entries:
        raise ReproError("no snapshot .json files under %r or %r"
                         % (args.a, args.b))
    for name in entries:
        try:
            diff = diff_snapshots(
                load_snapshot(os.path.join(args.a, name)),
                load_snapshot(os.path.join(args.b, name)),
                a_label=args.a, b_label=args.b, key=name)
        except ReproError as error:
            report.add_problem(name, str(error))
            continue
        report.add(name, diff)
    return report


def _cmd_diff(args):
    from .diff import check_mapping_golden
    from .diagnostics import emit_report

    thresholds = _diff_thresholds(args)
    try:
        if args.workload:
            if args.a or args.b:
                raise ReproError(
                    "--workload computes both sides; drop the "
                    "positional snapshot paths")
            report = _diff_fresh_pair(args, thresholds)
        elif args.a or args.b:
            if not (args.a and args.b):
                raise ReproError("need two snapshot paths (or use "
                                 "--against / --workload)")
            report = _diff_paths(args, thresholds)
        else:
            names = (args.workloads.split(",")
                     if args.workloads else None)
            report = check_mapping_golden(
                args.against, names=names,
                flavors=_diff_flavors(args), thresholds=thresholds)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    return emit_report(report,
                       fmt="json" if args.json else "text",
                       out=args.out)


def _cmd_disasm(args):
    program, _ = _resolve_workload(
        args.workload, args.array_words, args.outer_iterations, args.scale)
    if program is None:
        raise ReproError("workload %r has no program to disassemble"
                         % args.workload)
    for address, text in disassemble_program(program):
        print("0x%08x  %s" % (address, text))
    return 0


def _add_obs_arguments(parser):
    parser.add_argument("--trace", metavar="FILE.json", dest="trace",
                        help="record spans and write a Chrome/Perfetto "
                             "trace-event JSON file (load at "
                             "ui.perfetto.dev)")
    parser.add_argument("--metrics", metavar="FILE", dest="metrics",
                        help="record counters/histograms and write them "
                             "as Prometheus text")
    parser.add_argument("--ledger", metavar="FILE.jsonl", dest="ledger",
                        help="append one run-ledger record for this "
                             "invocation (query it with 'runs')")


def _add_profile_flavor_argument(parser):
    parser.add_argument("--profile", default="dynamic",
                        choices=("dynamic", "static"),
                        help="profile source: measure by simulation "
                             "(dynamic) or estimate with the static "
                             "analyzer (static, simulation-free)")


def _add_workload_arguments(parser):
    parser.add_argument("workload")
    parser.add_argument("--array-words", type=int, default=256,
                        help="case-study array size in words")
    parser.add_argument("--outer-iterations", type=int, default=4,
                        help="case-study outer loop count")
    parser.add_argument("--scale", type=int, default=1,
                        help="kernel input scale factor")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ftspm",
        description="FTSPM (DSN 2013) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list workloads and experiments")
    p_list.set_defaults(func=_cmd_list)

    p_exp = sub.add_parser("experiments",
                           help="regenerate paper tables/figures")
    p_exp.add_argument("names", nargs="*", metavar="NAME")
    p_exp.add_argument("--out", help="directory to write .txt reports")
    p_exp.set_defaults(func=_cmd_experiments)

    p_report = sub.add_parser(
        "report", help="generate the full reproduction report (markdown)")
    p_report.add_argument("--out", help="output path (default: stdout)")
    p_report.add_argument("--array-words", type=int, default=256)
    p_report.add_argument("--outer-iterations", type=int, default=4)
    p_report.add_argument("--cache-dir", metavar="PATH",
                          help="persist pipeline artifacts here and reuse "
                               "them on repeat invocations")
    p_report.add_argument("--timings", action="store_true",
                          help="print a per-experiment wall-clock table "
                               "to stderr")
    _add_obs_arguments(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_golden = sub.add_parser(
        "golden",
        help="check (or --update) the committed golden-trace corpus")
    p_golden.add_argument("names", nargs="*", metavar="WORKLOAD",
                          help="subset of corpus entries (default: all)")
    p_golden.add_argument("--update", action="store_true",
                          help="regenerate the corpus from the reference "
                               "engine instead of checking it")
    p_golden.add_argument("--dir", default=os.path.join("tests", "golden"),
                          help="corpus directory (default: tests/golden)")
    p_golden.add_argument("--force", action="store_true",
                          help="allow --update even with uncommitted "
                               "changes under src/repro/ (normally "
                               "refused so a regression cannot be "
                               "silently re-baselined)")
    p_golden.set_defaults(func=_cmd_golden)

    p_diff = sub.add_parser(
        "diff",
        help="structural mapping diff: which blocks changed region, "
             "and what it cost (exit 0 clean / 1 violation / 2 error)")
    p_diff.add_argument("a", nargs="?", metavar="A",
                        help="snapshot file or directory (old side)")
    p_diff.add_argument("b", nargs="?", metavar="B",
                        help="snapshot file or directory (new side)")
    p_diff.add_argument("--against", metavar="DIR",
                        default=os.path.join("tests", "golden",
                                             "mappings"),
                        help="with no positionals: recompute mappings "
                             "at HEAD and diff them against this "
                             "snapshot corpus (default: "
                             "tests/golden/mappings)")
    p_diff.add_argument("--workloads", metavar="W1,W2,...",
                        help="corpus subset for --against mode "
                             "(default: every golden workload)")
    p_diff.add_argument("--flavor", default="both",
                        choices=("dynamic", "static", "both"),
                        help="profile flavors to check in --against "
                             "mode")
    p_diff.add_argument("--workload", metavar="SPEC",
                        help="fresh-pair mode: compute BOTH sides of "
                             "this workload, with per-side settings "
                             "(--a-*/--b-*)")
    p_diff.add_argument("--structure", default="ftspm",
                        choices=sorted(STRUCTURES),
                        help="structure for fresh-pair sides without "
                             "an explicit --a-/--b-structure")
    for side in ("a", "b"):
        p_diff.add_argument("--%s-profile" % side,
                            choices=("dynamic", "static"), default=None,
                            help="side %s profile flavor" % side)
        p_diff.add_argument("--%s-structure" % side,
                            choices=sorted(STRUCTURES), default=None,
                            help="side %s structure" % side)
    p_diff.add_argument("--json", action="store_true",
                        help="print the machine-readable report "
                             "(schema: docs/schemas/"
                             "diff-report.schema.json)")
    p_diff.add_argument("--out", metavar="FILE",
                        help="also write the JSON report here")
    p_diff.add_argument("--allow-moves", type=int, default=0,
                        metavar="N",
                        help="tolerate up to N region moves per entry "
                             "(default 0)")
    p_diff.add_argument("--tol-vulnerability", type=float, default=0.0,
                        metavar="PCT",
                        help="relative vulnerability tolerance in "
                             "percent (default 0)")
    p_diff.add_argument("--tol-energy", type=float, default=0.0,
                        metavar="PCT",
                        help="relative dynamic/static energy tolerance "
                             "in percent (default 0)")
    p_diff.add_argument("--tol-cycles", type=float, default=0.0,
                        metavar="PCT",
                        help="relative cycle-count tolerance in "
                             "percent (default 0)")
    p_diff.set_defaults(func=_cmd_diff)

    p_profile = sub.add_parser("profile", help="profile a workload")
    _add_workload_arguments(p_profile)
    _add_profile_flavor_argument(p_profile)
    _add_obs_arguments(p_profile)
    p_profile.set_defaults(func=_cmd_profile)

    p_lint = sub.add_parser(
        "lint", help="static diagnostics over workloads or .s files")
    p_lint.add_argument("targets", nargs="+", metavar="TARGET",
                        help="workload spec ('case', 'kernel:NAME') or "
                             "an assembly file path")
    p_lint.add_argument("--format", default="text",
                        choices=("text", "json"),
                        help="finding output format")
    p_lint.set_defaults(func=_cmd_lint)

    p_devlint = sub.add_parser(
        "devlint",
        help="determinism/concurrency checks over the repro package itself")
    p_devlint.add_argument(
        "paths", nargs="*", metavar="FILE",
        help="specific .py files to check (default: the whole package)")
    p_devlint.add_argument("--format", default="text",
                           choices=("text", "json"),
                           help="finding output format")
    p_devlint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppression file (default: %s at the repo root, "
             "if present)" % DEVLINT_BASELINE)
    p_devlint.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, including baselined ones")
    p_devlint.add_argument(
        "--write-baseline", action="store_true",
        help="capture current findings as suppressions (justifications "
             "left as TODO placeholders)")
    p_devlint.add_argument("--out", metavar="FILE",
                           help="also write the JSON report here")
    p_devlint.add_argument("--list-rules", action="store_true",
                           help="print the rule catalog and exit")
    p_devlint.set_defaults(func=_cmd_devlint)

    p_map = sub.add_parser("map", help="compute a mapping plan")
    _add_workload_arguments(p_map)
    _add_profile_flavor_argument(p_map)
    p_map.add_argument("--structure", default="ftspm",
                       choices=sorted(STRUCTURES))
    p_map.add_argument("--mode", default="balanced",
                       choices=[m.value for m in OptimizationMode])
    _add_obs_arguments(p_map)
    p_map.set_defaults(func=_cmd_map)

    p_run = sub.add_parser("run", help="run a workload on a structure")
    _add_workload_arguments(p_run)
    p_run.add_argument("--structure", default="ftspm",
                       choices=sorted(STRUCTURES))
    p_run.set_defaults(func=_cmd_run)

    p_inject = sub.add_parser("inject", help="Monte-Carlo fault injection")
    _add_workload_arguments(p_inject)
    p_inject.add_argument("--structure", default="ftspm",
                          choices=sorted(STRUCTURES))
    p_inject.add_argument("--trials", type=int, default=100_000)
    p_inject.add_argument("--seed", type=int, default=0xF7F7)
    p_inject.add_argument("--jobs", type=int, default=1,
                          help="worker processes for shard execution "
                               "(counts are identical for any value)")
    _add_obs_arguments(p_inject)
    p_inject.set_defaults(func=_cmd_inject)

    p_campaign = sub.add_parser(
        "campaign",
        help="parallel, resumable Monte-Carlo campaign with Wilson CIs")
    _add_workload_arguments(p_campaign)
    p_campaign.add_argument("--structure", default="ftspm",
                            choices=sorted(STRUCTURES))
    p_campaign.add_argument("--trials", type=int, default=200_000)
    p_campaign.add_argument("--jobs", type=int, default=1,
                            help="worker processes for shard execution")
    p_campaign.add_argument("--seed", type=int, default=0xF7F7)
    p_campaign.add_argument("--shard-size", type=int, default=25_000,
                            help="trials per shard (checkpoint granule)")
    p_campaign.add_argument("--out", metavar="RUN_DIR",
                            help="run directory for shard checkpoints")
    p_campaign.add_argument("--resume", action="store_true",
                            help="continue a checkpointed run in --out")
    p_campaign.add_argument("--retries", type=int, default=2,
                            help="retry budget per shard before it is "
                                 "recorded as failed")
    p_campaign.add_argument("--no-progress", action="store_true",
                            help="suppress per-shard progress on stderr")
    p_campaign.add_argument("--dry-run", action="store_true",
                            help="print the shard plan (shards, trials, "
                                 "seeds) and exit without running any "
                                 "trials")
    _add_obs_arguments(p_campaign)
    p_campaign.set_defaults(func=_cmd_campaign)

    p_serve = sub.add_parser(
        "serve",
        help="serve mapping/campaign/lint/profile jobs over HTTP")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787,
                         help="listen port (0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="persistent campaign worker processes "
                              "shared by all jobs")
    p_serve.add_argument("--job-threads", type=int, default=8,
                         help="concurrent jobs (thread executor size)")
    p_serve.add_argument("--cache-dir", metavar="PATH",
                         help="artifact store: results persist here and "
                              "identical jobs are served from it, even "
                              "across restarts")
    p_serve.add_argument("--ledger", metavar="FILE.jsonl",
                         help="append a run-ledger record per job and "
                              "expose it read-only at /v1/runs")
    p_serve.set_defaults(func=_cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit one job to a running 'serve' instance")
    p_submit.add_argument("kind",
                          choices=("mapping", "campaign", "lint",
                                   "profile"))
    p_submit.add_argument("workload")
    p_submit.add_argument("--host", default="127.0.0.1")
    p_submit.add_argument("--port", type=int, default=8787)
    p_submit.add_argument("--param", action="append", default=[],
                          metavar="KEY=VALUE",
                          help="job parameter (repeatable), e.g. "
                               "--param trials=50000 --param "
                               "structure=ftspm")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="print the submission status and exit "
                               "instead of polling for the result")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          help="seconds to wait for completion")
    p_submit.set_defaults(func=_cmd_submit)

    p_runs = sub.add_parser(
        "runs", help="query the run ledger (list/show/compare)")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    def _add_runs_arguments(parser):
        parser.add_argument("--ledger", metavar="FILE.jsonl",
                            help="ledger to query (default: the "
                                 "REPRO_LEDGER environment variable)")
        parser.add_argument("--json", action="store_true",
                            help="print machine-readable JSON instead "
                                 "of a table")

    p_runs_list = runs_sub.add_parser(
        "list", help="list ledger records, newest last")
    p_runs_list.add_argument("--since", metavar="WHEN",
                             help="only runs started at/after WHEN: "
                                  "epoch seconds, an ISO date/time, or "
                                  "an age like 90s/30m/12h/7d")
    _add_runs_arguments(p_runs_list)
    p_runs_list.set_defaults(func=_cmd_runs_list)

    p_runs_show = runs_sub.add_parser(
        "show", help="replay one run's params/durations/stats")
    p_runs_show.add_argument("id",
                             help="run id (a unique prefix works)")
    _add_runs_arguments(p_runs_show)
    p_runs_show.set_defaults(func=_cmd_runs_show)

    p_runs_compare = runs_sub.add_parser(
        "compare", help="diff two runs' params, durations and stats")
    p_runs_compare.add_argument("a", help="first run id")
    p_runs_compare.add_argument("b", help="second run id")
    _add_runs_arguments(p_runs_compare)
    p_runs_compare.set_defaults(func=_cmd_runs_compare)

    p_disasm = sub.add_parser("disasm", help="disassemble a workload")
    _add_workload_arguments(p_disasm)
    p_disasm.set_defaults(func=_cmd_disasm)

    p_trace = sub.add_parser(
        "trace", help="record or replay a memory-access trace")
    _add_workload_arguments(p_trace)
    p_trace.add_argument("--structure", default="baseline-sram",
                         choices=sorted(STRUCTURES))
    p_trace.add_argument("--out", help="write the captured trace here")
    p_trace.add_argument("--replay", metavar="FILE",
                         help="replay FILE instead of recording "
                              "(workload argument is ignored)")
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    # 'runs' reads a ledger, and 'serve' hands its --ledger to the
    # service (one record per job); only the other subcommands wrap
    # the whole invocation in an evaluation record here.
    ledger_path = (getattr(args, "ledger", None)
                   if args.command not in ("runs", "serve") else None)
    if trace_path or metrics_path or ledger_path:
        obs.enable()
    entry = ledger = None
    if ledger_path:
        from .obs.ledger import RunLedger

        ledger = RunLedger(ledger_path)
        obs.set_ledger(ledger)
        entry = ledger.begin("evaluation", params=_evaluation_params(args))
    code = 1
    try:
        code = args.func(args)
        return code
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        code = 1
        return 1
    finally:
        if trace_path or metrics_path or ledger_path:
            # Exports go to files and notices to stderr, so the
            # subcommand's stdout stays byte-stable under --trace.
            if entry is not None:
                record = ledger.finish(
                    entry, status="ok" if not code else "exit-%d" % code)
                print("recorded %s in %s" % (record["id"], ledger_path),
                      file=sys.stderr)
                obs.set_ledger(None)
            if trace_path:
                obs.write_trace(trace_path)
                print("wrote %s" % trace_path, file=sys.stderr)
            if metrics_path:
                obs.write_metrics(metrics_path)
                print("wrote %s" % metrics_path, file=sys.stderr)
            obs.reset()


if __name__ == "__main__":
    sys.exit(main())
