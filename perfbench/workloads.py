"""The benchmark's three workloads: set-up, timed legs and output checks.

Every workload is closed-loop batch work from one client process: the
next operation starts only when the previous one has returned.  Each
workload times two legs of its own work and reports them as the
``primary_s`` and ``secondary_s`` end-to-end metrics (README.md maps
them to the named throughput figures this module also computes).

Repeated legs are summarised per operation: every operation runs once
per round, and a leg's time is the sum over its operations of each
operation's median round time.  A slow host phase then costs one
sample of an operation, not the leg.

The workloads call the package only through public names looked up on
their defining modules at call time (``kernels.kernel_program`` rather
than a name bound at import), so the traced mode in :mod:`layers` sees
every call it wraps.  They pass no ``engine=``/``injector=`` argument:
results do not depend on those knobs and the benchmark must outlive
them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import statistics
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch space for stores and traces, inside the checkout (gitignored)
WORK_DIR = os.path.join(ROOT, ".perfbench")
EXPECTATIONS_PATH = os.path.join(HERE, "expectations.json")


def _untraced(phase):
    return contextlib.nullcontext()


def leg_seconds(samples):
    """Sum over operations of each operation's median round time.

    ``samples`` maps an operation key to its per-round wall times.
    """
    return sum(statistics.median(times) for times in samples.values())


def work_dir():
    os.makedirs(WORK_DIR, exist_ok=True)
    return WORK_DIR


class Outcome:
    """Operations attempted and the ones whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    @property
    def failed(self):
        return len(self.failures)

    @property
    def ok_ratio(self):
        """Operations that passed their check over operations attempted."""
        return (self.attempted - self.failed) / self.attempted


class Workload:
    """Shared shape: ``setup()`` once, ``run()`` per timed pass."""

    name = ""

    def __init__(self, seed):
        self.seed = seed
        self.outcome = Outcome()

    def setup(self):
        """Everything a user pays once: imports, inputs, pools."""
        self.build_inputs()

    def build_inputs(self):
        """The re-runnable part of set-up (traced again in trace mode)."""

    def run(self, timed=_untraced):
        """One timed pass; returns ``{"primary_s", "secondary_s", ...}``.

        Every timed operation runs inside ``with timed(phase):``.  The
        traced mode uses it to tag the operation's calls with their
        phase (cold/warm, profile/placed, serial/pool) and to know the
        timed wall its layers must account for.
        """
        raise NotImplementedError

    def layer_info(self):
        """Workload-side facts the per-layer metrics need."""
        return {}

    def close(self):
        """Stop every process and remove every file the workload made."""


# --- report ------------------------------------------------------------------


class ReportWorkload(Workload):
    """Every experiment, in the report's section order, through one fresh
    :class:`~repro.pipeline.EvaluationContext` over a fresh on-disk
    :class:`~repro.pipeline.ArtifactStore`; then warm replays, each
    through a fresh context over the filled store.

    The cold pass repeats over fresh stores; ``primary_s`` sums each
    experiment's median cold time.  ``secondary_s`` is the median warm
    pass, since one pass is too short to time alone.
    """

    name = "report"
    #: one cold pass and its warm replays: ~12 s on the reference host
    #: (steadiness.json medians: cold 10.9-11.1 s, then 8 warm x 0.16 s)
    COLD_PASS_S = 12.0
    WARM_PER_COLD = 8

    def __init__(self, seed, seconds, tiny=False):
        super().__init__(seed)
        self.array_words, self.outer_iterations = (
            (32, 1) if tiny else (256, 4))
        # The Monte-Carlo ablations at 1/20 of the report's default scale
        # (25 000 trials, 8 000 words), so several cold passes fit a run.
        self.scaled = {
            "ablation-interleaving": {
                "trials": 100 if tiny else 1_250, "seed": seed},
            "ablation-scrubbing": {"words": 20 if tiny else 400},
        }
        if tiny:
            self.scaled["kernels-sweep"] = {"kernels": ["crc32"]}
        self.cold_passes = 1 if tiny else max(
            1, round(seconds / self.COLD_PASS_S))
        self.warm_per_cold = 3 if tiny else self.WARM_PER_COLD
        self._restore = {}
        self._store_dir = None
        self._store_bytes = 0

    def setup(self):
        from repro.eval import EXPERIMENTS, iter_report_sections
        from repro.pipeline import (
            ArtifactStore,
            EvaluationContext,
            set_context,
        )

        self._experiments = EXPERIMENTS
        self._api = (iter_report_sections, EvaluationContext, ArtifactStore,
                     set_context)
        # A renamed experiment or scaling parameter fails the run (KeyError
        # here, TypeError at the call) instead of silently running the
        # ablation at its full scale.
        for name, params in self.scaled.items():
            self._restore[name] = EXPERIMENTS[name]
            EXPERIMENTS[name] = functools.partial(EXPERIMENTS[name], **params)
        self._store_dir = tempfile.mkdtemp(prefix="report-",
                                           dir=work_dir())

    def _pass(self, store_dir):
        """One report pass through a fresh, installed context.

        Returns the context, the experiment results and each
        experiment's wall time.
        """
        iter_sections, EvaluationContext, ArtifactStore, set_context = (
            self._api)
        context = EvaluationContext(store=ArtifactStore(store_dir))
        previous = set_context(context)
        results, seconds = [], {}
        try:
            start = time.perf_counter()
            for _, result in iter_sections(self.array_words,
                                           self.outer_iterations):
                now = time.perf_counter()
                results.append(result)
                seconds[result.name] = now - start
                start = now
        finally:
            set_context(previous)
        return context, results, seconds

    @staticmethod
    def _text(results):
        return "\n\n".join(result.text for result in results)

    def run(self, timed=_untraced):
        cold, warm = {}, []
        reference = None
        for cold_index in range(self.cold_passes):
            store_dir = os.path.join(self._store_dir, "store")
            shutil.rmtree(store_dir, ignore_errors=True)
            with timed("cold"):
                context, results, seconds = self._pass(store_dir)
            for name, elapsed in seconds.items():
                cold.setdefault(name, []).append(elapsed)
            counters = context.counters
            sweep = [r for r in results if r.name == "kernels-sweep"]
            text = self._text(results)
            reference = text if reference is None else reference
            self.outcome.check(
                "cold pass %d" % cold_index,
                text == reference
                and counters.simulations > 0
                and counters.unique_simulations == counters.simulations
                and len(sweep) == 1 and sweep[0].data["runs"] > 0
                and sweep[0].data["verified"] == sweep[0].data["runs"])
            self._store_bytes = _tree_bytes(store_dir)
            del context, results
            for warm_index in range(self.warm_per_cold):
                with timed("warm"):
                    context, results, seconds = self._pass(store_dir)
                warm.append(sum(seconds.values()))
                store = context.store
                self.outcome.check(
                    "warm pass %d.%d" % (cold_index, warm_index),
                    self._text(results) == reference
                    and context.counters.simulations == 0
                    and store.misses == 0 and store.writes == 0)
        cold_s = leg_seconds(cold)
        warm_s = statistics.median(warm)
        return {
            "primary_s": cold_s,
            "secondary_s": warm_s,
            "timed_s": sum(map(sum, cold.values())) + sum(warm),
            "named": {
                "report_cold_s": (cold_s, "s"),
                "report_warm_s": (warm_s, "s"),
            },
        }

    def layer_info(self):
        return {"store_put_bytes": self._store_bytes}

    def close(self):
        for name, factory in self._restore.items():
            self._experiments[name] = factory
        self._restore = {}
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None


def _tree_bytes(root):
    total = 0
    for directory, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(directory, name))
                     for name in files)
    return total


# --- simulate ----------------------------------------------------------------


class SimulateWorkload(Workload):
    """The seven real kernels and the case study, above the report's
    scales, on all three structures.

    Per program and round: one profiling run (cache-routed, profiler
    subscribed to the event bus) and, per structure, plan + build + run
    of the placed program (SPM-routed, silent bus).  ``primary_s`` is a
    round of placed runs, ``secondary_s`` a round of profiling runs.
    """

    name = "simulate"
    #: one round of every program: ~11 s on the reference host
    #: (steadiness.json medians: 10.4-12.1 s)
    ROUND_S = 11.0

    def __init__(self, seed, seconds, tiny=False, expectations=None):
        super().__init__(seed)
        self.kernel_scale = 1 if tiny else 2
        self.kernel_subset = ("crc32", "dijkstra") if tiny else None
        self.case_shape = (32, 1) if tiny else (384, 4)
        self.rounds = 1 if tiny else max(1, round(seconds / self.ROUND_S))
        if expectations is None:
            expectations = load_expectations()
        self.expectations = expectations
        self.programs = []
        #: simulated [instructions, cycles] of every run, by program key
        self.observed = {}

    def setup(self):
        from repro.core import online
        from repro.eval import structures
        from repro.profile import profiler

        self._modules = (online, structures, profiler)
        self.build_inputs()

    def build_inputs(self):
        from repro.workloads import case_study, kernels

        names = self.kernel_subset or kernels.kernel_names()
        programs = []
        for name in names:
            build = kernels.kernel_program(name, scale=self.kernel_scale)
            programs.append(("kernel:%s@%d" % (name, self.kernel_scale),
                             build.program, dict(build.expected)))
        words, outer = self.case_shape
        programs.append(("case:%dx%d" % (words, outer),
                         case_study.case_study_program(words, outer), {}))
        self.programs = programs

    def run(self, timed=_untraced):
        online, structures, profiler = self._modules
        placed, profiling = {}, {}
        placed_inst = profile_inst = 0
        for round_index in range(self.rounds):
            for key, program, golden in self.programs:
                expected = self.expectations.get(key, {})
                with timed("profile"):
                    start = time.perf_counter()
                    profile = profiler.profile_program(program)
                    elapsed = time.perf_counter() - start
                profiling.setdefault(key, []).append(elapsed)
                observed = [profile.total_instructions,
                            profile.total_cycles]
                self.observed.setdefault(key, {})["profile"] = observed
                self.outcome.check("%s profile" % key,
                                   observed == expected.get("profile"))
                if round_index == 0:
                    profile_inst += profile.total_instructions
                for structure in structures.STRUCTURES:
                    with timed("placed"):
                        start = time.perf_counter()
                        config, plan, _ = structures.plan_for_structure(
                            profile, structure)
                        machine = online.build_machine(program, config,
                                                       plan, profile)
                        result = machine.run()
                        elapsed = time.perf_counter() - start
                    placed.setdefault((key, structure), []).append(elapsed)
                    observed = [result.instructions, result.cycles]
                    self.observed[key][structure] = observed
                    self.outcome.check(
                        "%s on %s" % (key, structure),
                        observed == expected.get(structure)
                        and _golden_ok(machine, program, golden))
                    if round_index == 0:
                        placed_inst += result.instructions
        placed_s = leg_seconds(placed)
        profile_s = leg_seconds(profiling)
        return {
            "primary_s": placed_s,
            "secondary_s": profile_s,
            "timed_s": sum(map(sum, placed.values()))
            + sum(map(sum, profiling.values())),
            "named": {
                "sim_minst_per_s": (placed_inst / placed_s / 1e6,
                                    "Minst/s"),
                "profile_minst_per_s": (profile_inst / profile_s / 1e6,
                                        "Minst/s"),
            },
        }


def _golden_ok(machine, program, golden):
    """Every golden symbol holds its Python-computed 32-bit result."""
    return all(
        int.from_bytes(machine.memory.peek_bytes(program.symbol(symbol), 4),
                       "little") == value
        for symbol, value in golden.items())


def load_expectations(path=EXPECTATIONS_PATH):
    with open(path) as handle:
        return json.load(handle)["runs"]


# --- campaign ----------------------------------------------------------------


class CampaignWorkload(Workload):
    """A fixed mix of region-surface campaigns on synthetic MiBench
    profiles, on ``ftspm`` and ``baseline-sram``, at the default shard
    size: serially in-process (``repro campaign``'s ``--jobs 1``), then
    through a persistent 2-worker ``ShardScheduler`` started at set-up
    (the ``repro serve`` default).

    ``primary_s`` is the serial leg of the mix, ``secondary_s`` the pool
    leg.
    """

    name = "campaign"
    WORKERS = 2
    PROFILES = ("adpcm", "basicmath", "bitcount")
    STRUCTURES = ("ftspm", "baseline-sram")
    #: one round of the mix (both legs): ~9 s on the reference host
    #: (steadiness.json medians: 8.8-9.0 s); sized as 9.5 s so that a
    #: 32-second run is 3 rounds, like the other workloads
    ROUND_S = 9.5

    def __init__(self, seed, seconds, tiny=False):
        super().__init__(seed)
        self.profiles = self.PROFILES[:1] if tiny else self.PROFILES
        self.trials = 50_000 if tiny else 2_500_000
        self.rounds = 1 if tiny else max(1, round(seconds / self.ROUND_S))
        self.specs = []
        self.scheduler = None
        self.serial_summaries = []
        self.pool_summaries = []
        self.pool_walls = []

    def build_inputs(self):
        from repro.campaign import CampaignSpec
        from repro.pipeline import get_context

        context = get_context()
        specs = []
        for index, name in enumerate(self.profiles):
            profile = context.synthetic_profile(name)
            for offset, structure in enumerate(self.STRUCTURES):
                seed = self.seed * 16 + 2 * index + offset
                specs.append(((name, structure), CampaignSpec.from_structure(
                    profile, structure, trials=self.trials, seed=seed)))
        self.specs = specs

    def setup(self):
        from repro.campaign import CampaignRunner, CampaignSpec
        from repro.campaign.scheduler import ShardScheduler
        from repro.pipeline import get_context

        self._runner = CampaignRunner
        self.build_inputs()
        self.scheduler = ShardScheduler(workers=self.WORKERS)
        # One shard per worker, so every worker process exists and has
        # imported the package before the pool leg is timed.
        warm = CampaignSpec.from_structure(
            get_context().synthetic_profile(self.profiles[0]),
            "baseline-sram", trials=self.WORKERS * 1_000, shard_size=1_000,
            seed=self.seed)
        CampaignRunner(warm, scheduler=self.scheduler).run()

    def run(self, timed=_untraced):
        CampaignRunner = self._runner
        serial, pool = {}, {}
        serial_results = {}
        self.serial_summaries, self.pool_summaries = [], []
        self.pool_walls = []
        for _ in range(self.rounds):
            for key, spec in self.specs:
                with timed("serial"):
                    start = time.perf_counter()
                    summary = CampaignRunner(spec).run()
                    elapsed = time.perf_counter() - start
                serial.setdefault(key, []).append(elapsed)
                self.serial_summaries.append((key, summary))
                serial_results[key] = summary.result
                self.outcome.check("%s/%s serial" % key,
                                   _campaign_ok(summary, spec))
            for key, spec in self.specs:
                with timed("pool"):
                    start = time.perf_counter()
                    summary = CampaignRunner(
                        spec, scheduler=self.scheduler).run()
                    wall = time.perf_counter() - start
                pool.setdefault(key, []).append(wall)
                self.pool_summaries.append((key, summary))
                self.pool_walls.append(wall)
                self.outcome.check(
                    "%s/%s pool" % key,
                    _campaign_ok(summary, spec)
                    and summary.result.to_dict()
                    == serial_results[key].to_dict())
        serial_s = leg_seconds(serial)
        pool_s = leg_seconds(pool)
        mix_trials = self.trials * len(self.specs)
        return {
            "primary_s": serial_s,
            "secondary_s": pool_s,
            "timed_s": sum(map(sum, serial.values()))
            + sum(map(sum, pool.values())),
            "named": {
                "campaign_mtrials_per_s": (mix_trials / serial_s / 1e6,
                                           "Mtrials/s"),
                "campaign_pool_mtrials_per_s": (mix_trials / pool_s / 1e6,
                                                "Mtrials/s"),
            },
        }

    def layer_info(self):
        return {
            "workers": self.WORKERS,
            "serial": self.serial_summaries,
            "pool": self.pool_summaries,
            "pool_walls": self.pool_walls,
        }

    def close(self):
        if self.scheduler is not None:
            self.scheduler.close()
            self.scheduler = None


#: outcome classes of a campaign trial; every trial lands in exactly one
OUTCOME_CLASSES = ("benign_immune", "benign_empty", "benign_dead", "none",
                   "dre", "due", "sdc")


def _campaign_ok(summary, spec):
    """Complete, no failed shard, and the outcome classes sum to trials."""
    result = summary.result
    return (summary.complete and not summary.failed_shards
            and result.trials == spec.trials
            and sum(getattr(result, name) for name in OUTCOME_CLASSES)
            == result.trials)


WORKLOADS = {
    workload.name: workload
    for workload in (ReportWorkload, SimulateWorkload, CampaignWorkload)
}
