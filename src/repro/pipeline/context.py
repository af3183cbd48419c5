"""The cached, single-pass evaluation pipeline.

An :class:`EvaluationContext` is the one place workloads are assembled,
simulated, profiled, planned, and evaluated.  Every product is an
**artifact** memoized under a content-hash key (see
:mod:`repro.pipeline.keys`):

* in-memory, always — within one process each unique
  ``(workload, structure, config)`` triple is simulated exactly once,
  no matter how many experiments consume it (the counters prove it);
* on disk, optionally — construct with ``store`` (an
  :class:`~repro.pipeline.store.ArtifactStore` or a path) and artifacts
  survive across process boundaries: a second ``repro report
  --cache-dir`` run replays every simulation and Monte-Carlo campaign
  from the store, byte-identically.

Experiments receive a context (or use the process-wide default from
:func:`get_context`) instead of re-simulating behind ``lru_cache``
walls, which is what makes the one-shot report a single-pass pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..config import baseline_sram_config
from ..errors import ReproError
from .keys import (
    artifact_key,
    config_fingerprint,
    profile_fingerprint,
    program_fingerprint,
    thresholds_fingerprint,
)
from .store import ArtifactStore

_MISS = object()


@dataclass
class PipelineCounters:
    """Observable cost of a context: what was computed vs replayed.

    ``simulations`` counts actual cycle-accurate ``Machine.run()``
    executions (profiling runs included); ``simulated_keys`` records
    each run's artifact key, so asserting the list has no duplicates
    proves the simulate-once guarantee.
    """

    simulations: int = 0
    plans: int = 0
    evaluations: int = 0
    memo_hits: int = 0
    store_hits: int = 0
    computes: int = 0
    simulated_keys: list = field(default_factory=list)

    def note_simulation(self, key):
        self.simulations += 1
        self.simulated_keys.append(key)

    @property
    def unique_simulations(self):
        return len(set(self.simulated_keys))


class EvaluationContext:
    """Memoizing façade over the simulate → profile → plan → evaluate
    pipeline.  ``store`` may be None (in-memory only), a path, or an
    :class:`ArtifactStore`."""

    def __init__(self, store=None):
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.counters = PipelineCounters()
        self._memo = {}
        self._fingerprints = {}  # id(obj) -> cached content fingerprint

    # --- artifact plumbing ---------------------------------------------------

    def artifact(self, kind, parts, compute, disk=True):
        """Memoized compute: kind + parts form the content-hash key.

        Lookup order is process memo, then the disk store, then
        ``compute()`` (whose result lands in both).  ``disk=False``
        keeps cheap-to-rebuild artifacts out of the store.
        """
        key = artifact_key(kind, *parts)
        if key in self._memo:
            self.counters.memo_hits += 1
            obs.inc("pipeline_artifacts_total", kind=kind,
                    outcome="memo-hit",
                    help="artifact lookups by kind and outcome")
            return self._memo[key]
        if disk and self.store is not None:
            value = self.store.get(key, _MISS)
            if value is not _MISS:
                self.counters.store_hits += 1
                obs.inc("pipeline_artifacts_total", kind=kind,
                        outcome="store-hit",
                        help="artifact lookups by kind and outcome")
                self._memo[key] = value
                return value
        with obs.span("pipeline.%s" % kind, category="pipeline",
                      attrs={"kind": kind, "key": key[:12]}) as stage:
            value = compute()
        stage.set_attr("outcome", "computed")
        self.counters.computes += 1
        obs.inc("pipeline_artifacts_total", kind=kind, outcome="computed",
                help="artifact lookups by kind and outcome")
        self._memo[key] = value
        if disk and self.store is not None:
            self.store.put(key, value)
        return value

    def adopt(self, other):
        """Copy another context's in-memory artifacts into this one.

        Lets a disk-backed context take over mid-process without
        repeating work the default context already did.
        """
        self._memo.update(other._memo)
        self._fingerprints.update(other._fingerprints)
        return self

    def _fingerprint_of(self, obj, compute):
        """Content fingerprint, cached per live object identity.

        The entry pins ``obj`` so its ``id`` can never be recycled onto
        a different object while the cache is alive.
        """
        entry = self._fingerprints.get(id(obj))
        if entry is None or entry[0] is not obj:
            entry = (obj, compute(obj))
            self._fingerprints[id(obj)] = entry
        return entry[1]

    def program_key(self, program):
        return self._fingerprint_of(program, program_fingerprint)

    def profile_key(self, profile):
        return self._fingerprint_of(profile, profile_fingerprint)

    def config_key(self, config):
        return self._fingerprint_of(config, config_fingerprint)

    # --- workload acquisition ------------------------------------------------

    def case_study(self, array_words=256, outer_iterations=4):
        """The paper's case-study program plus its measured profile.

        The program is assembled fresh (cheap, and its bytes feed the
        cache key); the profiling simulation is an artifact.
        """
        from ..workloads.case_study import case_study_program

        program = self._memo_plain(
            ("case-program", array_words, outer_iterations),
            lambda: case_study_program(array_words, outer_iterations))
        return program, self.profile_of(program)

    def kernel_build(self, name, scale=1):
        """Assembled kernel + golden results (assembly is not cached)."""
        from ..workloads.kernels import kernel_program

        return self._memo_plain(
            ("kernel-build", name, scale),
            lambda: kernel_program(name, scale=scale))

    def synthetic_profile(self, name):
        """A MiBench-like workload model, expanded once per context."""
        from ..workloads.synthetic import synthetic_profile

        return self._memo_plain(
            ("synthetic-profile", name),
            lambda: synthetic_profile(name))

    def profile_of(self, program, config=None, max_instructions=None):
        """Profile a program on the profiling platform — one run ever.

        Keyed by program bytes + profiling-platform config, so an
        edited program (or platform) re-simulates and everything else
        replays from cache.
        """
        from ..profile.profiler import profile_program

        config = config or baseline_sram_config()
        parts = (self.program_key(program), self.config_key(config),
                 max_instructions)
        key = artifact_key("profile", *parts)

        def compute():
            self.counters.note_simulation(key)
            return profile_program(program, config=config,
                                   max_instructions=max_instructions)

        return self.artifact("profile", parts, compute)

    def static_profile_of(self, program):
        """Analyze a program without running it — one analysis per key.

        The result is a :class:`~repro.profile.bounds.StaticProfile`
        (``flavor == "static"``): the same shape as a measured profile,
        so MDA and the evaluators consume it unchanged.
        """
        from ..analysis import build_static_profile

        parts = (self.program_key(program),)
        return self.artifact("static-profile", parts,
                             lambda: build_static_profile(program))

    def lint_of(self, program):
        """Lint diagnostics for a program — one analysis per key."""
        from ..analysis import lint_program

        parts = (self.program_key(program),)
        return self.artifact("lint", parts,
                             lambda: lint_program(program))

    def resolve_workload(self, spec, array_words=256, outer_iterations=4,
                         scale=1, profile_flavor="dynamic"):
        """CLI workload spec -> ``(program_or_None, profile)``.

        ``profile_flavor="static"`` swaps the measured profile for the
        static analyzer's estimate (synthetic workloads have no program
        to analyze, so they always keep their modelled profile).
        """
        from ..workloads.kernels import kernel_names
        from ..workloads.synthetic import mibench_names

        if spec == "case":
            program, profile = self.case_study(array_words,
                                               outer_iterations)
        elif spec.startswith("kernel:"):
            build = self.kernel_build(spec.split(":", 1)[1], scale=scale)
            program, profile = build.program, None
        elif spec in mibench_names():
            return None, self.synthetic_profile(spec)
        else:
            raise ReproError(
                "unknown workload %r (try 'case', 'kernel:<%s>', or one "
                "of %s)"
                % (spec, "|".join(kernel_names()),
                   ", ".join(mibench_names())))
        if profile_flavor == "static":
            return program, self.static_profile_of(program)
        if profile is None:
            profile = self.profile_of(program)
        return program, profile

    # --- planning / analytic evaluation -------------------------------------

    def plan(self, profile, structure, config=None, thresholds=None):
        """Mapping plan for (profile, structure): one MDA run per key.

        Returns the same ``(config, plan, mda_result)`` triple as
        :func:`repro.eval.structures.plan_for_structure`.
        """
        from ..eval.structures import plan_for_structure

        parts = (self.profile_key(profile), structure,
                 self.config_key(config) if config is not None else None,
                 thresholds_fingerprint(thresholds))

        def compute():
            self.counters.plans += 1
            return plan_for_structure(profile, structure, config=config,
                                      thresholds=thresholds)

        return self.artifact("plan", parts, compute, disk=False)

    def evaluation(self, profile, structure, config=None, thresholds=None,
                   cache_miss_rate=0.08):
        """Full analytic metric set for one (workload, structure)."""
        from ..eval.structures import evaluate_structure

        parts = (self.profile_key(profile), structure,
                 self.config_key(config) if config is not None else None,
                 thresholds_fingerprint(thresholds), cache_miss_rate)

        def compute():
            self.counters.evaluations += 1
            return evaluate_structure(profile, structure, config=config,
                                      thresholds=thresholds,
                                      cache_miss_rate=cache_miss_rate)

        return self.artifact("evaluation", parts, compute)

    def mapping_snapshot(self, profile, structure, config=None,
                         thresholds=None):
        """Structural placement snapshot for one (profile, structure).

        The artifact is the plain-JSON snapshot document
        (:mod:`repro.diff.model`): every block's region assignment plus
        the analytic metric scalars.  Keyed like an evaluation.
        """
        from ..diff.model import build_snapshot

        parts = (self.profile_key(profile), structure,
                 self.config_key(config) if config is not None else None,
                 thresholds_fingerprint(thresholds))

        def compute():
            evaluation = self.evaluation(profile, structure,
                                         config=config,
                                         thresholds=thresholds)
            return build_snapshot(profile, evaluation).to_dict()

        return self.artifact("mapping-snapshot", parts, compute)

    def suite_evaluations(self):
        """{benchmark: {structure: StructureEvaluation}} over the suite."""
        from ..eval.structures import STRUCTURES
        from ..workloads.synthetic import mibench_names

        results = {}
        for name in mibench_names():
            profile = self.synthetic_profile(name)
            results[name] = {
                structure: self.evaluation(profile, structure)
                for structure in STRUCTURES
            }
        return results

    # --- full simulation -----------------------------------------------------

    def case_runs(self, array_words=256, outer_iterations=4):
        """Full-simulation scalars of the case study on all structures.

        Returns ``(program, profile, runs)`` where ``runs[structure]``
        carries the Section IV scalars (cycles, energies, vulnerability,
        reliability).  Each structure simulates exactly once per key.
        """
        from ..eval.structures import STRUCTURES

        program, profile = self.case_study(array_words, outer_iterations)
        runs = {
            structure: self.simulation(program, profile, structure)
            for structure in STRUCTURES
        }
        return program, profile, runs

    def simulation(self, program, profile, structure, config=None):
        """Cycle-accurate run of a placed program on one structure.

        The artifact is the scalar outcome set — cycle count, dynamic
        and static energy, the region-surface vulnerability breakdown,
        and per-STT wear — everything the scalar experiments consume,
        in picklable form.
        """
        from ..core.online import build_machine
        from ..faults.avf import region_surface_vulnerability
        from ..faults.mbu import MbuDistribution

        parts = (self.program_key(program), self.profile_key(profile),
                 structure,
                 self.config_key(config) if config is not None else None)
        key = artifact_key("simulation", *parts)

        def compute():
            self.counters.note_simulation(key)
            run_config, plan, _ = self.plan(profile, structure,
                                            config=config)
            machine = build_machine(program, run_config, plan, profile)
            run = machine.run()
            breakdown = region_surface_vulnerability(
                plan, profile,
                mbu=MbuDistribution.for_node(
                    run_config.technology_node_nm),
                uniform=structure != "ftspm")
            return {
                "cycles": run.cycles,
                "instructions": run.instructions,
                "seconds": run.seconds,
                "dynamic_energy": machine.dynamic_energy(),
                "static_energy": machine.static_energy(),
                "vulnerability": breakdown.vulnerability,
                "reliability": breakdown.reliability,
            }

        return self.artifact("simulation", parts, compute)

    def kernel_run(self, name, structure, scale=1):
        """Golden-verified full simulation of one kernel on one structure.

        Scalars only (cycles, energies, hottest STT word writes, golden
        verification verdict), so a disk store replays the whole
        kernels-sweep without executing an instruction.
        """
        from ..core.online import build_machine

        build = self.kernel_build(name, scale=scale)
        profile = self.profile_of(build.program)
        parts = (self.program_key(build.program),
                 self.profile_key(profile), structure)
        key = artifact_key("kernel-run", *parts)

        def compute():
            self.counters.note_simulation(key)
            config, plan, _ = self.plan(profile, structure)
            machine = build_machine(build.program, config, plan, profile)
            run = machine.run()
            verified = all(
                int.from_bytes(machine.memory.peek_bytes(
                    build.program.symbol(symbol), 4), "little") == expected
                for symbol, expected in build.expected.items())
            stt_writes = max(
                (device.max_word_writes
                 for device in machine.memory.spm_devices()
                 if device.technology_tag == "stt-ram"), default=0)
            return {
                "cycles": run.cycles,
                "dynamic_energy": machine.dynamic_energy(),
                "static_energy": machine.static_energy(),
                "stt_writes": stt_writes,
                "verified": verified,
            }

        return self.artifact("kernel-run", parts, compute)

    # --- internals -----------------------------------------------------------

    def _memo_plain(self, memo_key, compute):
        """Process-local memo for cheap, non-artifact constructions."""
        if memo_key in self._memo:
            self.counters.memo_hits += 1
            return self._memo[memo_key]
        value = compute()
        self._memo[memo_key] = value
        return value


# --- the process-wide default context ---------------------------------------

_default_context = None


def get_context():
    """The shared default context experiments fall back to."""
    global _default_context
    if _default_context is None:
        _default_context = EvaluationContext()
    return _default_context


def set_context(context):
    """Install ``context`` as the default; returns the previous one."""
    global _default_context
    previous = _default_context
    _default_context = context
    return previous


class using_context:
    """``with using_context(ctx):`` — scoped default-context override."""

    def __init__(self, context):
        self.context = context
        self._previous = None

    def __enter__(self):
        self._previous = set_context(self.context)
        return self.context

    def __exit__(self, *exc):
        set_context(self._previous)
        return False
