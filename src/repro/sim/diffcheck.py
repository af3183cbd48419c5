"""Differential verification: lock the fast engine to the reference core.

The fast engine (:mod:`repro.sim.fastpath`) is only allowed to exist
because this module can prove, machine by machine, that it changes
nothing: :func:`machine_digest` reduces a finished :class:`Machine` to a
JSON-stable dictionary covering **everything observable** — architectural
registers and flags, a hash of every byte of simulated memory, cycle and
instruction counts, per-mnemonic retirement counts, per-device access
statistics (with dynamic energy compared bit-for-bit via ``float.hex``),
cache hit/miss/eviction/writeback counters, DMA totals, and STT-RAM wear
— and :func:`compare_engines` runs the same workload under both engines
and diffs the digests.  Error paths are part of the contract: a run that
raises is digested with the exception's type and message, so both
engines must fail identically too.

Production always runs the fast engine.  The reference loop runs whole
only inside :func:`reference_engine`, the one scope this harness (and
the tests and benchmarks built on it) opens to get the oracle's answer.

When a hypothesis-found divergence involves generated assembly,
:func:`shrink_source` greedily deletes lines while the divergence
reproduces, and :func:`assert_source_equivalent` dumps the minimized
repro to disk before failing the test.

The module also maintains the **golden-trace corpus** under
``tests/golden/``: committed digests of every bundled kernel and the
case study on the FTSPM structure, refreshed via ``repro golden
--update``.  The corpus pins simulator behaviour over time the same way
the differential harness pins it across engines.  For the same
workloads, :func:`check_golden_profiles` holds the column profile
(:func:`repro.profile.profile_program`) against the live
:class:`~repro.profile.profiler.Profiler` oracle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from contextlib import contextmanager, nullcontext

from ..errors import ReproError
from . import machine as _machine
from .machine import Machine

#: the two engines the harness holds against each other
ENGINES = ("reference", "fast")

#: bump when the digest layout changes (golden files self-identify)
GOLDEN_SCHEMA = 1

#: the workload the paper's Section IV case study uses for goldens
GOLDEN_CASE_ARRAY_WORDS = 96
GOLDEN_CASE_OUTER_ITERATIONS = 2

GOLDEN_STRUCTURE = "ftspm"


# --- the oracle scope ---------------------------------------------------------

@contextmanager
def reference_engine():
    """``with reference_engine():`` — every :meth:`Machine.run` inside
    the scope retires its instructions through the reference step loop
    instead of the fast engine.  Restores the previous setting on exit,
    so scopes nest."""
    previous = _machine._reference_loop
    _machine._reference_loop = True
    try:
        yield
    finally:
        _machine._reference_loop = previous


def engine_scope(engine):
    """The scope that runs :data:`ENGINES` member ``engine``."""
    if engine == "reference":
        return reference_engine()
    if engine == "fast":
        return nullcontext()
    raise ValueError("unknown engine %r (one of %s)"
                     % (engine, "/".join(ENGINES)))


# --- digests -----------------------------------------------------------------

def _stats_digest(stats):
    return {
        "reads": stats.reads,
        "writes": stats.writes,
        "read_bytes": stats.read_bytes,
        "write_bytes": stats.write_bytes,
        "read_cycles": stats.read_cycles,
        "write_cycles": stats.write_cycles,
        # float.hex() makes the comparison bit-exact and JSON-safe
        "dynamic_energy": float(stats.dynamic_energy).hex(),
    }


def memory_hash(machine):
    """SHA-256 over every byte of simulated storage (DRAM + SPM regions),
    in the fixed :meth:`MemorySystem.all_devices` order."""
    digest = hashlib.sha256()
    for device in machine.memory.all_devices():
        digest.update(device.name.encode())
        digest.update(device.peek_bytes(device.base, device.size))
    return digest.hexdigest()


def machine_digest(machine, error=None):
    """Reduce a machine's complete observable outcome to a flat dict.

    Two runs are equivalent if and only if their digests are equal; the
    dict is JSON-serializable so it can be committed as a golden file.
    """
    cpu = machine.cpu
    stats = cpu.stats
    state = cpu.state
    cache = machine.memory.cache.stats
    stt = {}
    for device in machine.memory.spm_devices():
        if device.technology_tag == "stt-ram":
            stt[device.name] = {
                "max_word_writes": int(device.max_word_writes),
                "total_word_writes": int(device.total_word_writes),
            }
    return {
        "error": error,
        "halted": cpu.halted,
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "branches": stats.branches,
        "taken_branches": stats.taken_branches,
        "loads": stats.loads,
        "stores": stats.stores,
        "mnemonics": {mnemonic.value: count for mnemonic, count
                      in sorted(stats.mnemonic_counts.items(),
                                key=lambda item: item[0].value)},
        "registers": list(state.registers),
        "flags": [state.negative, state.zero, state.carry, state.overflow],
        "memory_sha256": memory_hash(machine),
        "devices": {device.name: _stats_digest(device.stats)
                    for device in machine.memory.all_devices()},
        "cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "writebacks": cache.writebacks,
            "stats": _stats_digest(cache.accesses_stats),
        },
        "dma": {
            "transfers": len(machine.dma.records),
            "total_cycles": machine.dma.total_cycles,
            "total_energy": float(machine.dma.total_energy).hex(),
        },
        "stt_wear": stt,
    }


def run_with_engine(program, config, engine, schedule=None,
                    energy_models=None, max_instructions=None,
                    trace=False):
    """Run ``program`` under one engine and return its digest.

    A :class:`ReproError` raised by the run (limit exceeded, unmapped
    access, illegal instruction, ...) is captured into the digest as
    ``"Type: message"`` — the error path must be engine-invariant too.
    With ``trace=True`` a recorder subscribes to the event bus (which
    forces the fast engine into granular mode), and the digest gains the
    access stream's record count and SHA-256.
    """
    machine = Machine(program, config, energy_models=energy_models,
                      schedule=schedule)
    recorder = None
    if trace:
        from ..workloads.traces import TraceRecorder
        recorder = TraceRecorder(machine).attach()
    error = None
    try:
        with engine_scope(engine):
            if max_instructions is None:
                machine.run()
            else:
                machine.run(max_instructions=max_instructions)
    except ReproError as exc:
        error = "%s: %s" % (type(exc).__name__, exc)
    digest = machine_digest(machine, error=error)
    if recorder is not None:
        captured = recorder.detach()
        digest["trace_records"] = len(captured)
        digest["trace_sha256"] = hashlib.sha256(
            captured.dumps().encode()).hexdigest()
    return digest


class DiffReport:
    """Outcome of one reference-vs-fast comparison."""

    def __init__(self, reference, fast, labels=("reference", "fast")):
        self.reference = reference
        self.fast = fast
        self.labels = labels

    @property
    def matches(self):
        return self.reference == self.fast

    def differences(self):
        """Sorted ``(path, reference_value, fast_value)`` leaf diffs."""
        found = []

        def walk(path, ref, fast):
            if isinstance(ref, dict) and isinstance(fast, dict):
                for key in sorted(set(ref) | set(fast), key=str):
                    walk("%s.%s" % (path, key) if path else str(key),
                         ref.get(key), fast.get(key))
            elif ref != fast:
                found.append((path, ref, fast))

        walk("", self.reference, self.fast)
        return found

    def explain(self, limit=20):
        differences = self.differences()
        lines = ["digests diverge in %d field(s):" % len(differences)]
        for path, ref, fast in differences[:limit]:
            lines.append("  %-28s %s=%r %s=%r" % (
                path, self.labels[0], ref, self.labels[1], fast))
        return "\n".join(lines)


def compare_engines(program, config, schedule=None, energy_models=None,
                    max_instructions=None, trace=False):
    """Run both engines over identical machines and diff the digests."""
    reference = run_with_engine(
        program, config, "reference", schedule=schedule,
        energy_models=energy_models, max_instructions=max_instructions,
        trace=trace)
    fast = run_with_engine(
        program, config, "fast", schedule=schedule,
        energy_models=energy_models, max_instructions=max_instructions,
        trace=trace)
    return DiffReport(reference, fast)


# --- divergence minimization -------------------------------------------------

def source_diverges(source, config=None, max_instructions=None,
                    trace=False):
    """True when assembling and running ``source`` under the two engines
    produces different digests (assembly errors count as no divergence,
    so the shrinker can delete lines freely)."""
    from ..config import baseline_sram_config
    from ..isa.assembler import assemble

    config = config or baseline_sram_config()
    try:
        program = assemble(source)
    except ReproError:
        return False
    return not compare_engines(program, config,
                               max_instructions=max_instructions,
                               trace=trace).matches


def shrink_source(source, diverges=None, **kwargs):
    """Greedy minimizer: drop source lines while divergence reproduces.

    ``diverges(source) -> bool`` defaults to :func:`source_diverges`
    with ``kwargs`` forwarded.  Repeats single-line deletion passes to a
    fixpoint; the result still diverges and is usually small enough to
    read straight into a regression test.
    """
    if diverges is None:
        def diverges(candidate):
            return source_diverges(candidate, **kwargs)
    if not diverges(source):
        raise ValueError("source does not diverge; nothing to shrink")
    lines = source.splitlines()
    shrunk = True
    while shrunk:
        shrunk = False
        index = 0
        while index < len(lines):
            candidate = lines[:index] + lines[index + 1:]
            if diverges("\n".join(candidate) + "\n"):
                lines = candidate
                shrunk = True
            else:
                index += 1
    return "\n".join(lines) + "\n"


def assert_source_equivalent(source, config=None, max_instructions=None,
                             trace=False, dump_dir=None):
    """Assert both engines agree on ``source``; on divergence, dump a
    minimized repro program and fail with the field-level diff."""
    from ..config import baseline_sram_config
    from ..isa.assembler import assemble

    config = config or baseline_sram_config()
    program = assemble(source)
    report = compare_engines(program, config,
                             max_instructions=max_instructions,
                             trace=trace)
    if report.matches:
        return report
    minimized = source
    try:
        minimized = shrink_source(source, config=config,
                                  max_instructions=max_instructions,
                                  trace=trace)
    except Exception:
        pass  # shrinking is best-effort; the full repro still dumps
    dump_dir = dump_dir or os.path.join("tests", "failures")
    os.makedirs(dump_dir, exist_ok=True)
    stamp = hashlib.sha256(source.encode()).hexdigest()[:12]
    path = os.path.join(dump_dir, "divergence-%s.s" % stamp)
    with open(path, "w") as handle:
        handle.write("; minimized engine-divergence repro\n")
        handle.write(minimized)
    raise AssertionError(
        "%s\nminimized repro written to %s:\n%s"
        % (report.explain(), path, minimized))


# --- golden-update safety ----------------------------------------------------

def _git_status_lines(subtree):
    """``git status --porcelain`` lines for ``subtree``, or None when
    git is unavailable or this is not a checkout."""
    import subprocess
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--", subtree],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.splitlines()


def uncommitted_source_changes(subtree=os.path.join("src", "repro")):
    """Paths with uncommitted changes under the simulator source tree.

    ``repro golden --update`` refuses to re-baseline while this is
    non-empty (unless forced): a golden refresh over a dirty
    ``src/repro/`` would commit whatever regression the working tree
    carries as the new truth.  Returns ``[]`` when the tree is clean
    *or* when git cannot answer (a tarball checkout must not lose the
    ability to regenerate goldens).
    """
    lines = _git_status_lines(subtree)
    if not lines:
        return []
    return [line[3:].strip() for line in lines if line.strip()]


def corpus_file_digests(directory):
    """``{relative path: sha256}`` over every .json under a corpus dir.

    The update path snapshots this before and after writing so it can
    say exactly which golden digests changed.
    """
    digests = {}
    for root, dirs, files in os.walk(directory):
        dirs.sort()  # deterministic traversal → deterministic dict order
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, directory)] = (
                    hashlib.sha256(handle.read()).hexdigest())
    return digests


# --- golden-trace corpus -----------------------------------------------------

def golden_names():
    """Every workload the corpus covers, in corpus order."""
    from ..workloads.kernels import kernel_names

    return ["kernel:%s" % name for name in kernel_names()] + ["case"]


def golden_filename(name):
    return name.replace(":", "-") + ".json"


def _golden_program(name):
    """The assembled program of one corpus entry."""
    if name == "case":
        from ..workloads.case_study import case_study_program

        return case_study_program(GOLDEN_CASE_ARRAY_WORDS,
                                  GOLDEN_CASE_OUTER_ITERATIONS)
    if name.startswith("kernel:"):
        from ..workloads.kernels import kernel_program

        return kernel_program(name.split(":", 1)[1]).program
    raise ReproError("unknown golden workload %r" % name)


def _golden_machine(name):
    """Build the canonical machine for one corpus entry: the workload
    placed on the FTSPM structure by the MDA plan, DMA schedule and all.
    Uses the shared pipeline context so profiles and evaluations are
    computed once per process no matter how many entries are refreshed."""
    from ..core.online import build_machine
    from ..pipeline import get_context

    context = get_context()
    program = _golden_program(name)
    profile = context.profile_of(program)
    evaluation = context.evaluation(profile, GOLDEN_STRUCTURE)
    return build_machine(program, evaluation.config, evaluation.plan,
                         profile)


def golden_digest(name, engine="reference"):
    """One corpus entry's digest under ``engine`` (the committed corpus
    is written from the reference engine)."""
    machine = _golden_machine(name)
    with engine_scope(engine):
        machine.run()
    digest = machine_digest(machine)
    digest.pop("error")
    return {
        "schema": GOLDEN_SCHEMA,
        "workload": name,
        "structure": GOLDEN_STRUCTURE,
        "digest": digest,
    }


def write_golden(directory, names=None):
    """Refresh the corpus; returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name in names or golden_names():
        path = os.path.join(directory, golden_filename(name))
        with open(path, "w") as handle:
            json.dump(golden_digest(name), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        written.append(path)
    return written


def check_golden(directory, names=None, engine="reference"):
    """Compare current behaviour under ``engine`` against the committed
    corpus (``repro golden`` checks both :data:`ENGINES`).

    Returns ``{name: problem}`` — empty means every digest matches.  A
    missing or schema-mismatched file is reported as its own problem so
    the test failure says exactly what to regenerate.
    """
    problems = {}
    for name in names or golden_names():
        path = os.path.join(directory, golden_filename(name))
        if not os.path.exists(path):
            problems[name] = "missing golden file %s (run: repro golden " \
                             "--update)" % path
            continue
        with open(path) as handle:
            committed = json.load(handle)
        if committed.get("schema") != GOLDEN_SCHEMA:
            problems[name] = ("golden schema %r != %r; regenerate with "
                              "repro golden --update"
                              % (committed.get("schema"), GOLDEN_SCHEMA))
            continue
        current = golden_digest(name, engine=engine)
        if current["digest"] != committed["digest"]:
            diff = DiffReport(committed["digest"], current["digest"],
                              labels=("committed", "current"))
            problems[name] = diff.explain()
    return problems


# --- the profile oracle ------------------------------------------------------

def profile_digest(profile):
    """A profile as JSON-stable values: the run totals, every
    :class:`~repro.profile.profiler.BlockStats` field, the artifact
    fingerprint, and a hash of the pickled bytes the store writes."""
    from ..pipeline.keys import profile_fingerprint

    return {
        "total_cycles": profile.total_cycles,
        "total_instructions": profile.total_instructions,
        "blocks": {name: dataclasses.asdict(stats)
                   for name, stats in profile.blocks.items()},
        "fingerprint": profile_fingerprint(profile),
        "pickle_sha256": hashlib.sha256(pickle.dumps(profile)).hexdigest(),
    }


def check_golden_profiles(names=None):
    """Profile every corpus workload both ways — the recorded columns
    :func:`~repro.profile.profile_program` folds, and the live
    :class:`~repro.profile.profiler.Profiler` oracle — and compare.

    Returns ``{name: problem}``; empty means every profile matches the
    oracle field for field and byte for byte.
    """
    from ..profile.profiler import live_profile, profile_program

    problems = {}
    for name in names or golden_names():
        program = _golden_program(name)
        oracle = profile_digest(live_profile(program))
        columns = profile_digest(profile_program(program))
        if columns != oracle:
            problems[name] = DiffReport(
                oracle, columns, labels=("oracle", "columns")).explain()
    return problems
