"""Per-block profiling statistics (Table I) and the profiling run.

:func:`profile_program` runs a program once and accumulates, per
program block:

* read/write counts (instruction fetches count as reads of code blocks),
* *references* — contiguous activation episodes: for code blocks an
  episode is an uninterrupted stretch of fetches inside the block; for
  data-like blocks, a run of data accesses without intervening accesses
  to other data blocks,
* stack calls (``bl`` targets inside the block) and the maximum stack
  depth observed while the block is active,
* **life-time** — the span from the block's first to its last reference,
  in cycles (the paper's Table I values are consistent with a span
  reading; the per-episode sum is also recorded as ``active_cycles``),
* **ACE cycles** — the read-gap accumulation used by the AVF model: a
  bit flip matters only if it lands between a write (or earlier read)
  and the next read of the block.

It records the run in columns (:mod:`repro.profile.columns`), which
keeps the fast engine in its batched mode.  :class:`Profiler` derives
the same statistics live, as a subscriber to the machine's event bus;
it is the oracle the column profile is held against
(:func:`live_profile`, ``tests/test_profile_columns.py``,
``repro golden``).

The profiling platform is the pure-SRAM baseline with no SPM mapping
installed, matching the paper's static-profiling phase (counts and
orderings are what the mapping algorithm consumes).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import baseline_sram_config
from ..errors import ProfileError
from ..events import AccessEvent, CallEvent, EventSubscriber
from ..faults.ace import AceTracker
from ..sim.machine import Machine
from .blocks import (
    BlockIndex,
    BlockKind,
    ProgramBlock,
    STACK_BLOCK_NAME,
    enumerate_blocks,
)


@dataclass
class BlockStats:
    """Everything Table I reports for one block, plus ACE time."""

    block: ProgramBlock
    reads: int = 0
    writes: int = 0
    references: int = 0
    stack_calls: int = 0
    max_stack_bytes: int = 0
    first_touch_cycle: int = None
    last_touch_cycle: int = 0
    active_cycles: int = 0
    ace_cycles: int = 0
    #: hottest-word write count relative to the uniform per-word average;
    #: measured from device wear in full simulation, declared by
    #: synthetic workload models (used by the endurance analysis).
    write_skew: float = 2.0

    @property
    def name(self):
        return self.block.name

    @property
    def kind(self):
        return self.block.kind

    @property
    def size(self):
        return self.block.size

    @property
    def accesses(self):
        return self.reads + self.writes

    @property
    def life_time(self):
        """Span from first to last reference, in cycles."""
        if self.first_touch_cycle is None:
            return 0
        return self.last_touch_cycle - self.first_touch_cycle

    @property
    def avg_reads_per_reference(self):
        if self.references == 0:
            return 0.0
        return self.reads / self.references

    @property
    def avg_writes_per_reference(self):
        if self.references == 0:
            return 0.0
        return self.writes / self.references

    @property
    def susceptibility(self):
        """Algorithm 1 line 10: block references x life-time."""
        return self.accesses * self.life_time


@dataclass
class Profile:
    """The profiling phase's output, consumed by the mapping algorithm."""

    program: object
    blocks: dict  # name -> BlockStats
    total_cycles: int = 0
    total_instructions: int = 0
    source_name: str = ""
    #: provenance of the numbers: "dynamic" (simulation), "static"
    #: (repro.analysis estimator), or "synthetic".  MDA treats
    #: every flavor identically; pipeline cache keys include it so a
    #: static estimate never aliases a measured profile.
    flavor: str = "dynamic"

    def get(self, name):
        try:
            return self.blocks[name]
        except KeyError:
            raise ProfileError("no profiled block named %r" % name) from None

    def code_blocks(self):
        return [stats for stats in self.blocks.values()
                if stats.kind is BlockKind.CODE]

    def data_blocks(self):
        """Data-SPM candidates: data objects plus the stack block."""
        return [stats for stats in self.blocks.values()
                if stats.kind.is_data_like]

    def by_susceptibility(self, blocks=None, descending=True):
        chosen = list(blocks if blocks is not None
                      else self.blocks.values())
        return sorted(chosen, key=lambda stats: stats.susceptibility,
                      reverse=descending)

    def total_accesses(self):
        return sum(stats.accesses for stats in self.blocks.values())


class Profiler(EventSubscriber):
    """Bus subscriber that accumulates a :class:`Profile` while a
    machine runs: the oracle for :func:`profile_program`'s columns.
    One subscription on the machine's event bus delivers fetches, data
    accesses, and call events uniformly (and puts the fast engine in
    its granular per-access mode)."""

    def __init__(self, machine):
        self.machine = machine
        blocks = enumerate_blocks(machine.program)
        self._stats = {block.name: BlockStats(block) for block in blocks}
        self._code_index = BlockIndex(
            [b for b in blocks if b.kind is BlockKind.CODE])
        self._data_index = BlockIndex(
            [b for b in blocks if b.kind.is_data_like])
        self._current_code = None
        self._current_data = None
        self._code_episode_start = 0
        self._data_episode_start = 0
        self._ace = AceTracker()  # the fault model's ACE accounting
        self._stack_low = None  # lowest stack address touched
        self._attached = False

    # --- wiring ------------------------------------------------------------

    def attach(self):
        if self._attached:
            raise ProfileError("profiler is already attached")
        self.machine.events.subscribe(self)
        self._attached = True
        return self

    def detach(self):
        if self._attached:
            self.machine.events.unsubscribe(self)
            self._attached = False

    # --- event handlers ------------------------------------------------------

    def _now(self):
        return self.machine.cpu.stats.cycles

    def on_call(self, event: CallEvent):
        block = self._code_index.lookup(event.target)
        if block is not None:
            self._stats[block.name].stack_calls += 1

    def on_access(self, event: AccessEvent):
        if event.is_fetch:
            self._record_fetch(event.address, event.at_cycle)
        else:
            self._record_data(event.address, event.is_write, event.at_cycle)

    def _record_fetch(self, address, now):
        block = self._code_index.lookup(address)
        if block is None:
            return
        stats = self._stats[block.name]
        stats.reads += 1
        self._touch(stats, now, is_write=False)
        if self._current_code is not block:
            self._close_code_episode(now)
            self._current_code = block
            self._code_episode_start = now
            stats.references += 1
        depth = self.machine.program.stack_top - self.machine.cpu.state.sp
        if depth > stats.max_stack_bytes:
            stats.max_stack_bytes = depth

    def _record_data(self, address, is_write, now):
        block = self._data_index.lookup(address)
        if block is None:
            return
        if block.kind is BlockKind.STACK and (
                self._stack_low is None or address < self._stack_low):
            self._stack_low = address
        stats = self._stats[block.name]
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        self._touch(stats, now, is_write=is_write)
        if self._current_data is not block:
            self._close_data_episode(now)
            self._current_data = block
            self._data_episode_start = now
            stats.references += 1

    def _touch(self, stats, now, is_write):
        if stats.first_touch_cycle is None:
            stats.first_touch_cycle = now
        stats.last_touch_cycle = now
        self._ace.record(stats.name, now, is_write)

    def _close_code_episode(self, now):
        if self._current_code is not None:
            self._stats[self._current_code.name].active_cycles += (
                now - self._code_episode_start)

    def _close_data_episode(self, now):
        if self._current_data is not None:
            self._stats[self._current_data.name].active_cycles += (
                now - self._data_episode_start)

    # --- results ---------------------------------------------------------------

    def finish(self):
        """Close open episodes and return the :class:`Profile`."""
        now = self._now()
        self._close_code_episode(now)
        self._close_data_episode(now)
        self._current_code = None
        self._current_data = None
        self.detach()
        _shrink_stack_block(self._stats, self._stack_low)
        # Close ACE windows still opened by a write: the last stored
        # value stays architecturally live until halt.
        self._ace.finish(now)
        for name, cycles in self._ace.ace_cycles.items():
            self._stats[name].ace_cycles = cycles
        return Profile(
            program=self.machine.program,
            blocks=self._stats,
            total_cycles=self.machine.cpu.stats.cycles,
            total_instructions=self.machine.cpu.stats.instructions,
            source_name=self.machine.program.source_name,
        )


def _shrink_stack_block(stats, stack_low):
    """Resize the Stack block to its observed footprint.

    The stack *window* is large (tens of KB of address space), but
    the paper maps the stack by its measured footprint (Table I's
    "maximum stack size needed").  Shrinking to the low-watermark
    ``stack_low`` (the lowest stack address a data access touched),
    rounded up to 64 bytes, makes the Stack block a realistic SPM
    mapping candidate while still covering every touched address.
    """
    if stack_low is None:
        return
    stack_stats = stats[STACK_BLOCK_NAME]
    top = stack_stats.block.home_end
    footprint = top - stack_low
    footprint = (footprint + 63) // 64 * 64
    stack_stats.block = ProgramBlock(
        name=stack_stats.block.name,
        kind=stack_stats.block.kind,
        home_start=top - footprint,
        size=footprint,
    )


def profile_program(program, max_instructions=None):
    """Run ``program`` once on the profiling platform and profile it.

    The platform is the pure-SRAM baseline with an empty transfer
    schedule (every access through the cache), mirroring the paper's
    platform-neutral static profiling step.  A
    :class:`~repro.profile.columns.ProfileRecorder` takes the event
    bus's recorder slot, so the fast engine stays in its batched mode
    and hands over one row per executed basic block; the rows are
    folded into the same :class:`BlockStats` the live
    :class:`Profiler` oracle computes (:func:`live_profile`).
    """
    # imported here: unpickling a profile (a warm start) needs this
    # module, not the recorder
    from .columns import ProfileRecorder

    blocks = enumerate_blocks(program)
    machine = Machine(program, baseline_sram_config())
    recorder = ProfileRecorder(blocks, program.stack_top).attach(machine)
    if max_instructions is None:
        machine.run()
    else:
        machine.run(max_instructions=max_instructions)
    machine.events.detach_recorder()
    totals = machine.cpu.stats
    fields, stack_low = recorder.finish(totals.cycles)
    stats = {block.name: BlockStats(block, **fields[block.name])
             for block in blocks}
    _shrink_stack_block(stats, stack_low)
    return Profile(
        program=program,
        blocks=stats,
        total_cycles=totals.cycles,
        total_instructions=totals.instructions,
        source_name=program.source_name,
    )


def live_profile(program, max_instructions=None):
    """:func:`profile_program` computed by the live :class:`Profiler`
    subscriber instead of the columns: the oracle the tests and
    ``repro golden`` compare the column profile against."""
    machine = Machine(program, baseline_sram_config())
    profiler = Profiler(machine).attach()
    if max_instructions is None:
        machine.run()
    else:
        machine.run(max_instructions=max_instructions)
    return profiler.finish()
