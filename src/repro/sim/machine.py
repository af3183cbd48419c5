"""Machine: program + memory system + CPU + DMA + transfer schedule.

The machine is the FaCSim substitute's top level.  It

* loads a :class:`~repro.isa.program.Program` image into DRAM,
* executes instructions, charging fetch and data latencies through the
  routed :class:`~repro.mem.hierarchy.MemorySystem`,
* applies a :class:`TransferSchedule` — the output of the online mapping
  phase — performing DMA block transfers when execution first reaches the
  scheduled code addresses (or before execution starts, for static maps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import obs
from ..errors import ExecutionLimitExceeded, IllegalInstructionError
from ..isa.instructions import INSTRUCTION_BYTES
from ..mem.dma import DmaEngine
from ..mem.hierarchy import AccessType, MemorySystem
from .cpu import Cpu

EXIT_ADDRESS = 0xFFFF_FFF0

DEFAULT_INSTRUCTION_LIMIT = 200_000_000

#: Set only by :func:`repro.sim.diffcheck.reference_engine`: while true,
#: :meth:`Machine.run` retires every instruction through the reference
#: step loop instead of the fast engine, so the harness can hold the
#: two against each other.
_reference_loop = False


@dataclass(frozen=True)
class TransferAction:
    """One scheduled DMA action.

    ``kind`` is ``"map"`` or ``"unmap"``.  Triggering, in priority order:

    * both triggers ``None`` — fire before execution starts (static map),
    * ``trigger_pc`` — fire when that code address is first executed
      (``once=False`` re-fires on every execution),
    * ``trigger_instruction`` — fire once the dynamic instruction count
      reaches the given value (the overlay planner's phase boundaries).
    """

    kind: str
    home_address: int
    size: int = 0
    spm_address: int = 0
    trigger_pc: Optional[int] = None
    trigger_instruction: Optional[int] = None
    once: bool = True
    write_back: bool = True


@dataclass
class TransferSchedule:
    """The online phase's plan: a list of :class:`TransferAction`."""

    actions: list = field(default_factory=list)

    def static_actions(self):
        return [action for action in self.actions
                if action.trigger_pc is None
                and action.trigger_instruction is None]

    def triggered_actions(self):
        triggers = {}
        for action in self.actions:
            if action.trigger_pc is not None:
                triggers.setdefault(action.trigger_pc, []).append(action)
        return triggers

    def timed_actions(self):
        """Instruction-count-triggered actions, in firing order."""
        return sorted(
            (action for action in self.actions
             if action.trigger_instruction is not None),
            key=lambda action: action.trigger_instruction)

    def add_static_map(self, home_address, size, spm_address):
        self.actions.append(TransferAction(
            "map", home_address, size, spm_address))
        return self


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    instructions: int
    cycles: int
    seconds: float
    halted: bool
    machine: object

    @property
    def cpi(self):
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions


class Machine:
    """A complete simulated platform executing one program.

    :meth:`run` executes on the predecoded basic-block engine
    (:class:`~repro.sim.fastpath.FastEngine`), which falls back to the
    per-cycle :meth:`step` loop wherever exact per-cycle interleaving
    matters.  The whole-run reference loop is the differential
    harness's oracle (:func:`repro.sim.diffcheck.reference_engine`).
    """

    def __init__(self, program, config, energy_models=None, schedule=None):
        self.program = program
        self.config = config
        self.memory = MemorySystem(config, energy_models)
        self.dma = DmaEngine(self.memory)
        self.schedule = schedule or TransferSchedule()
        #: the shared access-event bus: memory accesses and CPU call
        #: events are published on the same stream, stamped with the
        #: CPU cycle counter.
        self.events = self.memory.events
        self.cpu = Cpu(self._data_access, events=self.events)
        self.events.clock = lambda: self.cpu.stats.cycles
        self._fired_triggers = set()
        self._triggers = self.schedule.triggered_actions()
        self._timed = self.schedule.timed_actions()
        self._timed_index = 0
        self._fastpath = None
        self._hooks = []  # sorted (instruction_count, callback) pairs
        self._exact_windows = []  # (start, end) instruction-count ranges
        self._load_program()
        self._reset_cpu()

    # --- setup -----------------------------------------------------------------

    def _load_program(self):
        program = self.program
        if program.data:
            self.memory.dram.poke_bytes(program.data_base, bytes(program.data))
        # Text bytes are opaque placeholders: decoded instructions come from
        # the Program, but fetches still travel the hierarchy for timing.

    def _reset_cpu(self):
        from ..isa.registers import LR
        self.cpu.state.pc = self.program.entry
        self.cpu.state.sp = self.program.stack_top
        self.cpu.state.registers[LR] = EXIT_ADDRESS

    def apply_static_schedule(self):
        """Perform the schedule's static mappings (charged to the run)."""
        for action in self.schedule.static_actions():
            self._perform(action)

    def _perform(self, action):
        if action.kind == "map":
            record = self.dma.map_block(
                action.home_address, action.size, action.spm_address)
        elif action.kind == "unmap":
            record = self.dma.unmap_block(
                action.home_address, write_back=action.write_back)
        else:
            raise IllegalInstructionError(
                "unknown transfer action kind %r" % action.kind)
        self.cpu.stats.cycles += record.cycles
        return record

    # --- memory plumbing ----------------------------------------------------------

    def _data_access(self, address, size, is_write, value):
        result = self.memory.access(address, size, is_write, value,
                                    access_type=AccessType.DATA)
        return result.value, result.cycles

    def _fetch(self, address):
        result = self.memory.access(address, INSTRUCTION_BYTES, False, 0,
                                    access_type=AccessType.FETCH)
        return result.cycles

    # --- instrumentation hooks ---------------------------------------------------

    def at_instruction(self, count, callback):
        """Invoke ``callback(machine)`` once, immediately before the
        instruction with dynamic index ``count`` executes (i.e. when the
        retired-instruction counter reaches ``count``).  The fault
        injector and scrubbing models use this to act at exact points in
        the dynamic stream; the fast engine falls back to the reference
        loop around due hooks so firing points are engine-invariant."""
        self._hooks.append((count, callback))
        self._hooks.sort(key=lambda hook: hook[0])

    def add_exact_window(self, start, end):
        """Declare that instructions with dynamic indices in
        ``[start, end)`` need exact per-cycle execution (the fast engine
        single-steps them through the reference loop).  Harmless under
        the reference engine, which is always exact."""
        self._exact_windows.append((start, end))

    def _check_hooks(self):
        while (self._hooks
               and self._hooks[0][0] <= self.cpu.stats.instructions):
            _, callback = self._hooks.pop(0)
            callback(self)

    # --- execution -------------------------------------------------------------------

    def step(self):
        """Execute one instruction; returns False when halted."""
        cpu = self.cpu
        pc = cpu.state.pc
        if pc == EXIT_ADDRESS:
            cpu.halted = True
            return False
        self._check_triggers(pc)
        self._check_timed_triggers()
        if self._hooks:
            self._check_hooks()
        instruction = self.program.instruction_at(pc)
        if instruction is None:
            raise IllegalInstructionError(
                "no instruction at pc=0x%08x" % pc)
        fetch_cycles = self._fetch(pc)
        cpu.state.pc = pc + INSTRUCTION_BYTES
        exec_cycles = cpu.execute(instruction)
        cpu.stats.cycles += fetch_cycles + exec_cycles
        return not cpu.halted

    def _check_timed_triggers(self):
        executed = self.cpu.stats.instructions
        while (self._timed_index < len(self._timed)
               and self._timed[self._timed_index].trigger_instruction
               <= executed):
            action = self._timed[self._timed_index]
            self._timed_index += 1
            self._perform(action)

    def _check_triggers(self, pc):
        actions = self._triggers.get(pc)
        if not actions:
            return
        for index, action in enumerate(actions):
            key = (pc, index)
            if action.once and key in self._fired_triggers:
                continue
            self._fired_triggers.add(key)
            self._perform(action)

    def _fast_engine(self):
        if self._fastpath is None:
            from .fastpath import FastEngine
            self._fastpath = FastEngine(self)
        return self._fastpath

    def run(self, max_instructions=DEFAULT_INSTRUCTION_LIMIT,
            apply_schedule=True):
        """Run to HALT / main-return; returns a :class:`RunResult`.

        When :mod:`repro.obs` is enabled the run is wrapped in a
        ``sim.run`` span and a :class:`~repro.obs.simprofile.SimProfiler`
        subscribes to the event bus for per-device/per-block hot-spot
        attribution (forcing the fast engine into its granular mode).
        Disabled, the cost is this one flag check — nothing per event.
        """
        reference = _reference_loop
        if apply_schedule:
            self.apply_static_schedule()
        cpu = self.cpu
        run_span = obs.span("sim.run", category="sim", attrs={
            "engine": "reference" if reference else "fast",
            "program": self.program.source_name})
        profiler = obs.sim_profiler_for(self)
        try:
            with run_span:
                if reference:
                    while not cpu.halted:
                        if cpu.stats.instructions >= max_instructions:
                            raise ExecutionLimitExceeded(
                                "exceeded %d instructions at pc=0x%08x"
                                % (max_instructions, cpu.state.pc))
                        self.step()
                else:
                    self._fast_engine().run(max_instructions)
                run_span.set_attr("instructions", cpu.stats.instructions)
                run_span.set_attr("cycles", cpu.stats.cycles)
        finally:
            if profiler is not None:
                obs.finish_sim_profiler(self, profiler, run_span)
        return RunResult(
            instructions=cpu.stats.instructions,
            cycles=cpu.stats.cycles,
            seconds=cpu.stats.cycles * self.config.cycle_time,
            halted=True,
            machine=self,
        )

    # --- result accessors -----------------------------------------------------------

    def runtime_seconds(self):
        return self.cpu.stats.cycles * self.config.cycle_time

    def dynamic_energy(self, include_dma=True, include_offchip=False):
        """Total dynamic energy of the on-chip memory structures.

        Figure 7 compares SPM structures, so by default the off-chip DRAM
        traffic energy is excluded but the SPM fill traffic (DMA) counts.
        """
        total = 0.0
        for device in self.memory.spm_devices():
            total += device.stats.dynamic_energy
        total += self.memory.cache.stats.accesses_stats.dynamic_energy
        if include_dma:
            total += self.dma.total_energy
        if include_offchip:
            total += self.memory.dram.stats.dynamic_energy
        return total

    def static_energy(self):
        """SPM leakage integrated over the run time (Figure 6)."""
        return self.memory.total_leakage_power() * self.runtime_seconds()
