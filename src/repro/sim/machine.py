"""Machine: program + memory system + CPU + DMA + transfer schedule.

The machine is the FaCSim substitute's top level.  It

* loads a :class:`~repro.isa.program.Program` image into DRAM,
* executes instructions, charging fetch and data latencies through the
  routed :class:`~repro.mem.hierarchy.MemorySystem`,
* applies a :class:`TransferSchedule` — the output of the online mapping
  phase — performing its DMA block transfers before the first
  instruction, so the placement is fixed for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """One DMA map: copy ``size`` bytes at ``home_address`` into the SPM
    at ``spm_address`` before execution starts, and route the home range
    there for the whole run."""

    home_address: int
    size: int
    spm_address: int


@dataclass
class TransferSchedule:
    """The online phase's plan: a list of :class:`TransferAction`, all
    performed before the first instruction."""

    actions: list = field(default_factory=list)

    def add_static_map(self, home_address, size, spm_address):
        self.actions.append(TransferAction(home_address, size, spm_address))
        return self


def _data_access_of(memory):
    """The CPU's data port: ``(address, size, is_write, value) ->
    (value, cycles)`` through ``memory``.  A closure over the memory
    system rather than a bound method, so the CPU holds no reference
    back to its machine."""
    def data_access(address, size, is_write, value):
        result = memory.access(address, size, is_write, value,
                               access_type=AccessType.DATA)
        return result.value, result.cycles

    return data_access


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

    :meth:`run` performs the transfer schedule, then executes on the
    predecoded basic-block engine
    (:class:`~repro.sim.fastpath.FastEngine`), which hands single
    instructions to the per-cycle :meth:`step` loop at undecodable
    addresses and where the instruction limit falls inside a block.
    The whole-run reference loop is the differential harness's oracle
    (:func:`repro.sim.diffcheck.reference_engine`).
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
        self.cpu = Cpu(_data_access_of(self.memory), events=self.events)
        stats = self.cpu.stats
        self.events.clock = lambda: stats.cycles
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
        """Perform the schedule's mappings (their cycles are charged to
        the run).  :meth:`run` calls this before the first instruction;
        nothing maps a block after it."""
        for action in self.schedule.actions:
            record = self.dma.map_block(
                action.home_address, action.size, action.spm_address)
            self.cpu.stats.cycles += record.cycles

    # --- memory plumbing ----------------------------------------------------------

    def _fetch(self, address):
        result = self.memory.access(address, INSTRUCTION_BYTES, False, 0,
                                    access_type=AccessType.FETCH)
        return result.cycles

    # --- execution -------------------------------------------------------------------

    def step(self):
        """Execute one instruction; returns False when halted."""
        cpu = self.cpu
        pc = cpu.state.pc
        if pc == EXIT_ADDRESS:
            cpu.halted = True
            return False
        instruction = self.program.instruction_at(pc)
        if instruction is None:
            raise IllegalInstructionError(
                "no instruction at pc=0x%08x" % pc)
        fetch_cycles = self._fetch(pc)
        cpu.state.pc = pc + INSTRUCTION_BYTES
        exec_cycles = cpu.execute(instruction)
        cpu.stats.cycles += fetch_cycles + exec_cycles
        return not cpu.halted

    def _fast_engine(self):
        """A fast engine for this machine, built per call.

        Run it only after :meth:`apply_static_schedule`: the engine
        fixes each block's fetch route when it first decodes the block.
        Not cached on the machine: the engine points back at it, and
        that cycle would keep a finished machine (and its DRAM image)
        alive until the cycle collector happens to run.
        """
        from .fastpath import FastEngine
        return FastEngine(self)

    def run(self, max_instructions=DEFAULT_INSTRUCTION_LIMIT):
        """Run to HALT / main-return; returns a :class:`RunResult`.

        When :mod:`repro.obs` is enabled the run is wrapped in a
        ``sim.run`` span and a :class:`~repro.obs.simprofile.SimProfiler`
        subscribes to the event bus for per-device/per-block hot-spot
        attribution (forcing the fast engine into its granular mode).
        Disabled, the cost is this one flag check — nothing per event.
        """
        reference = _reference_loop
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

    def dynamic_energy(self, include_offchip=False):
        """Total dynamic energy of the on-chip memory structures.

        Figure 7 compares SPM structures, so by default the off-chip DRAM
        traffic energy is excluded but the SPM fill traffic (DMA) counts.
        """
        total = 0.0
        for device in self.memory.spm_devices():
            total += device.stats.dynamic_energy
        total += self.memory.cache.stats.accesses_stats.dynamic_energy
        total += self.dma.total_energy
        if include_offchip:
            total += self.memory.dram.stats.dynamic_energy
        return total

    def static_energy(self):
        """SPM leakage integrated over the run time (Figure 6)."""
        return self.memory.total_leakage_power() * self.runtime_seconds()
