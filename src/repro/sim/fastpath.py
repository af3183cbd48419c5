"""Fast-path execution engine: predecoded basic blocks, batched accounting.

The reference interpreter (:mod:`repro.sim.cpu` driven by
:meth:`repro.sim.machine.Machine.step`) re-decodes operands and walks the
full memory router on every cycle.  This module adds a second engine that
produces **bit-identical results by construction** while skipping the
per-cycle overhead:

* programs are predecoded lazily into **basic blocks** — straight-line
  instruction runs ending at a control transfer, a PC-trigger address, or
  the text end — and each instruction is compiled once into an
  operand-resolved closure (register indices, masked immediates, and flag
  recipes baked in; the closure returns the execute-stage cycle cost
  exactly as :meth:`Cpu.execute` would),
* instruction-fetch accounting is **batched per block** when the whole
  block's fetch range is serviced by one constant-latency SPM region
  (counts, bytes, and cycles added in bulk; per-access dynamic energy is
  still accumulated in reference order so float sums match bit-for-bit);
  cache-routed fetches keep calling :meth:`Cache.access` per instruction
  because the cache is stateful,
* the event bus is left silent for whole blocks when it has no
  subscribers — exactly the accesses the reference engine would publish
  to nobody — and switches to a **granular** per-instruction mode (same
  closures, exact ``at_cycle`` stamps) the moment a trace recorder, sim
  hot-spot profiler, or the live profiler oracle subscribes,
* a **column recorder** in the bus's recorder slot (what
  :func:`repro.profile.profile_program` installs) keeps the batched
  mode: cache-routed blocks advance the cycle counter per instruction,
  so the data rows the bus records carry exact ``at_cycle`` stamps, and
  hand the recorder one row per block; blocks end at ``.func`` starts
  and ends so that a row never spans two code blocks,
* the engine **falls back to the reference step loop** whenever exact
  per-cycle interleaving matters: around instruction-count (timed) DMA
  triggers, registered instruction hooks, declared exact windows (see
  :meth:`Machine.add_exact_window` — the seam fault injection and
  scrubbing epochs use), and when the instruction limit could be crossed
  inside a block.

Equivalence contract: for any program, config, and schedule, running
under this engine produces byte-identical architectural state, cycle
counts, access-event streams, and per-device energy totals to the
reference engine — including on error paths (exceptions are raised at
the same instruction with the same partially-updated statistics).  Every
:meth:`Machine.run` takes this engine; the reference loop runs whole
only inside :func:`repro.sim.diffcheck.reference_engine`, the oracle
scope that :mod:`repro.sim.diffcheck`, ``tests/test_differential`` and
``repro golden`` hold the contract against.

One invariant the compiled closures rely on: general-purpose registers
always hold masked 32-bit values.  Every architectural write path masks
(as the reference core does), so this holds for any machine-driven run;
code poking raw Python ints into ``cpu.state.registers`` directly must
mask them.
"""

from __future__ import annotations

from ..errors import (
    ExecutionLimitExceeded,
    IllegalInstructionError,
)
from ..isa.instructions import (
    INSTRUCTION_BYTES,
    Condition,
    Mnemonic,
    WRITES_FIRST_OPERAND,
)
from ..isa.registers import LR, PC, SP
from ..mem.hierarchy import AccessType
from .cpu import _DISPATCH, _MASK32, _signed
from .machine import EXIT_ADDRESS

_BIT31 = 0x8000_0000
_MASK33 = 0x1_FFFF_FFFF

# --- basic blocks -------------------------------------------------------------

#: sentinel for addresses with no decodable block (machine.step() raises
#: the reference diagnostics)
_STEP = object()

_MAX_BLOCK = 128

_BLOCK_ENDERS = frozenset({Mnemonic.B, Mnemonic.BL, Mnemonic.BX,
                           Mnemonic.HALT})


def _writes_register(instruction, register):
    mnemonic = instruction.mnemonic
    if mnemonic in WRITES_FIRST_OPERAND:
        first = instruction.operands[0]
        return first.is_register and first.value == register
    return False


def _ends_block(instruction):
    mnemonic = instruction.mnemonic
    if mnemonic in _BLOCK_ENDERS:
        return True
    if mnemonic is Mnemonic.POP:
        return PC in instruction.operands[0].value
    return _writes_register(instruction, PC)


def _moves_sp(instruction):
    return (instruction.mnemonic in (Mnemonic.PUSH, Mnemonic.POP)
            or _writes_register(instruction, SP))


class _Block:
    """One predecoded straight-line run of instructions.

    ``sp_moves`` is true when an instruction before the last may change
    the stack pointer, so the recorder's lowest-SP-at-a-fetch column
    has to look at every fetch, not only the first.
    """

    __slots__ = ("start", "end", "n", "pcs", "ops", "mnemonics", "counts",
                 "sp_moves", "route", "route_version")

    def __init__(self, start, pcs, ops, mnemonics, sp_moves):
        self.start = start
        self.end = pcs[-1] + INSTRUCTION_BYTES
        self.n = len(ops)
        self.pcs = pcs
        self.ops = ops
        self.mnemonics = mnemonics
        counts = {}
        for mnemonic in mnemonics:
            counts[mnemonic] = counts.get(mnemonic, 0) + 1
        self.counts = counts
        self.sp_moves = sp_moves
        self.route = None
        self.route_version = -1


# --- condition tests ----------------------------------------------------------

_CONDITION_TESTS = {
    Condition.EQ: lambda s: s.zero,
    Condition.NE: lambda s: not s.zero,
    Condition.LT: lambda s: s.negative != s.overflow,
    Condition.LE: lambda s: s.zero or s.negative != s.overflow,
    Condition.GT: lambda s: not s.zero and s.negative == s.overflow,
    Condition.GE: lambda s: s.negative == s.overflow,
    Condition.MI: lambda s: s.negative,
    Condition.PL: lambda s: not s.negative,
    Condition.HS: lambda s: s.carry,
    Condition.LO: lambda s: not s.carry,
    Condition.HI: lambda s: s.carry and not s.zero,
    Condition.LS: lambda s: not s.carry or s.zero,
}


class FastEngine:
    """Basic-block execution engine bolted onto one :class:`Machine`.

    Blocks and compiled closures are cached per engine (the program and
    trigger map are fixed at machine construction), so hot loops pay
    the compile cost once.  :meth:`Machine.run` builds one engine per
    run and does not keep it, so a finished machine is freed by
    reference counting.
    """

    def __init__(self, machine):
        self.machine = machine
        self.cpu = machine.cpu
        self.state = self.cpu.state
        self.regs = self.cpu.state.registers
        self.stats = self.cpu.stats
        self.memory = machine.memory
        self.events = machine.events
        self.data_access = self.cpu._data_access
        self._blocks = {}
        # a block ends before any of these: PC triggers, and code-block
        # (.func) boundaries, so no block spans two profiled functions
        self._split_pcs = frozenset(machine._triggers).union(
            *((block.start, block.end)
              for block in machine.program.code_blocks))

    # --- the run loop --------------------------------------------------------

    def run(self, max_instructions):
        """Run to halt, mirroring the reference loop's check order:
        instruction limit, exit address, PC triggers, timed triggers,
        hooks — then a whole block (or one reference step)."""
        machine = self.machine
        cpu = self.cpu
        stats = self.stats
        regs = self.regs
        blocks = self._blocks
        events = self.events
        recorder = events.recorder
        while not cpu.halted:
            if stats.instructions >= max_instructions:
                raise ExecutionLimitExceeded(
                    "exceeded %d instructions at pc=0x%08x"
                    % (max_instructions, cpu.state.pc))
            pc = regs[PC]
            if pc == EXIT_ADDRESS:
                cpu.halted = True
                break
            if machine._triggers:
                machine._check_triggers(pc)
            if machine._timed:
                machine._check_timed_triggers()
            if machine._hooks:
                machine._check_hooks()
            block = blocks.get(pc)
            if block is None:
                block = self._build_block(pc)
                blocks[pc] = block
            if block is _STEP:
                machine.step()
                continue
            n = block.n
            if (stats.instructions + n > max_instructions
                    or self._timed_due_within(n)
                    or (machine._hooks
                        and machine._hooks[0][0]
                        <= stats.instructions + n - 1)
                    or (machine._exact_windows
                        and self._window_overlaps(n))):
                # Exact per-cycle interleaving matters somewhere inside
                # this block: hand one instruction to the reference loop
                # and re-evaluate.
                machine.step()
                continue
            if events._subscribers:
                self._run_granular(block)
            elif recorder is None:
                self._run_batched(block)
            else:
                self._run_recorded(block, recorder)

    # --- fallback predicates --------------------------------------------------

    def _timed_due_within(self, n):
        machine = self.machine
        index = machine._timed_index
        timed = machine._timed
        return (index < len(timed)
                and timed[index].trigger_instruction
                <= self.stats.instructions + n - 1)

    def _window_overlaps(self, n):
        first = self.stats.instructions
        last = first + n - 1
        for start, end in self.machine._exact_windows:
            if start <= last and end > first:
                return True
        return False

    # --- block construction ---------------------------------------------------

    def _build_block(self, pc):
        program = self.machine.program
        instruction = program.instruction_at(pc)
        if instruction is None:
            return _STEP
        splits = self._split_pcs
        pcs = []
        ops = []
        mnemonics = []
        sp_moves = False
        address = pc
        while True:
            pcs.append(address)
            mnemonics.append(instruction.mnemonic)
            ops.append(self._compile(instruction,
                                     address + INSTRUCTION_BYTES))
            if _ends_block(instruction) or len(ops) >= _MAX_BLOCK:
                break
            address += INSTRUCTION_BYTES
            if address in splits:
                break
            # not the block's last instruction: a fetch follows it
            sp_moves = sp_moves or _moves_sp(instruction)
            instruction = program.instruction_at(address)
            if instruction is None:
                break
        return _Block(pc, tuple(pcs), ops, tuple(mnemonics), sp_moves)

    # --- block execution ------------------------------------------------------

    def _route_of(self, block):
        memory = self.memory
        version = memory.remap_version
        if block.route_version != version:
            block.route = memory.constant_fetch_route(
                block.start, block.end - block.start)
            block.route_version = version
        return block.route

    def _run_batched(self, block):
        """No subscribers: skip publishes, batch fetch/instruction
        accounting, preserve float-accumulation order for energy."""
        stats = self.stats
        ops = block.ops
        n = block.n
        route = self._route_of(block)
        kind = route[0]
        exec_cycles = 0
        i = 0
        done = 0
        if kind == "spm":
            device = route[1]
            device_stats = device.stats
            latency = device.read_latency
            energy = device.energy_model.read_energy
            try:
                while i < n:
                    # per-op energy add keeps the float sum in the exact
                    # order the reference engine accumulates it
                    device_stats.dynamic_energy += energy
                    done = i + 1
                    exec_cycles += ops[i]()
                    i += 1
            except BaseException:
                device_stats.reads += done
                device_stats.read_bytes += INSTRUCTION_BYTES * done
                device_stats.read_cycles += latency * done
                stats.cycles += latency * (done - 1) + exec_cycles
                self._count_partial(block, done)
                raise
            device_stats.reads += n
            device_stats.read_bytes += INSTRUCTION_BYTES * n
            device_stats.read_cycles += latency * n
            stats.cycles += latency * n + exec_cycles
        else:
            # the cache is stateful (LRU, fills, write-backs), and mixed
            # routes need per-access adjudication: fetch one at a time,
            # but still through predecoded closures with no publishes
            if kind == "cache":
                access = self.memory.cache.access
                pcs = block.pcs
                try:
                    while i < n:
                        fetch_cycles = access(
                            pcs[i], INSTRUCTION_BYTES, False, 0).cycles
                        done = i + 1
                        exec_cycles += fetch_cycles + ops[i]()
                        i += 1
                except BaseException:
                    stats.cycles += exec_cycles
                    self._count_partial(block, done)
                    raise
            else:
                access = self.memory.access
                pcs = block.pcs
                try:
                    while i < n:
                        fetch_cycles = access(
                            pcs[i], INSTRUCTION_BYTES, False, 0,
                            AccessType.FETCH).cycles
                        done = i + 1
                        exec_cycles += fetch_cycles + ops[i]()
                        i += 1
                except BaseException:
                    stats.cycles += exec_cycles
                    self._count_partial(block, done)
                    raise
            stats.cycles += exec_cycles
        stats.instructions += n
        counts = stats.mnemonic_counts
        for mnemonic, count in block.counts.items():
            counts[mnemonic] = counts.get(mnemonic, 0) + count

    def _run_granular(self, block):
        """Subscribers present: every fetch travels the full router (so
        events publish with exact ``at_cycle`` stamps and the cycle
        counter advances per instruction), but decode/dispatch still
        comes from the predecoded closures."""
        stats = self.stats
        access = self.memory.access
        pcs = block.pcs
        ops = block.ops
        n = block.n
        i = 0
        done = 0
        try:
            while i < n:
                fetch_cycles = access(
                    pcs[i], INSTRUCTION_BYTES, False, 0,
                    AccessType.FETCH).cycles
                done = i + 1
                stats.cycles += fetch_cycles + ops[i]()
                i += 1
        except BaseException:
            self._count_partial(block, done)
            raise
        stats.instructions += n
        counts = stats.mnemonic_counts
        for mnemonic, count in block.counts.items():
            counts[mnemonic] = counts.get(mnemonic, 0) + count

    def _run_recorded(self, block, recorder):
        """A column recorder and no subscribers.  The cache route
        fetches as in batched mode but advances the cycle counter per
        instruction, so the data rows the bus records are stamped
        exactly, then hands the recorder one row for the whole block.
        Other routes take the granular loop, whose fetches the bus
        records one instruction at a time."""
        if self._route_of(block)[0] != "cache":
            self._run_granular(block)
            return
        stats = self.stats
        regs = self.regs
        access = self.memory.cache.access
        pcs = block.pcs
        ops = block.ops
        n = block.n
        sp_moves = block.sp_moves
        first = last = stats.cycles
        low_sp = regs[SP]
        i = 0
        done = 0
        try:
            while i < n:
                if sp_moves and regs[SP] < low_sp:
                    low_sp = regs[SP]
                last = stats.cycles
                fetch_cycles = access(
                    pcs[i], INSTRUCTION_BYTES, False, 0).cycles
                done = i + 1
                stats.cycles += fetch_cycles + ops[i]()
                i += 1
        except BaseException:
            self._count_partial(block, done)
            raise
        recorder.block(block.start, n, first, last, low_sp)
        stats.instructions += n
        counts = stats.mnemonic_counts
        for mnemonic, count in block.counts.items():
            counts[mnemonic] = counts.get(mnemonic, 0) + count

    def _count_partial(self, block, done):
        """Reference semantics for an exception at block op ``done - 1``:
        every instruction whose execute stage was entered is counted
        (the reference core counts before dispatching the handler)."""
        stats = self.stats
        stats.instructions += done
        counts = stats.mnemonic_counts
        for mnemonic in block.mnemonics[:done]:
            counts[mnemonic] = counts.get(mnemonic, 0) + 1

    # --- the closure compiler -------------------------------------------------

    def _compile(self, instruction, next_pc):
        factory = _COMPILERS.get(instruction.mnemonic)
        body = factory(self, instruction, next_pc) if factory else None
        if body is None:
            body = self._generic(instruction, next_pc)
        condition = instruction.condition
        if condition is Condition.AL:
            return body
        test = _CONDITION_TESTS[condition]
        state = self.state
        regs = self.regs

        def conditional():
            if test(state):
                return body()
            regs[PC] = next_pc
            return 1

        return conditional

    def _generic(self, instruction, next_pc):
        """Exact-by-delegation closure: the reference handler runs with
        only decode and condition evaluation hoisted out."""
        handler = _DISPATCH.get(instruction.mnemonic)
        regs = self.regs
        if handler is None:
            mnemonic = instruction.mnemonic

            def op():
                regs[PC] = next_pc
                raise IllegalInstructionError(
                    "no handler for %r" % mnemonic)

            return op
        cpu = self.cpu

        def op():
            regs[PC] = next_pc
            return handler(cpu, instruction)

        return op

    def _getter(self, operand):
        """Operand-value closure, or None when the shape needs the
        generic path.  Register reads skip the reference's defensive
        mask: architectural writes always mask (see module docstring)."""
        if operand.is_register:
            number = operand.value
            regs = self.regs
            return lambda: regs[number]
        if operand.is_immediate:
            value = operand.value & _MASK32
            return lambda: value
        return None

    # --- per-mnemonic compilers ----------------------------------------------

    def _c_move(self, ins, np):
        operands = ins.operands
        rd = operands[0].value
        source = operands[1]
        invert = ins.mnemonic is Mnemonic.MVN
        set_flags = ins.set_flags
        regs = self.regs
        state = self.state
        if source.is_immediate:
            value = source.value & _MASK32
            if invert:
                value = ~value & _MASK32
            if not set_flags:
                def op():
                    regs[PC] = np
                    regs[rd] = value
                    return 1
                return op
            negative = (value & _BIT31) != 0
            zero = value == 0

            def op():
                regs[PC] = np
                regs[rd] = value
                state.negative = negative
                state.zero = zero
                return 1
            return op
        if not source.is_register:
            return None
        rm = source.value
        if not set_flags:
            if invert:
                def op():
                    regs[PC] = np
                    regs[rd] = ~regs[rm] & _MASK32
                    return 1
            else:
                def op():
                    regs[PC] = np
                    regs[rd] = regs[rm]
                    return 1
            return op

        def op():
            regs[PC] = np
            value = ~regs[rm] & _MASK32 if invert else regs[rm]
            regs[rd] = value
            state.negative = (value & _BIT31) != 0
            state.zero = value == 0
            return 1
        return op

    def _c_arith(self, ins, np):
        rd = ins.operands[0].value
        get_a = self._getter(ins.operands[1])
        get_b = self._getter(ins.operands[2])
        if get_a is None or get_b is None:
            return None
        mnemonic = ins.mnemonic
        regs = self.regs
        state = self.state
        if mnemonic is Mnemonic.ADD:
            if not ins.set_flags:
                def op():
                    regs[PC] = np
                    regs[rd] = (get_a() + get_b()) & _MASK32
                    return 1
                return op

            def op():
                regs[PC] = np
                a = get_a()
                b = get_b()
                result = a + b
                state.negative = (result & _BIT31) != 0
                state.zero = (result & _MASK32) == 0
                state.carry = result > _MASK32
                state.overflow = (
                    ((a ^ result) & (b ^ result)) & _BIT31) != 0
                regs[rd] = result & _MASK32
                return 1
            return op
        # SUB computes a - b, RSB computes b - a; flags follow the
        # minuend/subtrahend order exactly as the reference core does.
        if mnemonic is Mnemonic.SUB:
            get_x, get_y = get_a, get_b
        else:
            get_x, get_y = get_b, get_a
        if not ins.set_flags:
            def op():
                regs[PC] = np
                regs[rd] = (get_x() - get_y()) & _MASK32
                return 1
            return op

        def op():
            regs[PC] = np
            x = get_x()
            y = get_y()
            r33 = (x - y) & _MASK33
            state.negative = (r33 & _BIT31) != 0
            state.zero = (r33 & _MASK32) == 0
            state.carry = x >= y
            state.overflow = (((x ^ y) & (x ^ r33)) & _BIT31) != 0
            regs[rd] = r33 & _MASK32
            return 1
        return op

    def _c_mul(self, ins, np):
        if ins.mnemonic is not Mnemonic.MUL:
            return None  # MLA through the generic handler
        rd = ins.operands[0].value
        get_a = self._getter(ins.operands[1])
        get_b = self._getter(ins.operands[2])
        if get_a is None or get_b is None:
            return None
        regs = self.regs
        state = self.state
        if not ins.set_flags:
            def op():
                regs[PC] = np
                regs[rd] = (get_a() * get_b()) & _MASK32
                return 3
            return op

        def op():
            regs[PC] = np
            result = get_a() * get_b()
            regs[rd] = result & _MASK32
            state.negative = (result & _BIT31) != 0
            state.zero = (result & _MASK32) == 0
            return 3
        return op

    def _c_logic(self, ins, np):
        rd = ins.operands[0].value
        get_a = self._getter(ins.operands[1])
        get_b = self._getter(ins.operands[2])
        if get_a is None or get_b is None:
            return None
        mnemonic = ins.mnemonic
        regs = self.regs
        state = self.state
        if mnemonic is Mnemonic.AND:
            combine = lambda a, b: a & b
        elif mnemonic is Mnemonic.ORR:
            combine = lambda a, b: a | b
        elif mnemonic is Mnemonic.EOR:
            combine = lambda a, b: a ^ b
        else:  # BIC
            combine = lambda a, b: a & ~b
        if not ins.set_flags:
            def op():
                regs[PC] = np
                regs[rd] = combine(get_a(), get_b())
                return 1
            return op

        def op():
            regs[PC] = np
            value = combine(get_a(), get_b())
            regs[rd] = value
            state.negative = (value & _BIT31) != 0
            state.zero = value == 0
            return 1
        return op

    def _c_shift(self, ins, np):
        rd = ins.operands[0].value
        get_a = self._getter(ins.operands[1])
        get_amount = self._getter(ins.operands[2])
        if get_a is None or get_amount is None:
            return None
        mnemonic = ins.mnemonic
        set_flags = ins.set_flags
        regs = self.regs
        state = self.state

        if mnemonic is Mnemonic.LSL:
            def shifted(a, amount):
                return a << amount if amount < 32 else 0
        elif mnemonic is Mnemonic.LSR:
            def shifted(a, amount):
                return a >> amount if amount < 32 else 0
        else:  # ASR
            def shifted(a, amount):
                if amount < 32:
                    return (a - 0x1_0000_0000 if a & _BIT31 else a) >> amount
                return _MASK32 if a & _BIT31 else 0

        if not set_flags:
            def op():
                regs[PC] = np
                regs[rd] = shifted(get_a(), get_amount() & 0xFF) & _MASK32
                return 1
            return op

        def op():
            regs[PC] = np
            result = shifted(get_a(), get_amount() & 0xFF)
            regs[rd] = result & _MASK32
            state.negative = (result & _BIT31) != 0
            state.zero = (result & _MASK32) == 0
            return 1
        return op

    def _c_compare(self, ins, np):
        get_a = self._getter(ins.operands[0])
        get_b = self._getter(ins.operands[1])
        if get_a is None or get_b is None:
            return None
        mnemonic = ins.mnemonic
        regs = self.regs
        state = self.state
        if mnemonic is Mnemonic.CMP:
            def op():
                regs[PC] = np
                a = get_a()
                b = get_b()
                r33 = (a - b) & _MASK33
                state.negative = (r33 & _BIT31) != 0
                state.zero = (r33 & _MASK32) == 0
                state.carry = a >= b
                state.overflow = (((a ^ b) & (a ^ r33)) & _BIT31) != 0
                return 1
            return op
        if mnemonic is Mnemonic.CMN:
            def op():
                regs[PC] = np
                a = get_a()
                b = get_b()
                result = a + b
                state.negative = (result & _BIT31) != 0
                state.zero = (result & _MASK32) == 0
                state.carry = result > _MASK32
                state.overflow = (
                    ((a ^ result) & (b ^ result)) & _BIT31) != 0
                return 1
            return op

        def op():  # TST
            regs[PC] = np
            value = get_a() & get_b()
            state.negative = (value & _BIT31) != 0
            state.zero = value == 0
            return 1
        return op

    def _c_load_store(self, ins, np):
        mnemonic = ins.mnemonic
        operands = ins.operands
        rd = operands[0].value
        regs = self.regs
        stats = self.stats
        data_access = self.data_access
        if len(operands) == 2:
            if (mnemonic is not Mnemonic.LDR
                    or not isinstance(operands[1].value, int)):
                return None  # generic handler raises the reference error
            value = operands[1].value & _MASK32

            def op():
                regs[PC] = np
                regs[rd] = value
                return 1
            return op
        get_base = self._getter(operands[1])
        offset = operands[2]
        if get_base is None:
            return None
        if offset.is_immediate:
            delta = _signed(offset.value & _MASK32)

            def effective():
                return (get_base() + delta) & _MASK32
        elif offset.is_register:
            get_offset = self._getter(offset)

            def effective():
                return (get_base() + _signed(get_offset())) & _MASK32
        else:
            return None
        size = 1 if mnemonic in (Mnemonic.LDRB, Mnemonic.STRB) else 4
        if mnemonic in (Mnemonic.STR, Mnemonic.STRB):
            value_mask = (1 << (8 * size)) - 1

            def op():
                regs[PC] = np
                stats.stores += 1
                _, cycles = data_access(
                    effective(), size, True, regs[rd] & value_mask)
                return cycles
            return op

        def op():
            regs[PC] = np
            stats.loads += 1
            value, cycles = data_access(effective(), size, False, 0)
            regs[rd] = value
            return cycles
        return op

    def _c_branch(self, ins, np):
        mnemonic = ins.mnemonic
        regs = self.regs
        stats = self.stats
        if mnemonic is Mnemonic.BX:
            get_target = self._getter(ins.operands[0])
            if get_target is None:
                return None

            def op():
                stats.branches += 1
                stats.taken_branches += 1
                regs[PC] = get_target() & _MASK32
                return 2
            return op
        raw_target = ins.operands[0].value
        if not isinstance(raw_target, int):
            return None  # unresolved label: generic handler diagnoses it
        target = raw_target & _MASK32
        if mnemonic is Mnemonic.B:
            def op():
                stats.branches += 1
                stats.taken_branches += 1
                regs[PC] = target
                return 2
            return op
        events = self.cpu.events

        def op():  # BL
            stats.branches += 1
            stats.taken_branches += 1
            regs[LR] = np
            if events is not None:
                events.publish_call(raw_target)
            regs[PC] = target
            return 2
        return op

    def _c_nop(self, ins, np):
        regs = self.regs

        def op():
            regs[PC] = np
            return 1
        return op

    def _c_halt(self, ins, np):
        regs = self.regs
        cpu = self.cpu

        def op():
            regs[PC] = np
            cpu.halted = True
            return 1
        return op


_COMPILERS = {
    Mnemonic.MOV: FastEngine._c_move,
    Mnemonic.MVN: FastEngine._c_move,
    Mnemonic.ADD: FastEngine._c_arith,
    Mnemonic.SUB: FastEngine._c_arith,
    Mnemonic.RSB: FastEngine._c_arith,
    Mnemonic.MUL: FastEngine._c_mul,
    Mnemonic.MLA: FastEngine._c_mul,
    Mnemonic.AND: FastEngine._c_logic,
    Mnemonic.ORR: FastEngine._c_logic,
    Mnemonic.EOR: FastEngine._c_logic,
    Mnemonic.BIC: FastEngine._c_logic,
    Mnemonic.LSL: FastEngine._c_shift,
    Mnemonic.LSR: FastEngine._c_shift,
    Mnemonic.ASR: FastEngine._c_shift,
    Mnemonic.CMP: FastEngine._c_compare,
    Mnemonic.CMN: FastEngine._c_compare,
    Mnemonic.TST: FastEngine._c_compare,
    Mnemonic.LDR: FastEngine._c_load_store,
    Mnemonic.STR: FastEngine._c_load_store,
    Mnemonic.LDRB: FastEngine._c_load_store,
    Mnemonic.STRB: FastEngine._c_load_store,
    Mnemonic.B: FastEngine._c_branch,
    Mnemonic.BL: FastEngine._c_branch,
    Mnemonic.BX: FastEngine._c_branch,
    Mnemonic.NOP: FastEngine._c_nop,
    Mnemonic.HALT: FastEngine._c_halt,
    # SDIV/UDIV/PUSH/POP take the generic per-handler path: rare enough
    # that decode hoisting alone is the win.
}
