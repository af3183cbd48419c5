"""Fast-path execution engine: predecoded basic blocks, batched accounting.

The reference interpreter (:mod:`repro.sim.cpu` driven by
:meth:`repro.sim.machine.Machine.step`) re-decodes operands and walks the
full memory router on every cycle.  This module adds a second engine that
produces **bit-identical results by construction** while skipping the
per-cycle overhead:

* programs are predecoded lazily into **basic blocks** — straight-line
  instruction runs ending at a control transfer, a ``.func`` start or
  end (so that a profile row never spans two code blocks), or the text
  end — and each instruction is compiled once into an operand-resolved
  closure (register indices, masked immediates, and flag recipes baked
  in; the closure returns the execute-stage cycle cost exactly as
  :meth:`Cpu.execute` would),
* each block retires through one of three loops, chosen by its fetch
  route (:meth:`MemorySystem.constant_fetch_route`, computed once when
  the block is built: every mapping is installed before the run starts,
  so the route cannot change) and by who listens on the event bus:

  - the **SPM batch**, when the whole block's fetch range is serviced
    by one constant-latency SPM region and the bus is silent: counts,
    bytes, and cycles are added in bulk, while per-access dynamic
    energy is still accumulated in reference order so float sums match
    bit-for-bit,
  - the **cache loop**, when the whole range goes through the L1 cache
    and no subscriber listens: the cache is stateful, so fetches call
    the value-free :meth:`Cache.fetch` one at a time with no publishes
    (the instruction comes from the predecoded block, so only the
    cycles are needed), and the cycle counter advances per
    instruction; a **column recorder** in the bus's recorder slot
    (what :func:`repro.profile.profile_program` installs) gets one row
    per block, while the data rows it takes from the bus carry exact
    ``at_cycle`` stamps,
  - the **granular loop** otherwise — a subscriber (trace recorder,
    sim hot-spot profiler, the live profiler oracle), a mixed route
    that needs the router's per-access adjudication, or a recorder on
    an SPM route: every fetch travels the full router and publishes
    with an exact ``at_cycle`` stamp, through the same closures,
* the engine **falls back to the reference step loop** one instruction
  at a time when the instruction limit could be crossed inside a block,
  and at any address it cannot decode (the reference diagnostics are
  raised there),
* a block retired whole bumps its own ``retired`` counter, and
  :meth:`FastEngine.run` folds ``retired`` times the block's mnemonic
  counts into ``stats.mnemonic_counts`` when it returns or raises
  (nothing reads them during a run); single steps and a partial block
  on an error path count into them directly.

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
    ends_block,
    writes_register,
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


def _moves_sp(instruction):
    return (instruction.mnemonic in (Mnemonic.PUSH, Mnemonic.POP)
            or writes_register(instruction, SP))


class _Block:
    """One predecoded straight-line run of instructions.

    ``sp_moves`` is true when an instruction before the last may change
    the stack pointer, so the recorder's lowest-SP-at-a-fetch column
    has to look at every fetch, not only the first.  ``route`` is the
    fetch route of exactly ``[start, end)``.  ``retired`` counts the
    block's whole retirements not yet folded into the mnemonic counts.
    """

    __slots__ = ("start", "end", "n", "pcs", "ops", "mnemonics", "counts",
                 "sp_moves", "route", "retired")

    def __init__(self, start, pcs, ops, mnemonics, sp_moves, route):
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
        self.route = route
        self.retired = 0


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

    Blocks, their fetch routes and compiled closures are cached per
    engine (the program is fixed at machine construction, the placement
    before the run), so hot loops pay the compile cost once.
    :meth:`Machine.run` builds one engine per run and does not keep it,
    so a finished machine is freed by reference counting.
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
        # a block ends before any code-block (.func) boundary, so no
        # block spans two profiled functions
        self._split_pcs = frozenset(
            pc for block in machine.program.code_blocks
            for pc in (block.start, block.end))

    # --- the run loop --------------------------------------------------------

    def run(self, max_instructions):
        """Run to halt, mirroring the reference loop's check order:
        instruction limit, exit address — then a whole block (or one
        reference step).  The mnemonic counts of whole-block
        retirements are folded in when the run returns or raises."""
        machine = self.machine
        cpu = self.cpu
        stats = self.stats
        regs = self.regs
        blocks = self._blocks
        subscribers = self.events._subscribers
        recorder = self.events.recorder
        try:
            while not cpu.halted:
                if stats.instructions >= max_instructions:
                    raise ExecutionLimitExceeded(
                        "exceeded %d instructions at pc=0x%08x"
                        % (max_instructions, cpu.state.pc))
                pc = regs[PC]
                if pc == EXIT_ADDRESS:
                    cpu.halted = True
                    break
                block = blocks.get(pc)
                if block is None:
                    block = self._build_block(pc)
                    blocks[pc] = block
                if block is _STEP:
                    machine.step()
                    continue
                if stats.instructions + block.n > max_instructions:
                    # The limit falls inside this block: hand one
                    # instruction to the reference loop and re-evaluate.
                    machine.step()
                    continue
                if subscribers:
                    self._run_granular(block)
                    continue
                kind = block.route[0]
                if kind == "cache":
                    self._run_cached(block, recorder)
                elif kind == "spm" and recorder is None:
                    self._run_batched(block)
                else:
                    # mixed routes need per-access adjudication, and the
                    # recorder takes SPM fetches one at a time from the
                    # bus
                    self._run_granular(block)
        finally:
            counts = stats.mnemonic_counts
            for block in blocks.values():
                if block is not _STEP and block.retired:
                    for mnemonic, count in block.counts.items():
                        counts[mnemonic] = (counts.get(mnemonic, 0)
                                            + count * block.retired)
                    block.retired = 0

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
            if ends_block(instruction) or len(ops) >= _MAX_BLOCK:
                break
            address += INSTRUCTION_BYTES
            if address in splits:
                break
            # not the block's last instruction: a fetch follows it
            sp_moves = sp_moves or _moves_sp(instruction)
            instruction = program.instruction_at(address)
            if instruction is None:
                break
        # route exactly the block's own fetches: the loop's ``address``
        # may already be one instruction past them
        route = self.memory.constant_fetch_route(
            pc, pcs[-1] + INSTRUCTION_BYTES - pc)
        return _Block(pc, tuple(pcs), ops, tuple(mnemonics), sp_moves, route)

    # --- block execution ------------------------------------------------------

    def _run_batched(self, block):
        """The whole block fetches from one constant-latency SPM region
        (its route's device) and nothing listens: skip publishes, batch
        fetch/instruction accounting, preserve float-accumulation order
        for energy."""
        stats = self.stats
        ops = block.ops
        n = block.n
        device = block.route[1]
        device_stats = device.stats
        latency = device.read_latency
        energy = device.energy_model.read_energy
        exec_cycles = 0
        i = 0
        done = 0
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
        self._count_block(block)

    def _run_cached(self, block, recorder):
        """The whole block fetches through the L1 cache and no subscriber
        listens.  The cache is stateful (LRU, fills, write-backs), so
        fetches go one at a time, straight to the value-free
        :meth:`Cache.fetch` with no publishes.  The cycle counter
        advances per instruction, so the data rows a column ``recorder``
        takes from the bus carry exact ``at_cycle`` stamps; the recorder
        then gets one row for the whole block."""
        stats = self.stats
        regs = self.regs
        fetch = self.memory.cache.fetch
        pcs = block.pcs
        ops = block.ops
        n = block.n
        sp_moves = block.sp_moves
        first = stats.cycles
        low_sp = regs[SP]
        cycles = 0
        i = 0
        done = 0
        try:
            while i < n:
                if sp_moves and regs[SP] < low_sp:
                    low_sp = regs[SP]
                fetch_cycles = fetch(pcs[i], INSTRUCTION_BYTES)
                done = i + 1
                cycles = fetch_cycles + ops[i]()
                stats.cycles += cycles
                i += 1
        except BaseException:
            self._count_partial(block, done)
            raise
        if recorder is not None:
            # the last fetch was issued ``cycles`` (its step) ago
            recorder.block(block.start, n, first, stats.cycles - cycles,
                           low_sp)
        self._count_block(block)

    def _run_granular(self, block):
        """Every fetch travels the full router, so subscribers and the
        recorder see it with an exact ``at_cycle`` stamp, and mixed
        routes get the router's per-access adjudication (errors
        included); decode/dispatch still comes from the predecoded
        closures."""
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
        self._count_block(block)

    def _count_block(self, block):
        """A whole block retired: :meth:`run` folds its mnemonic counts
        in when the run ends."""
        self.stats.instructions += block.n
        block.retired += 1

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
