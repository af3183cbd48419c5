"""Abstract constant/pointer propagation through the register file.

The domain has three kinds of value:

* ``CONST c`` — the register provably holds the 32-bit constant ``c``
  (address constants from ``ldr rd, =sym`` included);
* ``PTR {names}`` — the register holds *some* address inside the named
  data regions (data objects or the stack window).  Produced when
  pointer arithmetic mixes a known base with an unknown index, and when
  two different address constants meet at a join — exactly what the
  static profiler needs to attribute a ``ldr r2, [r6, r0]`` to its
  array without knowing the index;
* ``TOP`` — anything.

Propagation is an interprocedural fixpoint: a function's entry state is
the meet of the machine states at every ``bl`` site targeting it (the
callee sees the caller's registers); ``bl`` clobbers r0–r3/r12/lr at the
call site per the calling convention.  Recursion converges because the
lattice is finite-height.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import Condition, Mnemonic, OperandKind
from ..isa.registers import LR, NUM_REGISTERS, SP
from ..profile.blocks import STACK_BLOCK_NAME
from .cfg import CALL_CLOBBERED

_MASK = 0xFFFFFFFF

K_TOP = "top"
K_CONST = "const"
K_PTR = "ptr"


@dataclass(frozen=True)
class Value:
    """One abstract register value."""

    kind: str
    const: int = 0
    regions: frozenset = frozenset()

    @property
    def is_const(self):
        return self.kind == K_CONST

    @property
    def is_pointer(self):
        return self.kind == K_PTR

    def __repr__(self):
        if self.kind == K_CONST:
            return "CONST(0x%x)" % self.const
        if self.kind == K_PTR:
            return "PTR(%s)" % ",".join(sorted(self.regions))
        return "TOP"


TOP = Value(K_TOP)


def const(value):
    return Value(K_CONST, const=value & _MASK)


def pointer(regions):
    regions = frozenset(regions)
    if not regions:
        return TOP
    return Value(K_PTR, regions=regions)


def _signed(value):
    value &= _MASK
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class ValueDomain:
    """Program-aware value operations (region resolution needs layout)."""

    def __init__(self, program):
        self.program = program
        self._stack_low = program.stack_top - program.stack_size

    def region_of(self, address):
        """The data-like region containing an address, or None."""
        obj = self.program.data_object_at(address)
        if obj is not None:
            return obj.name
        if self._stack_low <= address < self.program.stack_top:
            return STACK_BLOCK_NAME
        return None

    def regions_of(self, value):
        """The data-like regions a value may point into (may be empty)."""
        if value.is_pointer:
            return value.regions
        if value.is_const:
            region = self.region_of(value.const)
            if region is not None:
                return frozenset({region})
        return frozenset()

    def meet(self, a, b):
        """Join two values coming from different paths."""
        if a is None:
            return b
        if b is None:
            return a
        if a == b:
            return a
        regions = self.regions_of(a) | self.regions_of(b)
        if regions and self.regions_of(a) and self.regions_of(b):
            return pointer(regions)
        return TOP

    def _pointerish_add(self, a, b):
        regions = self.regions_of(a) | self.regions_of(b)
        if regions:
            return pointer(regions)
        return TOP

    def add(self, a, b):
        if a.is_const and b.is_const:
            return const(a.const + b.const)
        return self._pointerish_add(a, b)

    def sub(self, a, b):
        if a.is_const and b.is_const:
            return const(a.const - b.const)
        # base - index stays inside (or near) the base's region
        regions = self.regions_of(a)
        if regions:
            return pointer(regions)
        return TOP

    def unary(self, mnemonic, a):
        if not a.is_const:
            return TOP
        if mnemonic is Mnemonic.MVN:
            return const(~a.const)
        return a

    def binary(self, mnemonic, a, b):
        """Evaluate a two-source ALU op; TOP unless both sides const."""
        if mnemonic is Mnemonic.ADD:
            return self.add(a, b)
        if mnemonic is Mnemonic.SUB:
            return self.sub(a, b)
        if not (a.is_const and b.is_const):
            return TOP
        x, y = a.const, b.const
        if mnemonic is Mnemonic.RSB:
            return const(y - x)
        if mnemonic is Mnemonic.MUL:
            return const(x * y)
        if mnemonic is Mnemonic.AND:
            return const(x & y)
        if mnemonic is Mnemonic.ORR:
            return const(x | y)
        if mnemonic is Mnemonic.EOR:
            return const(x ^ y)
        if mnemonic is Mnemonic.BIC:
            return const(x & ~y)
        if mnemonic is Mnemonic.LSL:
            return const(x << y) if 0 <= y < 32 else TOP
        if mnemonic is Mnemonic.LSR:
            return const(x >> y) if 0 <= y < 32 else TOP
        if mnemonic is Mnemonic.ASR:
            return const(_signed(x) >> y) if 0 <= y < 32 else TOP
        if mnemonic is Mnemonic.SDIV:
            if y == 0:
                return TOP
            sx, sy = _signed(x), _signed(y)
            return const(int(sx / sy))  # truncation toward zero
        if mnemonic is Mnemonic.UDIV:
            return const(x // y) if y else TOP
        return TOP


def entry_state(domain):
    """The abstract machine state at the program entry point."""
    state = [TOP] * NUM_REGISTERS
    state[SP] = pointer({STACK_BLOCK_NAME})
    return tuple(state)


def meet_states(domain, a, b):
    if a is None:
        return b
    if b is None:
        return a
    return tuple(domain.meet(x, y) for x, y in zip(a, b))


def operand_value(state, operand):
    """The abstract value of a source operand."""
    if operand.kind is OperandKind.IMMEDIATE:
        return const(operand.value)
    if operand.kind is OperandKind.REGISTER:
        return state[operand.value]
    return TOP


def transfer(domain, state, instruction):
    """Abstractly execute one instruction over a register state tuple."""
    state = list(state)
    mnemonic = instruction.mnemonic
    operands = instruction.operands
    new = {}

    if mnemonic in (Mnemonic.MOV, Mnemonic.MVN):
        new[operands[0].value] = domain.unary(
            mnemonic, operand_value(state, operands[1]))
    elif mnemonic in (Mnemonic.ADD, Mnemonic.SUB, Mnemonic.RSB,
                      Mnemonic.MUL, Mnemonic.AND, Mnemonic.ORR,
                      Mnemonic.EOR, Mnemonic.BIC, Mnemonic.LSL,
                      Mnemonic.LSR, Mnemonic.ASR, Mnemonic.SDIV,
                      Mnemonic.UDIV):
        new[operands[0].value] = domain.binary(
            mnemonic,
            operand_value(state, operands[1]),
            operand_value(state, operands[2]))
    elif mnemonic is Mnemonic.MLA:
        product = domain.binary(Mnemonic.MUL,
                                operand_value(state, operands[1]),
                                operand_value(state, operands[2]))
        new[operands[0].value] = domain.add(
            product, operand_value(state, operands[3]))
    elif mnemonic in (Mnemonic.LDR, Mnemonic.LDRB):
        if len(operands) == 2 and operands[1].is_immediate:
            # address generation: ldr rd, =sym
            new[operands[0].value] = const(operands[1].value)
        else:
            new[operands[0].value] = TOP  # memory contents untracked
    elif mnemonic is Mnemonic.POP:
        for register in instruction.operands[0].value:
            new[register] = TOP
    elif mnemonic is Mnemonic.BL:
        for register in CALL_CLOBBERED:
            new[register] = TOP
        new[LR] = TOP
    # PUSH/STR/STRB/CMP/B/BX/NOP/HALT leave the register state alone
    # (SP stays PTR(Stack) across push/pop adjustments).

    conditional = instruction.condition is not Condition.AL
    for register, value in new.items():
        if register == SP and mnemonic in (Mnemonic.PUSH, Mnemonic.POP):
            continue
        state[register] = (domain.meet(state[register], value)
                           if conditional else value)
    return tuple(state)


class ConstantPropagation:
    """Interprocedural constant/pointer propagation over a CFG."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.domain = ValueDomain(cfg.program)
        #: function entry address -> entry state (meet over call sites)
        self.entry_states = {}
        #: (function entry, block start) -> state at block entry
        self.block_in = {}
        self._solve()

    # --- fixpoint ---------------------------------------------------------

    def _solve(self):
        cfg, domain = self.cfg, self.domain
        program_entry = cfg.entry
        if program_entry in cfg.functions:
            self.entry_states[program_entry] = entry_state(domain)
        # Called functions start at bottom (absent, which meet_states
        # treats as identity) so the meet over their call sites can
        # actually refine — seeding them TOP would pin them there.
        # Only functions no call site targets default to all-TOP
        # (their callers are unknown).
        called = {target for _, target in cfg.call_sites}
        for entry in cfg.functions:
            if entry not in called:
                self.entry_states.setdefault(
                    entry, tuple([TOP] * NUM_REGISTERS))

        for _ in range(64):  # outer interprocedural fixpoint
            call_states = {}
            for entry, function in cfg.functions.items():
                self._solve_function(function, call_states)
            changed = False
            for target, state in call_states.items():
                if target not in cfg.functions:
                    continue
                if target == program_entry:
                    continue  # the entry keeps its machine state
                merged = meet_states(domain, self.entry_states.get(target),
                                     state)
                if merged != self.entry_states.get(target):
                    self.entry_states[target] = merged
                    changed = True
            if not changed:
                break
        else:
            # Non-convergence would be a lattice bug; degrade safely.
            for entry in cfg.functions:
                if entry != program_entry:
                    self.entry_states[entry] = tuple(
                        [TOP] * NUM_REGISTERS)
            call_states = {}
            for entry, function in cfg.functions.items():
                self._solve_function(function, call_states)
            return
        # A called function whose only callers are themselves
        # unreachable never received a call state; analyze it with an
        # all-TOP entry so its intra-function constants still resolve.
        orphans = [entry for entry in cfg.functions
                   if entry not in self.entry_states]
        if orphans:
            for entry in orphans:
                self.entry_states[entry] = tuple([TOP] * NUM_REGISTERS)
            call_states = {}
            for entry in orphans:
                self._solve_function(cfg.functions[entry], call_states)

    def _solve_function(self, function, call_states):
        cfg, domain = self.cfg, self.domain
        body = set(function.blocks)
        states = {start: None for start in body}
        states[function.entry] = self.entry_states.get(function.entry)
        worklist = list(function.blocks)
        iterations = 0
        while worklist and iterations < 10000:
            iterations += 1
            start = worklist.pop(0)
            state = states[start]
            if state is None:
                continue
            out = state
            block = cfg.blocks[start]
            for _, instruction in block.instructions:
                if instruction.mnemonic is Mnemonic.BL:
                    target = block.call_target
                    if target is not None:
                        call_states[target] = meet_states(
                            domain, call_states.get(target), out)
                out = transfer(domain, out, instruction)
            for successor in block.successors:
                if successor not in body:
                    continue
                merged = meet_states(domain, states[successor], out)
                if merged != states[successor]:
                    states[successor] = merged
                    if successor not in worklist:
                        worklist.append(successor)
        for start, state in states.items():
            key = (function.entry, start)
            self.block_in[key] = meet_states(
                domain, self.block_in.get(key), state)

    # --- queries ----------------------------------------------------------

    def state_at(self, function, block_start, address):
        """The register state just before ``address`` in a block."""
        state = self.block_in.get((function.entry, block_start))
        if state is None:
            return None
        for instr_address, instruction in (
                self.cfg.blocks[block_start].instructions):
            if instr_address == address:
                return state
            state = transfer(self.domain, state, instruction)
        return None

    def address_regions(self, function, block_start, address, instruction):
        """Where a ``ldr/str [base, off]`` may touch.

        Returns ``(constant_address or None, frozenset of region names)``.
        An empty region set with no constant means "unknown".
        """
        state = self.state_at(function, block_start, address)
        if state is None:
            return None, frozenset()
        operands = instruction.operands
        if len(operands) != 3:
            return None, frozenset()
        base = state[operands[1].value]
        offset = operand_value(state, operands[2])
        target = self.domain.add(base, offset)
        if target.is_const:
            return target.const, self.domain.regions_of(target)
        return None, self.domain.regions_of(target)
