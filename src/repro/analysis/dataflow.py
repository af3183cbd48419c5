"""Classic dataflow over the CFG: use/def sets, reaching definitions,
liveness, def-use chains, plus the two forward passes the lint rules
need (must-initialized registers and may-reach flag setters).

The condition flags are modelled as one pseudo-register ``FLAGS``.  A
``bl`` is assumed to follow the calling convention: it reads the
argument registers, clobbers r0–r3/r12/lr and the flags, and preserves
r4–r11/sp.  Returns (``bx``, ``pop {... pc}``) and ``halt`` observe
every register (whatever the program leaves behind is visible to the
caller or to the final machine state), so a value that survives to
function exit is never reported dead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instructions import (
    ALWAYS_SETS_FLAGS,
    Condition,
    Mnemonic,
    WRITES_FIRST_OPERAND,
)
from ..isa.registers import LR, NUM_REGISTERS, PC, SP
from .cfg import CALL_ARGUMENTS, CALL_CLOBBERED, is_return

#: pseudo-register index for the NZCV condition flags
FLAGS = NUM_REGISTERS

ALL_REGISTERS = frozenset(range(NUM_REGISTERS))


@dataclass(frozen=True)
class UseDef:
    """Registers an instruction reads and writes (FLAGS included).

    ``uses`` holds only the *explicit* operand reads; ``implicit_uses``
    holds convention-driven reads (a ``bl``'s argument registers) and
    ``observes_all`` marks returns/halts, which keep every register
    live without textually reading it.  Liveness folds all three in;
    the uninitialized-use check looks at ``uses`` alone (a caller that
    never sets r2 is fine when the callee takes one argument).  A
    conditional def also implicitly uses its own destination (the old
    value survives when the condition fails); liveness and dead-store
    detection account for that via ``conditional``.
    """

    uses: frozenset
    defs: frozenset
    implicit_uses: frozenset = frozenset()
    conditional: bool = False
    observes_all: bool = False

    @property
    def live_uses(self):
        """The uses that matter for liveness."""
        live = self.uses | self.implicit_uses
        if self.observes_all:
            live = live | ALL_REGISTERS
        if self.conditional:
            live = live | self.defs
        return live


def use_def(instruction):
    """Compute the :class:`UseDef` sets for one instruction."""
    mnemonic = instruction.mnemonic
    operands = instruction.operands
    uses, defs = set(), set()
    implicit = set()

    if mnemonic in WRITES_FIRST_OPERAND:
        defs.add(operands[0].value)
        for operand in operands[1:]:
            if operand.is_register:
                uses.add(operand.value)
    elif mnemonic in ALWAYS_SETS_FLAGS or mnemonic in (
            Mnemonic.STR, Mnemonic.STRB):
        for operand in operands:
            if operand.is_register:
                uses.add(operand.value)
    elif mnemonic is Mnemonic.PUSH:
        uses.update(operands[0].value)
        uses.add(SP)
        defs.add(SP)
    elif mnemonic is Mnemonic.POP:
        uses.add(SP)
        defs.update(operands[0].value)
        defs.add(SP)
    elif mnemonic is Mnemonic.BL:
        implicit.update(CALL_ARGUMENTS)
        defs.update(CALL_CLOBBERED)
        defs.add(LR)
        defs.add(FLAGS)
    elif mnemonic is Mnemonic.BX:
        if operands and operands[0].is_register:
            uses.add(operands[0].value)

    if instruction.set_flags or mnemonic in ALWAYS_SETS_FLAGS:
        defs.add(FLAGS)
    conditional = instruction.condition is not Condition.AL
    if conditional:
        uses.add(FLAGS)
    observes_all = is_return(instruction) or mnemonic is Mnemonic.HALT
    return UseDef(uses=frozenset(uses), defs=frozenset(defs),
                  implicit_uses=frozenset(implicit),
                  conditional=conditional, observes_all=observes_all)


@dataclass
class FunctionDataflow:
    """All per-function dataflow results, keyed by instruction address."""

    function: object  # FlowFunction
    use_defs: dict  # address -> UseDef
    live_out: dict  # block start -> frozenset of registers
    live_in: dict  # block start -> frozenset
    reach_in: dict  # block start -> frozenset of (def address, register)
    maybe_uninit: dict  # block start -> frozenset of registers at entry
    flags_set_in: dict  # block start -> bool (a flag-setter may reach)
    dead_stores: list = field(default_factory=list)  # (address, register)
    uninit_uses: list = field(default_factory=list)  # (address, register)
    unset_flag_uses: list = field(default_factory=list)  # addresses


def analyze_function(cfg, function, initialized_at_entry=None):
    """Run every dataflow pass for one flow function.

    ``initialized_at_entry`` is the register set assumed defined when
    the function is entered; defaults to all registers.  The linter
    passes ``{SP, LR, PC}`` for the program entry only — a callee's
    "uninitialized" reads are really reads of caller state (saving
    callee-saved registers with ``push`` is the canonical example).
    """
    blocks = cfg.blocks
    use_defs = {}
    for start in function.blocks:
        for address, instruction in blocks[start].instructions:
            use_defs[address] = use_def(instruction)

    live_in, live_out = _liveness(blocks, function, use_defs)
    reach_in = _reaching_definitions(blocks, function, use_defs)
    maybe_uninit, flags_set_in = _forward_passes(
        blocks, function, use_defs,
        ALL_REGISTERS if initialized_at_entry is None
        else frozenset(initialized_at_entry))

    flow = FunctionDataflow(function=function, use_defs=use_defs,
                            live_out=live_out, live_in=live_in,
                            reach_in=reach_in, maybe_uninit=maybe_uninit,
                            flags_set_in=flags_set_in)
    _collect_findings(blocks, function, flow)
    return flow


def _liveness(blocks, function, use_defs):
    """Backward may-liveness at block granularity."""
    body = set(function.blocks)
    live_in = {start: frozenset() for start in body}
    live_out = {start: frozenset() for start in body}
    changed = True
    while changed:
        changed = False
        for start in reversed(function.blocks):
            block = blocks[start]
            out = set()
            for successor in block.successors:
                if successor in body:
                    out |= live_in[successor]
            live = set(out)
            for address, _ in reversed(block.instructions):
                usedef = use_defs[address]
                if not usedef.conditional:
                    live -= usedef.defs
                live |= usedef.live_uses
            if frozenset(out) != live_out[start] or (
                    frozenset(live) != live_in[start]):
                live_out[start] = frozenset(out)
                live_in[start] = frozenset(live)
                changed = True
    return live_in, live_out


def _reaching_definitions(blocks, function, use_defs):
    """Forward may-reach of (definition address, register) pairs.

    The synthetic entry definition site is ``None``.
    """
    body = set(function.blocks)
    reach_in = {start: frozenset() for start in body}
    entry_defs = frozenset(
        (None, register) for register in sorted(ALL_REGISTERS | {FLAGS}))
    changed = True
    while changed:
        changed = False
        for start in function.blocks:
            incoming = set()
            block = blocks[start]
            predecessors = [p for p in block.predecessors if p in body]
            if start == function.entry or not predecessors:
                incoming |= entry_defs
            for predecessor in predecessors:
                incoming |= _transfer_reach(
                    blocks[predecessor], reach_in[predecessor], use_defs)
            incoming = frozenset(incoming)
            if incoming != reach_in[start]:
                reach_in[start] = incoming
                changed = True
    return reach_in


def _transfer_reach(block, reaching, use_defs):
    current = set(reaching)
    for address, _ in block.instructions:
        usedef = use_defs[address]
        for register in usedef.defs:
            if not usedef.conditional:
                current = {d for d in current if d[1] != register}
            current.add((address, register))
    return current


def _forward_passes(blocks, function, use_defs, initialized_at_entry):
    """Must-initialized registers and may-reach flag-setters, fused."""
    body = set(function.blocks)
    # maybe_uninit: registers NOT initialized on at least one path
    entry_uninit = frozenset((ALL_REGISTERS | {FLAGS})
                             - initialized_at_entry)
    maybe_uninit = {start: None for start in body}  # None = unreached
    flags_set_in = {start: False for start in body}
    maybe_uninit[function.entry] = entry_uninit
    flags_set_in[function.entry] = FLAGS not in entry_uninit
    changed = True
    while changed:
        changed = False
        for start in function.blocks:
            if maybe_uninit[start] is None:
                continue
            uninit = set(maybe_uninit[start])
            flags_set = flags_set_in[start]
            for address, _ in blocks[start].instructions:
                usedef = use_defs[address]
                if not usedef.conditional:
                    uninit -= usedef.defs
                if FLAGS in usedef.defs:
                    flags_set = True
            for successor in blocks[start].successors:
                if successor not in body:
                    continue
                merged = (frozenset(uninit)
                          if maybe_uninit[successor] is None
                          else frozenset(maybe_uninit[successor] | uninit))
                new_flags = flags_set or flags_set_in[successor]
                if merged != maybe_uninit[successor] or (
                        new_flags != flags_set_in[successor]):
                    maybe_uninit[successor] = merged
                    flags_set_in[successor] = new_flags
                    changed = True
    for start in body:
        if maybe_uninit[start] is None:
            maybe_uninit[start] = entry_uninit
    return maybe_uninit, flags_set_in


def _collect_findings(blocks, function, flow):
    """Per-instruction walks feeding the lint rules."""
    body = set(function.blocks)
    for start in function.blocks:
        block = blocks[start]
        # --- dead stores: walk backward tracking liveness exactly ------
        live = set()
        for successor in block.successors:
            if successor in body:
                live |= flow.live_in[successor]
        for address, instruction in reversed(block.instructions):
            usedef = flow.use_defs[address]
            # Only plain destination writes qualify as dead stores;
            # calls/pops define registers as a calling-convention side
            # effect, and a conditional def may keep the old value.
            if not usedef.conditional and (
                    instruction.mnemonic in WRITES_FIRST_OPERAND
                    and not usedef.observes_all):
                register = instruction.operands[0].value
                if register not in (SP, PC) and register not in live:
                    flow.dead_stores.append((address, register))
            if not usedef.conditional:
                live -= usedef.defs
            live |= usedef.live_uses

        # --- uninitialized uses / stale flags: walk forward ------------
        uninit = set(flow.maybe_uninit[start])
        flags_set = flow.flags_set_in[start]
        for address, instruction in block.instructions:
            usedef = flow.use_defs[address]
            for register in sorted(usedef.uses):
                if register in uninit and register not in (FLAGS, PC):
                    flow.uninit_uses.append((address, register))
            if usedef.conditional and not flags_set:
                flow.unset_flag_uses.append(address)
            if not usedef.conditional:
                uninit -= usedef.defs
            if FLAGS in usedef.defs:
                flags_set = True
    flow.dead_stores.sort()
    flow.uninit_uses.sort()
    flow.unset_flag_uses.sort()
