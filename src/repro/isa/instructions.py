"""Instruction and operand data structures for the ARM-like ISA.

An :class:`Instruction` is a decoded object (mnemonic, condition, operands)
rather than a binary word: the simulator is trace-driven at the level the
paper's methodology needs (per-access addresses, sizes, and cycle costs), so
binary encodings would add nothing but bookkeeping.  Instructions still
occupy four bytes of instruction-address space each, so instruction-SPM
capacity and fetch accounting behave exactly as for fixed-width ARM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .registers import PC


class Mnemonic(enum.Enum):
    """Every operation the core can execute."""

    # data processing
    MOV = "mov"
    MVN = "mvn"
    ADD = "add"
    SUB = "sub"
    RSB = "rsb"
    MUL = "mul"
    MLA = "mla"
    SDIV = "sdiv"
    UDIV = "udiv"
    AND = "and"
    ORR = "orr"
    EOR = "eor"
    BIC = "bic"
    LSL = "lsl"
    LSR = "lsr"
    ASR = "asr"
    CMP = "cmp"
    CMN = "cmn"
    TST = "tst"
    # memory
    LDR = "ldr"
    STR = "str"
    LDRB = "ldrb"
    STRB = "strb"
    PUSH = "push"
    POP = "pop"
    # control flow
    B = "b"
    BL = "bl"
    BX = "bx"
    # misc
    NOP = "nop"
    HALT = "halt"


class Condition(enum.Enum):
    """Branch/execution conditions (a subset of ARM condition codes)."""

    AL = "al"  # always
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    MI = "mi"
    PL = "pl"
    HS = "hs"  # unsigned >=  (a.k.a. CS)
    LO = "lo"  # unsigned <   (a.k.a. CC)
    HI = "hi"  # unsigned >
    LS = "ls"  # unsigned <=


class OperandKind(enum.Enum):
    """Discriminates the payload of an :class:`Operand`."""

    REGISTER = "register"
    IMMEDIATE = "immediate"
    LABEL = "label"
    REGISTER_LIST = "register-list"


@dataclass(frozen=True)
class Operand:
    """One instruction operand.

    ``value`` is a register number, an integer immediate, a label string,
    or a tuple of register numbers, depending on ``kind``.
    """

    kind: OperandKind
    value: object

    @property
    def is_register(self):
        return self.kind is OperandKind.REGISTER

    @property
    def is_immediate(self):
        return self.kind is OperandKind.IMMEDIATE

    @property
    def is_register_list(self):
        return self.kind is OperandKind.REGISTER_LIST


def reg(number):
    """Build a register operand."""
    return Operand(OperandKind.REGISTER, number)


def imm(value):
    """Build an immediate operand."""
    return Operand(OperandKind.IMMEDIATE, int(value))


def label_ref(name):
    """Build a label-reference operand (resolved by the assembler)."""
    return Operand(OperandKind.LABEL, name)


def reg_list(numbers):
    """Build a register-list operand for PUSH/POP."""
    return Operand(OperandKind.REGISTER_LIST, tuple(numbers))


# Addressing for LDR/STR: [base, offset] where offset is a register or an
# immediate.  Modelled as a pair of operands on the instruction:
# operands = (rd, base, offset).

INSTRUCTION_BYTES = 4


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction at a fixed instruction-space address."""

    mnemonic: Mnemonic
    operands: tuple = ()
    condition: Condition = Condition.AL
    set_flags: bool = False
    source_line: int = 0
    label: str = field(default="", compare=False)
    #: the raw source text the instruction was assembled from (excluded
    #: from equality, like ``label``) — lets diagnostics quote the
    #: offending line without re-reading the source file
    source_text: str = field(default="", compare=False)

    @property
    def span(self):
        """The instruction's source span, or None when synthesized."""
        if self.source_line <= 0:
            return None
        from ..diagnostics import SourceSpan
        return SourceSpan.line(self.source_line)

    @property
    def is_branch(self):
        return self.mnemonic in (Mnemonic.B, Mnemonic.BL, Mnemonic.BX)

    @property
    def is_memory_access(self):
        return self.mnemonic in (
            Mnemonic.LDR, Mnemonic.STR, Mnemonic.LDRB, Mnemonic.STRB,
            Mnemonic.PUSH, Mnemonic.POP,
        )

    @property
    def is_store(self):
        return self.mnemonic in (Mnemonic.STR, Mnemonic.STRB, Mnemonic.PUSH)

    @property
    def is_load(self):
        return self.mnemonic in (Mnemonic.LDR, Mnemonic.LDRB, Mnemonic.POP)


# --- static shape table, used by both assembler and executor ---------------

#: mnemonic -> (min operands, max operands)
OPERAND_COUNTS = {
    Mnemonic.MOV: (2, 2),
    Mnemonic.MVN: (2, 2),
    Mnemonic.ADD: (3, 3),
    Mnemonic.SUB: (3, 3),
    Mnemonic.RSB: (3, 3),
    Mnemonic.MUL: (3, 3),
    Mnemonic.MLA: (4, 4),
    Mnemonic.SDIV: (3, 3),
    Mnemonic.UDIV: (3, 3),
    Mnemonic.AND: (3, 3),
    Mnemonic.ORR: (3, 3),
    Mnemonic.EOR: (3, 3),
    Mnemonic.BIC: (3, 3),
    Mnemonic.LSL: (3, 3),
    Mnemonic.LSR: (3, 3),
    Mnemonic.ASR: (3, 3),
    Mnemonic.CMP: (2, 2),
    Mnemonic.CMN: (2, 2),
    Mnemonic.TST: (2, 2),
    Mnemonic.LDR: (2, 3),
    Mnemonic.STR: (2, 3),
    Mnemonic.LDRB: (2, 3),
    Mnemonic.STRB: (2, 3),
    Mnemonic.PUSH: (1, 1),
    Mnemonic.POP: (1, 1),
    Mnemonic.B: (1, 1),
    Mnemonic.BL: (1, 1),
    Mnemonic.BX: (1, 1),
    Mnemonic.NOP: (0, 0),
    Mnemonic.HALT: (0, 0),
}

#: mnemonics whose first operand is written (destination register)
WRITES_FIRST_OPERAND = frozenset({
    Mnemonic.MOV, Mnemonic.MVN, Mnemonic.ADD, Mnemonic.SUB, Mnemonic.RSB,
    Mnemonic.MUL, Mnemonic.MLA, Mnemonic.SDIV, Mnemonic.UDIV,
    Mnemonic.AND, Mnemonic.ORR, Mnemonic.EOR, Mnemonic.BIC,
    Mnemonic.LSL, Mnemonic.LSR, Mnemonic.ASR,
    Mnemonic.LDR, Mnemonic.LDRB,
})

#: mnemonics that always update the condition flags
ALWAYS_SETS_FLAGS = frozenset({Mnemonic.CMP, Mnemonic.CMN, Mnemonic.TST})

#: mnemonics that always end a basic block
_BLOCK_ENDERS = frozenset({Mnemonic.B, Mnemonic.BL, Mnemonic.BX,
                           Mnemonic.HALT})


def writes_register(instruction, register):
    """True when ``register`` is the instruction's destination operand."""
    if instruction.mnemonic in WRITES_FIRST_OPERAND and instruction.operands:
        first = instruction.operands[0]
        return first.is_register and first.value == register
    return False


def ends_block(instruction):
    """True when control may leave the straight line after
    ``instruction``: B/BL/BX/HALT, or a write to PC (including
    ``pop {..., pc}``)."""
    mnemonic = instruction.mnemonic
    if mnemonic in _BLOCK_ENDERS:
        return True
    if mnemonic is Mnemonic.POP:
        return PC in instruction.operands[0].value
    return writes_register(instruction, PC)
