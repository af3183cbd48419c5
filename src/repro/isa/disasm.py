"""Disassembler: render decoded instructions back to assembly text.

Used by the CLI's trace dumps and by tests that round-trip the assembler.
"""

from __future__ import annotations

from .instructions import Condition, Mnemonic, OperandKind
from .registers import register_name

_MEMORY_FORMS = (Mnemonic.LDR, Mnemonic.STR, Mnemonic.LDRB, Mnemonic.STRB)


def _format_operand(operand):
    if operand.kind is OperandKind.REGISTER:
        return register_name(operand.value)
    if operand.kind is OperandKind.IMMEDIATE:
        value = operand.value
        if abs(value) >= 4096:
            return "#0x%x" % value if value >= 0 else "#-0x%x" % -value
        return "#%d" % value
    if operand.kind is OperandKind.LABEL:
        return str(operand.value)
    if operand.kind is OperandKind.REGISTER_LIST:
        return "{%s}" % ", ".join(register_name(n) for n in operand.value)
    raise ValueError("unknown operand kind %r" % operand.kind)


def disassemble(instruction, symbols_by_address=None):
    """Render one :class:`Instruction` as a line of assembly.

    ``symbols_by_address`` optionally maps addresses back to label names so
    branch targets print symbolically.
    """
    mnemonic = instruction.mnemonic.value
    if instruction.set_flags and instruction.mnemonic not in (
            Mnemonic.CMP, Mnemonic.CMN, Mnemonic.TST):
        mnemonic += "s"
    if instruction.condition is not Condition.AL:
        mnemonic += instruction.condition.value

    operands = list(instruction.operands)
    if (instruction.mnemonic in _MEMORY_FORMS and len(operands) == 3):
        base = _format_operand(operands[1])
        offset = operands[2]
        if offset.kind is OperandKind.IMMEDIATE and offset.value == 0:
            address_text = "[%s]" % base
        else:
            address_text = "[%s, %s]" % (base, _format_operand(offset))
        return "%s %s, %s" % (
            mnemonic, _format_operand(operands[0]), address_text)

    if (instruction.mnemonic in (Mnemonic.B, Mnemonic.BL)
            and operands and operands[0].kind is OperandKind.IMMEDIATE):
        target = operands[0].value
        if symbols_by_address and target in symbols_by_address:
            return "%s %s" % (mnemonic, symbols_by_address[target])
        return "%s 0x%08x" % (mnemonic, target)

    if not operands:
        return mnemonic
    return "%s %s" % (
        mnemonic, ", ".join(_format_operand(op) for op in operands))


def disassemble_program(program):
    """Yield ``(address, text)`` pairs for every instruction in a program."""
    symbols_by_address = {
        address: name for name, address in program.symbols.items()}
    for address, instruction in program.iter_instructions():
        yield address, disassemble(instruction, symbols_by_address)
