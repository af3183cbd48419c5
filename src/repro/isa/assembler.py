"""Two-pass assembler for the ARM-like ISA.

Dialect summary::

            .text
            .func main            ; opens a code block (profiled function)
    main:   mov   r0, #0
            ldr   r1, =array1     ; pseudo: load the address of a symbol
    loop:   ldr   r2, [r1, r0]    ; register-offset addressing
            add   r2, r2, #3
            str   r2, [r1, #4]    ; immediate-offset addressing
            cmp   r0, #100
            blt   loop
            push  {r4-r7, lr}
            pop   {r4-r7, pc}
            halt
            .endfunc

            .data
    array1: .word 1, 2, 3
    buffer: .space 256
    text1:  .asciz "hello"
            .align 4

            .bss
    scratch: .space 1024

Comments start with ``;``, ``@`` or ``//``.  Conditional suffixes (``beq``,
``movne``…) and the ``s`` flag-setting suffix (``adds``, ``subs``…) follow
ARM conventions.  ``ldr rd, =sym`` is lowered to an address-generation move
(one cycle, no memory access), mirroring how compilers for SPM-based systems
materialise block base addresses.

Every label in ``.data``/``.bss`` opens a new *data object* (the paper's
data blocks); ``.func name`` … ``.endfunc`` delimit *code blocks*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import AssemblyError, EncodingError
from .instructions import (
    ALWAYS_SETS_FLAGS,
    Condition,
    INSTRUCTION_BYTES,
    Instruction,
    Mnemonic,
    OPERAND_COUNTS,
    imm,
    reg,
    reg_list,
)
from .program import (
    CodeBlock,
    DATA_BASE,
    DataObject,
    Program,
    Section,
    TEXT_BASE,
)
from .registers import register_number

_MNEMONICS = {m.value: m for m in Mnemonic}
_CONDITIONS = {c.value: c for c in Condition if c is not Condition.AL}
# ARM aliases for the unsigned conditions
_CONDITIONS["cs"] = Condition.HS
_CONDITIONS["cc"] = Condition.LO

_FLAG_SETTING_OK = frozenset({
    Mnemonic.MOV, Mnemonic.MVN, Mnemonic.ADD, Mnemonic.SUB, Mnemonic.RSB,
    Mnemonic.MUL, Mnemonic.MLA, Mnemonic.AND, Mnemonic.ORR, Mnemonic.EOR,
    Mnemonic.BIC, Mnemonic.LSL, Mnemonic.LSR, Mnemonic.ASR,
})

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$")
_SYMBOL_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")
_SYMBOL_OFFSET_RE = re.compile(
    r"^([A-Za-z_.$][\w.$]*)\s*([+-])\s*(\d+|0[xX][0-9a-fA-F]+)$")


def _strip_comment(line):
    in_string = False
    for index, char in enumerate(line):
        if char == '"':
            in_string = not in_string
        elif not in_string:
            if char in ";@":
                return line[:index]
            if char == "/" and line[index:index + 2] == "//":
                return line[:index]
    return line


def _parse_int(text, line_no, source):
    text = text.strip()
    negative = text.startswith("-")
    if negative:
        text = text[1:].strip()
    try:
        if text.lower().startswith("0x"):
            value = int(text, 16)
        elif text.startswith("'") and text.endswith("'") and len(text) >= 3:
            body = text[1:-1]
            if body.startswith("\\"):
                escapes = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39}
                if body[1:] not in escapes:
                    raise ValueError(body)
                value = escapes[body[1:]]
            else:
                if len(body) != 1:
                    raise ValueError(body)
                value = ord(body)
        else:
            value = int(text, 10)
    except ValueError:
        raise AssemblyError("invalid integer literal %r" % text,
                            line=line_no, source_line=source,
                            rule="asm.bad-literal") from None
    return -value if negative else value


def _split_operands(text):
    """Split an operand string on top-level commas.

    Commas inside ``[...]``, ``{...}`` and string quotes do not split.
    """
    parts = []
    depth = 0
    in_string = False
    current = []
    for char in text:
        if char == '"':
            in_string = not in_string
            current.append(char)
        elif in_string:
            current.append(char)
        elif char in "[{(":
            depth += 1
            current.append(char)
        elif char in "]})":
            depth -= 1
            current.append(char)
        elif char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


@dataclass
class _PendingInstruction:
    address: int
    mnemonic: Mnemonic
    condition: Condition
    set_flags: bool
    operand_texts: list
    line_no: int
    source: str
    label: str = ""


@dataclass
class _PendingFunc:
    name: str
    start: int
    line_no: int


@dataclass
class _DataLabel:
    name: str
    offset: int  # offset within the data image


class _Assembler:
    """Internal two-pass assembler state machine."""

    def __init__(self, source, name):
        self.source = source
        self.name = name
        self.section = Section.TEXT
        self.text_cursor = TEXT_BASE
        self.pending = []  # _PendingInstruction
        self.data = bytearray()
        self.symbols = {}
        self.data_labels = []  # _DataLabel, in order
        self.code_blocks = []
        self.open_func = None
        self.entry_symbol = None
        self.pending_code_label = None

    # --- pass 1 -----------------------------------------------------------

    def run(self):
        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            self._consume_line(line, line_no, raw)
        if self.open_func is not None:
            raise AssemblyError(
                "function %r is missing .endfunc" % self.open_func.name,
                line=self.open_func.line_no, rule="asm.structure")
        return self._link()

    def _consume_line(self, line, line_no, raw):
        match = _LABEL_RE.match(line)
        if match:
            self._define_label(match.group(1), line_no, raw)
            line = match.group(2).strip()
            if not line:
                return
        if line.startswith("."):
            self._directive(line, line_no, raw)
        else:
            self._instruction_line(line, line_no, raw)

    def _define_label(self, name, line_no, raw):
        if name in self.symbols or any(
                label.name == name for label in self.data_labels):
            raise AssemblyError("duplicate label %r" % name,
                                line=line_no, source_line=raw,
                                rule="asm.duplicate-label")
        if self.section is Section.TEXT:
            self.symbols[name] = self.text_cursor
            self.pending_code_label = name
        else:
            self.data_labels.append(_DataLabel(name, len(self.data)))

    # --- directives ---------------------------------------------------------

    def _directive(self, line, line_no, raw):
        parts = line.split(None, 1)
        directive = parts[0].lower()
        argument = parts[1].strip() if len(parts) > 1 else ""
        handler = getattr(self, "_dir_" + directive[1:], None)
        if handler is None:
            raise AssemblyError("unknown directive %r" % directive,
                                line=line_no, source_line=raw,
                                rule="asm.unknown-directive")
        handler(argument, line_no, raw)

    def _dir_text(self, argument, line_no, raw):
        self.section = Section.TEXT

    def _dir_data(self, argument, line_no, raw):
        self.section = Section.DATA

    def _dir_bss(self, argument, line_no, raw):
        self.section = Section.BSS

    def _dir_global(self, argument, line_no, raw):
        if not _SYMBOL_RE.match(argument):
            raise AssemblyError(".global needs a symbol name",
                                line=line_no, source_line=raw,
                                rule="asm.structure")
        # Visibility is not modelled; .global is accepted for familiarity.

    def _dir_entry(self, argument, line_no, raw):
        if not _SYMBOL_RE.match(argument):
            raise AssemblyError(".entry needs a symbol name",
                                line=line_no, source_line=raw,
                                rule="asm.structure")
        self.entry_symbol = argument

    def _dir_func(self, argument, line_no, raw):
        if self.section is not Section.TEXT:
            raise AssemblyError(".func is only valid in .text",
                                line=line_no, source_line=raw,
                                rule="asm.structure")
        if self.open_func is not None:
            raise AssemblyError(
                "nested .func (%r is still open)" % self.open_func.name,
                line=line_no, source_line=raw,
                                rule="asm.structure")
        if not _SYMBOL_RE.match(argument):
            raise AssemblyError(".func needs a function name",
                                line=line_no, source_line=raw)
        self.open_func = _PendingFunc(argument, self.text_cursor, line_no)

    def _dir_endfunc(self, argument, line_no, raw):
        if self.open_func is None:
            raise AssemblyError(".endfunc without .func",
                                line=line_no, source_line=raw,
                                rule="asm.structure")
        func = self.open_func
        self.open_func = None
        if self.text_cursor == func.start:
            raise AssemblyError("function %r has no instructions" % func.name,
                                line=line_no, source_line=raw,
                                rule="asm.structure")
        self.code_blocks.append(
            CodeBlock(func.name, func.start, self.text_cursor))

    def _require_data_section(self, directive, line_no, raw):
        if self.section is Section.TEXT:
            raise AssemblyError("%s is only valid in .data/.bss" % directive,
                                line=line_no, source_line=raw,
                                rule="asm.structure")

    def _dir_word(self, argument, line_no, raw):
        self._require_data_section(".word", line_no, raw)
        if self.section is Section.BSS:
            raise AssemblyError(".word is not allowed in .bss",
                                line=line_no, source_line=raw,
                                rule="asm.structure")
        self._dir_align("4", line_no, raw)
        for item in _split_operands(argument):
            value = _parse_int(item, line_no, raw) & 0xFFFFFFFF
            self.data += value.to_bytes(4, "little")

    def _dir_half(self, argument, line_no, raw):
        self._require_data_section(".half", line_no, raw)
        for item in _split_operands(argument):
            value = _parse_int(item, line_no, raw) & 0xFFFF
            self.data += value.to_bytes(2, "little")

    def _dir_byte(self, argument, line_no, raw):
        self._require_data_section(".byte", line_no, raw)
        for item in _split_operands(argument):
            self.data.append(_parse_int(item, line_no, raw) & 0xFF)

    def _dir_space(self, argument, line_no, raw):
        self._require_data_section(".space", line_no, raw)
        parts = _split_operands(argument)
        size = _parse_int(parts[0], line_no, raw)
        fill = _parse_int(parts[1], line_no, raw) & 0xFF if len(parts) > 1 else 0
        if size < 0:
            raise AssemblyError(".space size must be non-negative",
                                line=line_no, source_line=raw,
                                rule="asm.structure")
        self.data += bytes([fill]) * size

    def _dir_asciz(self, argument, line_no, raw):
        self._require_data_section(".asciz", line_no, raw)
        self._append_string(argument, line_no, raw)
        self.data.append(0)

    def _dir_ascii(self, argument, line_no, raw):
        self._require_data_section(".ascii", line_no, raw)
        self._append_string(argument, line_no, raw)

    def _append_string(self, argument, line_no, raw):
        if not (argument.startswith('"') and argument.endswith('"')
                and len(argument) >= 2):
            raise AssemblyError("string directives need a quoted string",
                                line=line_no, source_line=raw,
                                rule="asm.structure")
        body = argument[1:-1]
        decoded = body.encode("ascii").decode("unicode_escape")
        self.data += decoded.encode("latin-1")

    def _dir_align(self, argument, line_no, raw):
        boundary = _parse_int(argument or "4", line_no, raw)
        if boundary <= 0 or boundary & (boundary - 1):
            raise AssemblyError(".align needs a power of two",
                                line=line_no, source_line=raw,
                                rule="asm.structure")
        if self.section is Section.TEXT:
            return  # instructions are always 4-byte aligned
        while len(self.data) % boundary:
            self.data.append(0)

    # --- instructions -------------------------------------------------------

    def _instruction_line(self, line, line_no, raw):
        if self.section is not Section.TEXT:
            raise AssemblyError("instructions are only valid in .text",
                                line=line_no, source_line=raw,
                                rule="asm.structure")
        parts = line.split(None, 1)
        token = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        mnemonic, condition, set_flags = self._decode_mnemonic(
            token, line_no, raw)
        operand_texts = _split_operands(operand_text)
        label = self.pending_code_label or ""
        self.pending_code_label = None
        self.pending.append(_PendingInstruction(
            address=self.text_cursor,
            mnemonic=mnemonic,
            condition=condition,
            set_flags=set_flags,
            operand_texts=operand_texts,
            line_no=line_no,
            source=raw,
            label=label,
        ))
        self.text_cursor += INSTRUCTION_BYTES

    def _decode_mnemonic(self, token, line_no, raw):
        candidates = sorted(_MNEMONICS, key=len, reverse=True)
        for base in candidates:
            if not token.startswith(base):
                continue
            suffix = token[len(base):]
            mnemonic = _MNEMONICS[base]
            condition = Condition.AL
            set_flags = False
            # 's' may precede the condition (UAL "addseq") or trail it
            # (pre-UAL "addeqs"); both are accepted.  No condition name
            # starts with 's', so the forms cannot collide.
            if (suffix.startswith("s") and len(suffix) == 3
                    and suffix[1:] in _CONDITIONS
                    and mnemonic in _FLAG_SETTING_OK):
                set_flags = True
                suffix = suffix[1:]
            elif suffix.endswith("s") and len(suffix) in (1, 3):
                if mnemonic in _FLAG_SETTING_OK:
                    set_flags = True
                    suffix = suffix[:-1]
            if suffix:
                if suffix not in _CONDITIONS:
                    continue
                condition = _CONDITIONS[suffix]
            if mnemonic in ALWAYS_SETS_FLAGS:
                set_flags = True
            return mnemonic, condition, set_flags
        raise AssemblyError("unknown instruction %r" % token,
                            line=line_no, source_line=raw,
                            rule="asm.unknown-instruction")

    # --- pass 2: linking ------------------------------------------------------

    def _link(self):
        symbols = dict(self.symbols)
        for label in self.data_labels:
            symbols[label.name] = DATA_BASE + label.offset

        data_objects = []
        for index, label in enumerate(self.data_labels):
            if index + 1 < len(self.data_labels):
                end = self.data_labels[index + 1].offset
            else:
                end = len(self.data)
            size = end - label.offset
            if size > 0:
                data_objects.append(
                    DataObject(label.name, DATA_BASE + label.offset, size))

        instructions = {}
        for pending in self.pending:
            instructions[pending.address] = self._encode(pending, symbols)

        entry = TEXT_BASE
        entry_name = self.entry_symbol or (
            "main" if "main" in symbols else None)
        if entry_name is not None:
            if entry_name not in symbols:
                raise AssemblyError("entry symbol %r is undefined"
                                    % entry_name,
                                    rule="asm.undefined-label")
            entry = symbols[entry_name]

        program = Program(
            instructions=instructions,
            data=self.data,
            symbols=symbols,
            code_blocks=list(self.code_blocks),
            data_objects=data_objects,
            entry=entry,
            source_name=self.name,
        )
        return program.validate()

    def _encode(self, pending, symbols):
        operands = []
        for text in pending.operand_texts:
            operands.extend(self._parse_operand(text, pending, symbols))
        minimum, maximum = OPERAND_COUNTS[pending.mnemonic]
        if not minimum <= len(operands) <= maximum:
            raise EncodingError(
                "%s expects %s operand(s), got %d"
                % (pending.mnemonic.value,
                   minimum if minimum == maximum
                   else "%d..%d" % (minimum, maximum),
                   len(operands)),
                line=pending.line_no, source_line=pending.source)
        self._check_operand_shapes(pending, operands)
        return Instruction(
            mnemonic=pending.mnemonic,
            operands=tuple(operands),
            condition=pending.condition,
            set_flags=pending.set_flags,
            source_line=pending.line_no,
            label=pending.label,
            source_text=pending.source,
        )

    def _parse_operand(self, text, pending, symbols):
        text = text.strip()
        line_no, source = pending.line_no, pending.source
        if text.startswith("#"):
            return [imm(self._resolve_value(text[1:], symbols,
                                            line_no, source))]
        if text.startswith("="):
            return [imm(self._resolve_value(text[1:], symbols,
                                            line_no, source))]
        if text.startswith("[") and text.endswith("]"):
            inner = _split_operands(text[1:-1])
            if not 1 <= len(inner) <= 2:
                raise EncodingError("bad addressing mode %r" % text,
                                    line=line_no, source_line=source)
            base = reg(register_number(inner[0]))
            if len(inner) == 1:
                return [base, imm(0)]
            offset_text = inner[1].strip()
            if offset_text.startswith("#"):
                return [base, imm(self._resolve_value(
                    offset_text[1:], symbols, line_no, source))]
            return [base, reg(register_number(offset_text))]
        if text.startswith("{") and text.endswith("}"):
            return [reg_list(self._parse_register_list(
                text[1:-1], line_no, source))]
        try:
            return [reg(register_number(text))]
        except AssemblyError:
            pass
        if pending.mnemonic.is_branch if isinstance(
                pending.mnemonic, Instruction) else pending.mnemonic in (
                Mnemonic.B, Mnemonic.BL):
            if _SYMBOL_RE.match(text):
                if text not in symbols:
                    raise EncodingError("undefined label %r" % text,
                                        line=line_no, source_line=source,
                                        rule="asm.undefined-label")
                return [imm(symbols[text])]
        if _SYMBOL_RE.match(text) or _SYMBOL_OFFSET_RE.match(text):
            return [imm(self._resolve_value(text, symbols, line_no, source))]
        raise EncodingError("cannot parse operand %r" % text,
                            line=line_no, source_line=source)

    def _resolve_value(self, text, symbols, line_no, source):
        text = text.strip()
        if _SYMBOL_RE.match(text) and not re.match(r"^-?\d", text):
            if text not in symbols:
                raise EncodingError("undefined symbol %r" % text,
                                    line=line_no, source_line=source,
                                    rule="asm.undefined-label")
            return symbols[text]
        match = _SYMBOL_OFFSET_RE.match(text)
        if match:
            name, sign, offset_text = match.groups()
            if name not in symbols:
                raise EncodingError("undefined symbol %r" % name,
                                    line=line_no, source_line=source,
                                    rule="asm.undefined-label")
            offset = _parse_int(offset_text, line_no, source)
            return symbols[name] + (offset if sign == "+" else -offset)
        return _parse_int(text, line_no, source)

    def _parse_register_list(self, body, line_no, source):
        numbers = []
        for item in _split_operands(body):
            if "-" in item:
                low_text, high_text = item.split("-", 1)
                low = register_number(low_text)
                high = register_number(high_text)
                if high < low:
                    raise EncodingError("inverted register range %r" % item,
                                        line=line_no, source_line=source)
                numbers.extend(range(low, high + 1))
            else:
                numbers.append(register_number(item))
        if not numbers:
            raise EncodingError("empty register list",
                                line=line_no, source_line=source)
        if len(set(numbers)) != len(numbers):
            raise EncodingError("duplicate register in list",
                                line=line_no, source_line=source)
        return sorted(numbers)

    def _check_operand_shapes(self, pending, operands):
        mnemonic = pending.mnemonic
        line_no, source = pending.line_no, pending.source

        def require(condition, message):
            if not condition:
                raise EncodingError(message, line=line_no, source_line=source)

        if mnemonic in (Mnemonic.PUSH, Mnemonic.POP):
            require(operands[0].is_register_list,
                    "%s needs a register list" % mnemonic.value)
        elif mnemonic in (Mnemonic.B, Mnemonic.BL):
            require(operands[0].is_immediate,
                    "%s needs a label or address" % mnemonic.value)
        elif mnemonic is Mnemonic.BX:
            require(operands[0].is_register, "bx needs a register")
        elif mnemonic in (Mnemonic.LDR, Mnemonic.STR,
                          Mnemonic.LDRB, Mnemonic.STRB):
            require(operands[0].is_register,
                    "%s needs a register destination" % mnemonic.value)
            if len(operands) == 3:
                require(operands[1].is_register,
                        "%s base must be a register" % mnemonic.value)
            else:
                # "ldr rd, =x" was lowered to an immediate operand pair
                require(len(operands) == 2 and operands[1].is_immediate,
                        "%s needs an addressing mode" % mnemonic.value)
        elif mnemonic in (Mnemonic.MUL, Mnemonic.MLA,
                          Mnemonic.SDIV, Mnemonic.UDIV):
            require(all(op.is_register for op in operands),
                    "%s operands must all be registers" % mnemonic.value)
        elif mnemonic not in (Mnemonic.NOP, Mnemonic.HALT):
            require(operands[0].is_register,
                    "%s first operand must be a register" % mnemonic.value)


def assemble(source, name="<assembly>"):
    """Assemble ``source`` text into a :class:`~repro.isa.program.Program`.

    Raises :class:`~repro.errors.AssemblyError` (with line information) on
    any syntactic or semantic problem.
    """
    return _Assembler(source, name).run()
