"""``repro lint`` — static diagnostics over assembly sources and programs.

Rules fall in three buckets:

* **assembler rules** (``asm.*``) — syntax/structure problems the
  assembler itself reports; :func:`lint_source` converts them into the
  same structured findings as everything else;
* **error rules** (``lint.*``, severity *error*) — constructs that are
  guaranteed or overwhelmingly likely to fault or hang at runtime
  (stores into the instruction region, misaligned word accesses,
  addressing modes the CPU rejects, loops with no way out);
* **warning/info rules** — likely-bug patterns that still execute
  (dead stores, unreachable code, conditional branches with no flag
  setter in sight, data objects nothing references).

CI gates on errors: every bundled kernel, example, and the case study
must lint clean at error severity (see ``tests/test_lint.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..diagnostics import (
    Finding,
    Severity,
    format_findings_json,
    format_findings_text,
    severity_counts,
    worst_severity,
)
from ..errors import AssemblyError
from ..isa.instructions import Mnemonic
from .loops import loop_exit_edges, loop_has_dynamic_exit
from .staticprofile import ProgramAnalysis

#: rule id -> (severity, one-line description); the public catalog
LINT_RULES = {
    "lint.missing-addressing-mode": (
        Severity.ERROR,
        "str/strb/ldrb without an addressing mode faults at runtime"),
    "lint.store-to-text": (
        Severity.ERROR,
        "store into the instruction region (self-modifying or bad address)"),
    "lint.out-of-region": (
        Severity.ERROR,
        "access to an address outside text, data, and stack"),
    "lint.misaligned-access": (
        Severity.ERROR,
        "word access to an address that is not 4-byte aligned"),
    "lint.no-flag-setter": (
        Severity.ERROR,
        "conditional instruction no flag-setting instruction can reach"),
    "lint.infinite-loop": (
        Severity.ERROR,
        "loop with no exit edge and no halt/return in its body"),
    "lint.fallthrough-off-end": (
        Severity.ERROR,
        "control flow can run past the end of the text image"),
    "lint.bad-call-target": (
        Severity.ERROR,
        "bl target is not an instruction address"),
    "lint.unreachable-code": (
        Severity.WARNING,
        "instructions no flow function can reach"),
    "lint.dead-store": (
        Severity.WARNING,
        "register written but never read before the next write"),
    "lint.uninitialized-register": (
        Severity.WARNING,
        "register read before any definition on some path from entry"),
    "lint.unused-data": (
        Severity.INFO,
        "data object no instruction references"),
}


@dataclass
class LintReport:
    """Structured lint results for one program or source file."""

    source: str
    findings: list = field(default_factory=list)
    #: set when the input failed to assemble (no program to analyze)
    assembly_failed: bool = False

    @property
    def errors(self):
        return [finding for finding in self.findings
                if finding.severity is Severity.ERROR]

    @property
    def warnings(self):
        return [finding for finding in self.findings
                if finding.severity is Severity.WARNING]

    @property
    def has_errors(self):
        return bool(self.errors)

    @property
    def exit_code(self):
        """0 clean, 1 any error-severity finding (warnings pass)."""
        from ..diagnostics import exit_code_for
        return exit_code_for(self.findings)

    def worst(self):
        return worst_severity(self.findings)

    def counts(self):
        return severity_counts(self.findings)

    def to_text(self):
        return format_findings_text(self.findings, source=self.source)

    def to_json(self):
        return format_findings_json(self.findings, source=self.source)


def lint_source(text, name="<source>"):
    """Assemble ``text`` and lint the result.

    Assembly errors become findings instead of exceptions, so callers
    (the CLI, CI) handle broken and suspicious sources uniformly.
    """
    from ..isa.assembler import assemble
    try:
        program = assemble(text, name=name)
    except AssemblyError as error:
        report = LintReport(source=name, assembly_failed=True)
        report.findings.append(error.to_finding(source=name))
        return report
    return lint_program(program, source=name)


def lint_program(program, source=None):
    """Run every lint rule over an assembled program."""
    linter = _Linter(program, ProgramAnalysis(program),
                     source or program.source_name or "<program>")
    return linter.run()


class _Linter:
    def __init__(self, program, analysis, source):
        self.program = program
        self.analysis = analysis
        self.source = source
        self.report = LintReport(source=source)
        self._seen = set()

    # --- plumbing ---------------------------------------------------------

    def _emit(self, rule, message, address=None, instruction=None,
              span=None, snippet=""):
        severity = LINT_RULES[rule][0]
        block = ""
        if address is not None:
            code_block = self.program.code_block_at(address)
            if code_block is not None:
                block = code_block.name
        if instruction is not None:
            if span is None:
                span = instruction.span
            if not snippet:
                snippet = instruction.source_text.strip()
        key = (rule, address, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.report.findings.append(Finding(
            rule=rule, severity=severity, message=message, span=span,
            source=self.source, snippet=snippet, block=block))

    def run(self):
        self._check_addressing_modes()
        self._check_memory_targets()
        self._check_call_targets()
        self._check_control_flow()
        self._check_dataflow()
        self._check_unreachable()
        self._check_unused_data()
        self.report.findings.sort(
            key=lambda f: (f.span.start if f.span else 0,
                           -f.severity.rank, f.rule, f.message))
        return self.report

    # --- instruction-shape rules ------------------------------------------

    def _check_addressing_modes(self):
        for address, instruction in self.program.iter_instructions():
            if instruction.mnemonic in (Mnemonic.STR, Mnemonic.STRB,
                                        Mnemonic.LDRB):
                if len(instruction.operands) == 2:
                    self._emit(
                        "lint.missing-addressing-mode",
                        "%s needs '[base]' or '[base, #offset]'; this "
                        "form raises an illegal-instruction fault"
                        % instruction.mnemonic.value,
                        address=address, instruction=instruction)

    # --- provable memory-target rules -------------------------------------

    def _check_memory_targets(self):
        program = self.program
        stack_low = program.stack_top - program.stack_size
        constprop = self.analysis.constprop
        cfg = self.analysis.cfg
        for entry, function in cfg.functions.items():
            for start in function.blocks:
                for address, instruction in cfg.blocks[start].instructions:
                    if instruction.mnemonic not in (
                            Mnemonic.LDR, Mnemonic.LDRB,
                            Mnemonic.STR, Mnemonic.STRB):
                        continue
                    if len(instruction.operands) != 3:
                        continue
                    constant, _ = constprop.address_regions(
                        function, start, address, instruction)
                    if constant is None:
                        continue
                    self._check_constant_target(address, instruction,
                                                constant, stack_low)

    def _check_constant_target(self, address, instruction, target,
                               stack_low):
        program = self.program
        word = instruction.mnemonic in (Mnemonic.LDR, Mnemonic.STR)
        in_text = program.text_base <= target < program.text_end
        in_data = program.data_base <= target < program.data_end
        in_stack = stack_low <= target < program.stack_top
        if instruction.is_store and in_text:
            self._emit(
                "lint.store-to-text",
                "store to 0x%05x inside the instruction region" % target,
                address=address, instruction=instruction)
        elif not (in_text or in_data or in_stack):
            self._emit(
                "lint.out-of-region",
                "access to unmapped address 0x%05x" % target,
                address=address, instruction=instruction)
        if word and target % 4:
            self._emit(
                "lint.misaligned-access",
                "word access to unaligned address 0x%05x" % target,
                address=address, instruction=instruction)

    # --- control-flow rules ------------------------------------------------

    def _check_call_targets(self):
        cfg = self.analysis.cfg
        for block_start, target in cfg.call_sites:
            block = cfg.blocks[block_start]
            if target is None or (
                    self.program.instruction_at(target) is None):
                self._emit(
                    "lint.bad-call-target",
                    "bl to 0x%05x, which holds no instruction"
                    % (target if target is not None else 0),
                    address=block.terminator_address,
                    instruction=block.terminator)

    def _check_control_flow(self):
        cfg = self.analysis.cfg
        reported_falloff = set()
        for entry, function in cfg.functions.items():
            for loop in function.loops:
                if loop_exit_edges(cfg, loop):
                    continue
                if loop_has_dynamic_exit(cfg, loop):
                    continue
                header = cfg.blocks[loop.header]
                self._emit(
                    "lint.infinite-loop",
                    "loop at 0x%05x has no exit edge and never "
                    "halts or returns" % loop.header,
                    address=loop.header,
                    instruction=header.instructions[0][1])
            for start in function.blocks:
                block = cfg.blocks[start]
                if block.falls_off_end and start not in reported_falloff:
                    reported_falloff.add(start)
                    self._emit(
                        "lint.fallthrough-off-end",
                        "control continues past 0x%05x, beyond the "
                        "last instruction" % block.terminator_address,
                        address=block.terminator_address,
                        instruction=block.terminator)

    # --- dataflow rules ----------------------------------------------------

    def _check_dataflow(self):
        from ..isa.registers import LR, PC, SP, register_name
        from .dataflow import analyze_function
        cfg = self.analysis.cfg
        for entry, function in cfg.functions.items():
            initialized = {SP, LR, PC} if entry == cfg.entry else None
            flow = analyze_function(cfg, function,
                                    initialized_at_entry=initialized)
            for address in flow.unset_flag_uses:
                instruction = self.program.instruction_at(address)
                self._emit(
                    "lint.no-flag-setter",
                    "conditional '%s' but no cmp/cmn/tst/S-suffixed "
                    "instruction can reach it"
                    % instruction.mnemonic.value,
                    address=address, instruction=instruction)
            for address, register in flow.dead_stores:
                instruction = self.program.instruction_at(address)
                self._emit(
                    "lint.dead-store",
                    "%s is written but never read before being "
                    "overwritten or dropped" % register_name(register),
                    address=address, instruction=instruction)
            if entry != cfg.entry:
                continue  # callee "uninitialized" reads are caller state
            for address, register in flow.uninit_uses:
                instruction = self.program.instruction_at(address)
                self._emit(
                    "lint.uninitialized-register",
                    "%s may be read before it is written"
                    % register_name(register),
                    address=address, instruction=instruction)

    # --- coverage rules ----------------------------------------------------

    def _check_unreachable(self):
        covered = self.analysis.cfg.reachable_addresses()
        addresses = sorted(self.program.instructions)
        run = []
        for address in addresses:
            if address in covered:
                self._flush_unreachable(run)
                run = []
            else:
                run.append(address)
        self._flush_unreachable(run)

    def _flush_unreachable(self, run):
        if not run:
            return
        first = self.program.instructions[run[0]]
        last = self.program.instructions[run[-1]]
        span = first.span
        if span is not None and last.span is not None:
            span = span.union(last.span)
        words = len(run)
        self._emit(
            "lint.unreachable-code",
            "%d instruction%s at 0x%05x cannot be reached"
            % (words, "" if words == 1 else "s", run[0]),
            address=run[0], span=span,
            snippet=first.source_text.strip())

    def _check_unused_data(self):
        referenced = set()
        for _, instruction in self.program.iter_instructions():
            for operand in instruction.operands:
                if operand.is_immediate and isinstance(operand.value, int):
                    referenced.add(operand.value)
        for obj in self.program.data_objects:
            if any(obj.start <= value < obj.start + obj.size
                   for value in referenced):
                continue
            self._emit(
                "lint.unused-data",
                "data object %r (%d bytes at 0x%05x) is never "
                "referenced by an instruction"
                % (obj.name, obj.size, obj.start))
