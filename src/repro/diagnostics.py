"""Structured diagnostics shared by the assembler and the static analyzer.

A :class:`Finding` is one machine-readable diagnostic: a stable rule id
(``asm.duplicate-label``, ``lint.dead-store``, ...), a severity, a
human message, and a source span.  The assembler converts its
exceptions into findings (so ``repro lint`` reports syntax errors in
the same shape as semantic ones) and :mod:`repro.analysis.lint` emits
them natively.  Both the text and JSON renderings live here so every
producer formats identically — the JSON form is what CI gates on.

This module sits below :mod:`repro.errors` in the import graph on
purpose: exceptions carry findings, never the other way around.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass


#: the one exit-code contract every report-producing CLI obeys
#: (``repro lint``, ``repro diff``, ``repro devlint``):
#: 0 = clean, 1 = findings/violations, 2 = the producer itself failed.
EXIT_CLEAN = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


class Severity(enum.Enum):
    """How bad a finding is.  ``ERROR`` findings gate CI."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self):
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class SourceSpan:
    """An inclusive 1-based line range in the assembly source."""

    start: int
    end: int

    @classmethod
    def line(cls, line_no):
        """A single-line span (the common case)."""
        return cls(line_no, line_no)

    def union(self, other):
        if other is None:
            return self
        return SourceSpan(min(self.start, other.start),
                          max(self.end, other.end))

    def __str__(self):
        if self.start == self.end:
            return str(self.start)
        return "%d-%d" % (self.start, self.end)


@dataclass(frozen=True)
class Finding:
    """One structured diagnostic."""

    rule: str
    severity: Severity
    message: str
    span: SourceSpan = None
    source: str = ""  # program / file the finding is about
    snippet: str = ""  # offending source text, when known
    block: str = ""  # enclosing code block (function), when known

    def to_dict(self):
        payload = {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "line": self.span.start if self.span else None,
            "end_line": self.span.end if self.span else None,
        }
        if self.source:
            payload["source"] = self.source
        if self.snippet:
            payload["snippet"] = self.snippet
        if self.block:
            payload["block"] = self.block
        return payload

    def format(self):
        """One text line: ``source:span: severity [rule] message``."""
        location = self.source or "<program>"
        if self.span is not None:
            location = "%s:%s" % (location, self.span)
        text = "%s: %s [%s] %s" % (
            location, self.severity.value, self.rule, self.message)
        if self.snippet:
            text += "\n    %s" % self.snippet.strip()
        return text


def worst_severity(findings):
    """The highest severity present, or None for an empty list."""
    worst = None
    for finding in findings:
        if worst is None or finding.severity.rank > worst.rank:
            worst = finding.severity
    return worst


def exit_code_for(findings, gate=Severity.ERROR):
    """Exit code for a findings list under one gate severity.

    ``repro lint`` gates on errors (warnings inform, they do not
    fail); ``repro devlint`` passes ``gate=Severity.INFO`` because an
    unbaselined finding of *any* severity is a new violation.
    """
    worst = worst_severity(findings)
    if worst is not None and worst.rank >= gate.rank:
        return EXIT_VIOLATION
    return EXIT_CLEAN


def severity_counts(findings):
    counts = {severity.value: 0 for severity in Severity}
    for finding in findings:
        counts[finding.severity.value] += 1
    return counts


def format_findings_text(findings, source=""):
    """The human rendering: one block per finding plus a summary line."""
    lines = [finding.format() for finding in findings]
    counts = severity_counts(findings)
    summary = "%d error(s), %d warning(s), %d info" % (
        counts["error"], counts["warning"], counts["info"])
    if not findings:
        label = source or "program"
        lines.append("%s: clean (no findings)" % label)
    lines.append(summary)
    return "\n".join(lines)


def format_findings_json(findings, source=""):
    """The CI rendering: deterministic, machine-parseable JSON."""
    payload = {
        "schema": 1,
        "source": source,
        "findings": [finding.to_dict() for finding in findings],
        "summary": severity_counts(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def emit_report(report, fmt="text", out=None, stream=None,
                error_stream=None):
    """Render a report object and return its exit code.

    The one renderer behind ``repro lint``, ``repro diff``, and
    ``repro devlint``.  ``report`` is anything with ``to_text()``,
    ``to_json()``, and an ``exit_code`` attribute or property:

    * the chosen format prints to ``stream`` (stdout by default);
    * ``out``, when given, always receives the JSON rendering — CI
      archives machine-readable reports regardless of what a human
      watched scroll by — and the "wrote" notice goes to stderr when
      the main stream is JSON so it never corrupts piped output.
    """
    import sys

    stream = stream if stream is not None else sys.stdout
    error_stream = (error_stream if error_stream is not None
                    else sys.stderr)
    rendered = report.to_json() if fmt == "json" else report.to_text()
    print(rendered, file=stream)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print("wrote %s" % out,
              file=error_stream if fmt == "json" else stream)
    exit_code = report.exit_code
    return exit_code() if callable(exit_code) else exit_code
