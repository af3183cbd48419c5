"""Orchestration: discover → index → taint → rules → baseline → report.

:class:`DevlintReport` follows the same to_text/to_json/exit_code
contract as ``LintReport`` and ``DiffSetReport``, so the CLI renders
all three through :func:`repro.diagnostics.emit_report`.  The gate is
stricter than ``repro lint``'s, though: *any* unbaselined finding —
info included — and any stale baseline entry is a violation.  New code
either complies, or its author writes down why not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ...diagnostics import (
    EXIT_VIOLATION,
    Severity,
    exit_code_for,
    format_findings_text,
    severity_counts,
)
from .baseline import Baseline
from .callgraph import PackageIndex
from .modules import discover_package
from .rules import run_rules
from .taint import TaintAnalysis

SCHEMA = 1


@dataclass
class DevlintReport:
    """Devlint results for one package tree, split against a baseline."""

    source: str  # what was analyzed, e.g. "src/repro"
    findings: list = field(default_factory=list)  # unbaselined
    baselined: list = field(default_factory=list)
    stale: list = field(default_factory=list)  # BaselineEntry objects
    modules: int = 0

    @property
    def clean(self):
        return not self.findings and not self.stale

    @property
    def exit_code(self):
        # Unbaselined findings of any severity gate; so do stale
        # suppressions — a baseline entry matching nothing excuses
        # nothing and must be deleted.
        if self.stale:
            return EXIT_VIOLATION
        return exit_code_for(self.findings, gate=Severity.INFO)

    def counts(self):
        return severity_counts(self.findings)

    def to_text(self):
        lines = [format_findings_text(self.findings,
                                      source=self.source)]
        lines.append("%d module(s) analyzed, %d finding(s) baselined"
                     % (self.modules, len(self.baselined)))
        if self.stale:
            lines.append("stale baseline entries (fixed code keeps no "
                         "suppressions — delete these):")
            for entry in self.stale:
                lines.append("  %s" % entry.describe())
        return "\n".join(lines)

    def to_json(self):
        payload = {
            "schema": SCHEMA,
            "source": self.source,
            "modules": self.modules,
            "findings": [finding.to_dict()
                         for finding in self.findings],
            "baselined": [finding.to_dict()
                          for finding in self.baselined],
            "stale_baseline": [entry.to_dict()
                               for entry in self.stale],
            "summary": self.counts(),
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def all_findings(self):
        """Baselined and not, in one deterministic list."""
        merged = list(self.findings) + list(self.baselined)
        merged.sort(key=lambda f: (
            f.source, f.span.start if f.span else 0, f.rule,
            f.message))
        return merged


def lint_modules(modules, baseline=None, source="repro"):
    """Run every ``dev.*`` rule over parsed modules."""
    index = PackageIndex(modules)
    taint = TaintAnalysis(index)
    findings = run_rules(index, taint=taint)
    if baseline is None:
        baseline = Baseline()
    else:
        # An entry for a file outside this scan is neither matched nor
        # stale; partial scans must not condemn the rest of the
        # baseline.
        scanned = {module.relpath for module in modules}
        baseline = Baseline(entries=[entry for entry in baseline.entries
                                     if entry.file in scanned])
    unbaselined, baselined, stale = baseline.apply(findings)
    return DevlintReport(source=source, findings=unbaselined,
                         baselined=baselined, stale=stale,
                         modules=len(modules))


def lint_package(root=None, package="repro", baseline=None,
                 source=None):
    """Discover and lint an installed or checked-out package tree."""
    modules = discover_package(root=root, package=package)
    return lint_modules(modules, baseline=baseline,
                        source=source or root or package)
