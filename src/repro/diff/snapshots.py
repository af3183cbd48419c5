"""The golden mapping-snapshot corpus and fresh snapshot computation.

Lives beside the sim-digest corpus (:mod:`repro.sim.diffcheck`) and the
campaign corpus (:mod:`repro.campaign.batch.equivalence`): one committed
JSON snapshot per (workload, profile flavor) under
``tests/golden/mappings/`` covering every golden workload — the seven
bundled kernels plus the Section IV case study — under both the
measured (``dynamic``) and analyzer (``static``) profile flavors, on
the FTSPM structure.  ``repro diff --against tests/golden/mappings``
recomputes every mapping at HEAD and structurally diffs it against the
corpus; ``repro golden --update`` refreshes the corpus (guarded
against dirty ``src/repro/`` trees so a regression cannot be silently
re-baselined).
"""

from __future__ import annotations

import json
import os

from ..errors import ReproError
from ..sim.diffcheck import (
    GOLDEN_CASE_ARRAY_WORDS,
    GOLDEN_CASE_OUTER_ITERATIONS,
    GOLDEN_STRUCTURE,
    golden_names,
)
from .differ import DiffThresholds, DiffSetReport, diff_snapshots
from .model import MappingSnapshot, build_snapshot

#: subdirectory of the golden corpus holding mapping snapshots
MAPPING_GOLDEN_DIRNAME = "mappings"

#: the profile flavors the corpus pins for every golden workload
GOLDEN_FLAVORS = ("dynamic", "static")


def mapping_golden_dir(golden_dir):
    """``tests/golden`` -> ``tests/golden/mappings``."""
    return os.path.join(golden_dir, MAPPING_GOLDEN_DIRNAME)


def snapshot_names(names=None, flavors=None):
    """Corpus coverage: ``(workload, flavor)`` pairs, corpus order."""
    return [(name, flavor)
            for name in (names or golden_names())
            for flavor in (flavors or GOLDEN_FLAVORS)]


def snapshot_filename(workload, flavor):
    return "%s.%s.json" % (workload.replace(":", "-"), flavor)


def snapshot_path(directory, workload, flavor):
    return os.path.join(directory, snapshot_filename(workload, flavor))


# --- computing / persisting snapshots ---------------------------------------

def compute_snapshot(workload, flavor="dynamic",
                     structure=GOLDEN_STRUCTURE, context=None):
    """Freshly evaluate one (workload, flavor) pair into a snapshot.

    With ``context=None`` the process-wide pipeline context is used, so
    profiles and evaluations are computed once per process.
    """
    from ..pipeline import get_context

    if context is None:
        context = get_context()
    program, profile = context.resolve_workload(
        workload, array_words=GOLDEN_CASE_ARRAY_WORDS,
        outer_iterations=GOLDEN_CASE_OUTER_ITERATIONS,
        profile_flavor=flavor)
    if program is None and flavor == "static":
        raise ReproError(
            "workload %r has no program; static snapshots need one"
            % workload)
    snapshot = build_snapshot(profile, context.evaluation(profile, structure))
    snapshot.workload = workload  # CLI spec, not profile.source_name
    return snapshot


def load_snapshot(path):
    """Read one committed snapshot; raises :class:`ReproError` with the
    regenerate hint when the file is absent or stale-schema'd."""
    if not os.path.exists(path):
        raise ReproError("missing mapping snapshot %s (run: repro "
                         "golden --update)" % path)
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as error:
            raise ReproError("unreadable mapping snapshot %s: %s"
                             % (path, error)) from None
    return MappingSnapshot.from_dict(payload)


def write_snapshot(path, snapshot):
    with open(path, "w") as handle:
        json.dump(snapshot.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_mapping_golden(directory, names=None):
    """Refresh the corpus in ``directory``; returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for workload, flavor in snapshot_names(names):
        snapshot = compute_snapshot(workload, flavor)
        written.append(write_snapshot(
            snapshot_path(directory, workload, flavor), snapshot))
    return written


def check_mapping_golden(directory, names=None, flavors=None,
                         thresholds=None, context=None):
    """Diff freshly computed mappings against the corpus in
    ``directory`` (``tests/golden/mappings`` in the committed tree).

    Returns a :class:`DiffSetReport` whose exit code is the CI gate:
    0 when every mapping reproduces the committed snapshot within
    thresholds, 1 on violations, 2 when corpus entries are missing or
    unreadable.
    """
    report = DiffSetReport(thresholds=thresholds or DiffThresholds())
    for workload, flavor in snapshot_names(names, flavors):
        key = "%s/%s" % (workload, flavor)
        path = snapshot_path(directory, workload, flavor)
        try:
            committed = load_snapshot(path)
            current = compute_snapshot(workload, flavor, context=context)
        except ReproError as error:
            report.add_problem(key, str(error))
            continue
        report.add(key, diff_snapshots(committed, current,
                                       a_label="committed",
                                       b_label="current", key=key))
    return report
