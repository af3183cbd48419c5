"""Differential machinery locking the two injectors together.

Mirrors :mod:`repro.sim.diffcheck`: the batch evaluator is only allowed
to exist because this module can prove, campaign by campaign, that it
changes nothing.  :func:`campaign_digest` reduces a
:class:`~repro.faults.CampaignResult` to a stable hash over every count
and every per-block breakdown; :func:`compare_injectors` runs the same
spec under both evaluators and diffs the digests; and the **golden
campaign corpus** (``tests/golden/campaigns.json``) commits the counts
of every bundled kernel plus the case study on the FTSPM structure, so
a drift in either evaluator — or in the shared sampler both consume —
fails a test naming the exact field that moved.

Campaigns always run the batch evaluator; the per-trial
:class:`~repro.campaign.batch.engine.TrialInjector` runs only here
(for ``repro golden``) and in the tests and benchmarks that hold the
two evaluators against each other.
"""

from __future__ import annotations

import hashlib
import json
import os

from ...errors import CampaignError
from ...faults.injector import CampaignResult
from ...sim.diffcheck import (DiffReport, GOLDEN_CASE_ARRAY_WORDS,
                              GOLDEN_CASE_OUTER_ITERATIONS,
                              GOLDEN_STRUCTURE, golden_names)
from ..spec import CampaignSpec
from .engine import BatchInjector, TrialInjector

#: bump when the campaign digest layout or sampling discipline changes
CAMPAIGN_GOLDEN_SCHEMA = 1

CAMPAIGN_GOLDEN_FILENAME = "campaigns.json"

#: budget of one corpus entry — small enough to run on every test
#: invocation, large enough that every outcome class is populated
GOLDEN_TRIALS = 6_000
GOLDEN_SHARD_SIZE = 2_000
GOLDEN_SEED = 0xF7F7

#: the evaluators the corpus pins (both must reproduce the same counts)
GOLDEN_INJECTORS = (TrialInjector, BatchInjector)


def campaign_digest(result):
    """Stable SHA-256 over a result's complete observable outcome."""
    canonical = json.dumps(result.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def campaign_outcome(spec, injector):
    """Run every shard of ``spec`` serially through the evaluator class
    ``injector``; returns the merged result."""
    total = CampaignResult()
    for index in range(spec.shard_count):
        total = total.merge(injector(spec, index).run())
    return total


def compare_injectors(spec):
    """Run both evaluators over one spec and diff the result dicts."""
    trial = campaign_outcome(spec, TrialInjector)
    batch = campaign_outcome(spec, BatchInjector)
    return DiffReport(trial.to_dict(), batch.to_dict(),
                      labels=("trial", "batch"))


# --- golden campaign corpus --------------------------------------------------

def golden_campaign_names():
    """Corpus coverage: every sim golden workload plus the case study."""
    return golden_names()


def _golden_profile(name):
    """The measured profile of one corpus workload (shared context)."""
    from ...pipeline import get_context

    context = get_context()
    if name == "case":
        _, profile = context.case_study(GOLDEN_CASE_ARRAY_WORDS,
                                        GOLDEN_CASE_OUTER_ITERATIONS)
        return profile
    if name.startswith("kernel:"):
        build = context.kernel_build(name.split(":", 1)[1])
        return context.profile_of(build.program)
    raise CampaignError("unknown golden campaign workload %r" % name)


def golden_campaign_spec(name):
    """The canonical small campaign of one corpus entry."""
    return CampaignSpec.from_structure(
        _golden_profile(name), GOLDEN_STRUCTURE, trials=GOLDEN_TRIALS,
        seed=GOLDEN_SEED, shard_size=GOLDEN_SHARD_SIZE)


def golden_campaign_entry(name):
    """Current counts + digest for one corpus entry (trial evaluator)."""
    spec = golden_campaign_spec(name)
    result = campaign_outcome(spec, TrialInjector)
    return {
        "workload": name,
        "structure": GOLDEN_STRUCTURE,
        "digest": campaign_digest(result),
        "result": result.to_dict(),
    }


def golden_campaign_path(directory):
    return os.path.join(directory, CAMPAIGN_GOLDEN_FILENAME)


def write_campaign_golden(directory, names=None):
    """Refresh the corpus file; returns its path."""
    os.makedirs(directory, exist_ok=True)
    entries = {}
    for name in names or golden_campaign_names():
        entries[name] = golden_campaign_entry(name)
    payload = {
        "schema": CAMPAIGN_GOLDEN_SCHEMA,
        "structure": GOLDEN_STRUCTURE,
        "trials": GOLDEN_TRIALS,
        "seed": GOLDEN_SEED,
        "shard_size": GOLDEN_SHARD_SIZE,
        "entries": entries,
    }
    path = golden_campaign_path(directory)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def check_campaign_golden(directory, names=None):
    """Compare both evaluators against the committed corpus.

    Returns ``{"name/injector": problem}`` — empty means every injector
    reproduces every committed count exactly.  A missing or
    schema-mismatched corpus is reported as its own problem so the test
    failure says exactly what to regenerate (``repro golden --update``).
    """
    path = golden_campaign_path(directory)
    if not os.path.exists(path):
        return {"corpus": "missing golden campaign file %s "
                          "(run: repro golden --update)" % path}
    with open(path) as handle:
        committed = json.load(handle)
    if committed.get("schema") != CAMPAIGN_GOLDEN_SCHEMA:
        return {"corpus": "golden campaign schema %r != %r; regenerate "
                          "with repro golden --update"
                          % (committed.get("schema"),
                             CAMPAIGN_GOLDEN_SCHEMA)}
    problems = {}
    for name in names or golden_campaign_names():
        entry = committed.get("entries", {}).get(name)
        if entry is None:
            problems[name] = ("no committed entry; regenerate with "
                              "repro golden --update")
            continue
        spec = golden_campaign_spec(name)
        for injector in GOLDEN_INJECTORS:
            result = campaign_outcome(spec, injector)
            if campaign_digest(result) != entry["digest"]:
                report = DiffReport(entry["result"], result.to_dict(),
                                    labels=("committed", injector.name))
                problems["%s/%s" % (name, injector.name)] = (
                    report.explain())
    return problems
