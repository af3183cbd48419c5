"""Golden-trace corpus: the committed digests are load-bearing.

``tests/golden/`` pins a full machine digest (state, counters, access
statistics, energy ledgers, memory image hash) for every bundled kernel
and the case study, each placed on the FTSPM structure.  Any semantic
change to the simulator — intended or not — shows up here as a
field-level diff before it can silently shift the paper's numbers.

After an *intended* semantics change, regenerate with::

    repro golden --update

and commit the rewritten JSON together with the change that explains it.
"""

import os

import pytest

from repro.sim.diffcheck import check_golden, golden_filename, golden_names

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def test_corpus_is_complete():
    from repro.campaign.batch.equivalence import CAMPAIGN_GOLDEN_FILENAME

    expected = {golden_filename(name) for name in golden_names()}
    # the campaign-equivalence corpus shares the directory
    expected.add(CAMPAIGN_GOLDEN_FILENAME)
    present = {entry for entry in os.listdir(GOLDEN_DIR)
               if entry.endswith(".json")}
    assert present == expected


def test_write_then_check_round_trips(tmp_path):
    """A freshly written corpus entry verifies clean, and any digest
    drift is reported as a field-level problem for that workload."""
    import json

    from repro.sim.diffcheck import write_golden

    write_golden(tmp_path, names=["kernel:bitcount"])
    assert check_golden(tmp_path, names=["kernel:bitcount"]) == {}

    path = tmp_path / golden_filename("kernel:bitcount")
    entry = json.loads(path.read_text())
    entry["digest"]["cycles"] += 1
    path.write_text(json.dumps(entry))
    problems = check_golden(tmp_path, names=["kernel:bitcount"])
    assert "kernel:bitcount" in problems
    assert "cycles" in problems["kernel:bitcount"]


def test_missing_entry_is_reported(tmp_path):
    problems = check_golden(tmp_path, names=["case"])
    assert "case" in problems


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_digests_match_committed_corpus(engine):
    problems = check_golden(GOLDEN_DIR, engine=engine)
    assert not problems, (
        "golden digests changed (engine=%s):\n%s\n\n"
        "If the semantic change is intended, regenerate the corpus with "
        "`repro golden --update` and commit the result."
        % (engine,
           "\n".join("%s: %s" % item for item in sorted(problems.items()))))


def test_cli_golden_checks_the_fast_engine(monkeypatch, capsys):
    """``repro golden`` checks the corpus under the engine production
    runs, not only the reference oracle: a planted one-cycle-per-block
    drift in the fast engine's batched mode fails the command."""
    from repro.cli import main
    from repro.pipeline import EvaluationContext, using_context
    from repro.sim.fastpath import FastEngine

    argv = ["golden", "kernel:bitcount", "--dir", GOLDEN_DIR]
    with using_context(EvaluationContext()):
        assert main(argv) == 0
    assert "golden corpus OK" in capsys.readouterr().out

    batched = FastEngine._run_batched

    def one_cycle_late(self, block):
        batched(self, block)
        self.stats.cycles += 1

    monkeypatch.setattr(FastEngine, "_run_batched", one_cycle_late)
    with using_context(EvaluationContext()):
        assert main(argv) == 1
    out = capsys.readouterr().out
    assert "kernel:bitcount/fast: digests diverge" in out
    assert "kernel:bitcount/reference" not in out


def test_cli_golden_checks_the_column_profile(monkeypatch, capsys):
    """``repro golden`` holds every golden workload's column profile
    against the live Profiler oracle: a planted one-cycle-per-block
    drift in the engine's recording loop fails the command as a
    profile mismatch."""
    from repro.cli import main
    from repro.pipeline import EvaluationContext, using_context
    from repro.sim.diffcheck import check_golden_profiles
    from repro.sim.fastpath import FastEngine

    assert check_golden_profiles(names=["kernel:bitcount"]) == {}

    recorded = FastEngine._run_recorded

    def one_cycle_late(self, block, recorder):
        recorded(self, block, recorder)
        self.stats.cycles += 1

    monkeypatch.setattr(FastEngine, "_run_recorded", one_cycle_late)
    with using_context(EvaluationContext()):
        assert main(["golden", "kernel:bitcount", "--dir", GOLDEN_DIR]) == 1
    assert ("profile:kernel:bitcount: digests diverge"
            in capsys.readouterr().out)
