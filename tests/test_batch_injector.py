"""Vectorized batch injector: sampler, classifier, equivalence.

The hard guarantees under test:

* campaigns always evaluate with the batch injector, and nothing (flag,
  argument, or environment) selects another,
* the canonical sampler is deterministic and its clusters are
  well-formed (distinct positions inside the ``m + 2`` window),
* the closed-form batch classifier matches the *real* codecs
  class-by-class over hypothesis-sampled flip patterns — including the
  SEC-DED triple-miscorrection split the analytic model rounds off,
* same spec + same seed => ``batch`` reproduces ``trial``'s
  ``CampaignResult`` counts exactly, per-block breakdown included, on
  synthetic surfaces, hypothesis-fuzzed surfaces, every structure, the
  golden-corpus workloads, and the case study,
* ``CampaignResult.by_block`` serialization is byte-stable regardless
  of shard completion / merge order.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignRunner, CampaignSpec, RunDirectory
from repro.campaign.batch.engine import BatchInjector, TrialInjector
from repro.campaign.batch.equivalence import campaign_outcome
from repro.campaign.batch.sampler import ShardSampler
from repro.campaign.batch.surface import StrikeSurface
from repro.config import Protection
from repro.ecc import ParityCodec, SecDedCodec
from repro.ecc.codec import ErrorClass
from repro.errors import CampaignError
from repro.faults import CampaignResult, Target
from repro.faults.classify import (
    PROT_NONE,
    PROT_PARITY,
    PROT_SECDED,
    SECDED_MAX_POSITION,
    classify_pattern,
)
from repro.workloads import synthetic_profile

PARITY = ParityCodec(32)
SECDED = SecDedCodec(64)

DENSE_TARGETS = (
    Target("dspm-parity", Protection.PARITY, 2048, 0.5),
    Target("dspm-secded", Protection.SECDED, 2048, 0.6),
    Target("dspm-stt", Protection.IMMUNE, 4096, 0.25),
    Target("dspm-raw", Protection.NONE, 1024, 0.3),
)


def dense_spec(trials=30_000, seed=0xBEEF, shard_size=10_000):
    return CampaignSpec(targets=DENSE_TARGETS, total_spm_bytes=16384,
                        trials=trials, seed=seed, shard_size=shard_size)


@pytest.fixture(scope="module")
def sha_spec():
    profile = synthetic_profile("sha")
    return CampaignSpec.from_structure(
        profile, "ftspm", trials=12_000, seed=0xBEEF, shard_size=4_000)


# --- one production evaluator -------------------------------------------------

def test_environment_default(monkeypatch):
    """No environment variable selects the evaluator."""
    monkeypatch.setenv("REPRO_INJECTOR", "trial")
    assert isinstance(dense_spec().build_injector(0), BatchInjector)


def test_build_injector_classes():
    spec = dense_spec()
    for index in range(spec.shard_count):
        assert isinstance(spec.build_injector(index), BatchInjector)


def test_runner_rejects_unknown_injector():
    """The runner takes no evaluator choice at all."""
    with pytest.raises(TypeError):
        CampaignRunner(dense_spec(), injector="trial")


# --- the canonical sampler ---------------------------------------------------

def test_sampler_deterministic():
    spec = dense_spec()
    surface = StrikeSurface.from_spec(spec)

    def draw():
        sampler = ShardSampler(surface, spec.build_mbu(),
                               spec.shard_seed(0))
        return list(sampler.sample(5_000))

    first, second = draw(), draw()
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.target, b.target)
        assert np.array_equal(a.live, b.live)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.data, b.data)


def test_sampler_clusters_well_formed():
    spec = dense_spec()
    surface = StrikeSurface.from_spec(spec)
    sampler = ShardSampler(surface, spec.build_mbu(), 1234)
    batch = next(sampler.sample(20_000))
    mbu = spec.build_mbu()
    assert batch.multiplicity.min() >= 1
    assert batch.multiplicity.max() <= mbu.max_multiplicity
    protection = surface.protection[batch.target[batch.live]]
    widths = np.where(protection == PROT_PARITY, 33, 72)
    for row in range(batch.positions.shape[0]):
        m = int(batch.multiplicity[row])
        flips = batch.positions[row, :m]
        assert len(set(flips.tolist())) == m  # distinct positions
        assert flips.min() >= 0
        assert flips.max() < widths[row]
        # clustered: inside a window of m + 2 neighbouring bits
        assert flips.max() - flips.min() <= m + 1
        assert int(batch.syndrome[row]) == int(
            np.bitwise_xor.reduce(flips))


def test_surface_fault_free_fraction():
    surface = StrikeSurface.from_spec(dense_spec())
    # occupied live bytes: 2048*0.5 + 2048*0.6 + 1024*0.3 (immune is
    # fault-free by definition, empty space too)
    expected = 1.0 - (2048 * 0.5 + 2048 * 0.6 + 1024 * 0.3) / 16384
    assert surface.fault_free_fraction() == pytest.approx(expected)


# --- codec-equivalence property tests ---------------------------------------

def reference_outcome(codec, data, positions):
    codeword = codec.encode(data)
    for position in positions:
        codeword ^= 1 << position
    return codec.classify(data, codeword)


@st.composite
def flip_pattern(draw, codeword_bits, multiplicities):
    m = draw(st.sampled_from(multiplicities))
    window = min(codeword_bits, m + 2)
    start = draw(st.integers(0, codeword_bits - window))
    offsets = draw(st.permutations(range(window)))
    return sorted(start + offset for offset in offsets[:m])


@settings(max_examples=120, deadline=None)
@given(data=st.integers(0, 2 ** 32 - 1),
       positions=flip_pattern(33, (1, 2, 3, 4, 5, 6)))
def test_parity_classifier_matches_codec(data, positions):
    expected = reference_outcome(PARITY, data, positions)
    assert classify_pattern(PROT_PARITY, positions) is expected
    # parity's closed form: odd multiplicity detected (odd >= 3
    # included), even silent
    if len(positions) % 2:
        assert expected is ErrorClass.DUE
    else:
        assert expected is ErrorClass.SDC


@settings(max_examples=120, deadline=None)
@given(data=st.integers(0, 2 ** 64 - 1),
       positions=flip_pattern(72, (2,)))
def test_secded_double_is_due(data, positions):
    expected = reference_outcome(SECDED, data, positions)
    assert classify_pattern(PROT_SECDED, positions) is expected
    syndrome = positions[0] ^ positions[1]
    assert expected is (ErrorClass.SDC if syndrome == 0
                        else ErrorClass.DUE)


@settings(max_examples=200, deadline=None)
@given(data=st.integers(0, 2 ** 64 - 1),
       positions=flip_pattern(72, (3,)))
def test_secded_triple_miscorrection_split(data, positions):
    """Triple upsets: silent miscorrection unless the syndrome lands
    outside the valid position space — the real-codec deviation the
    analytic model rounds off."""
    expected = reference_outcome(SECDED, data, positions)
    assert classify_pattern(PROT_SECDED, positions) is expected
    syndrome = positions[0] ^ positions[1] ^ positions[2]
    assert expected is (ErrorClass.DUE
                        if syndrome > SECDED_MAX_POSITION
                        else ErrorClass.SDC)


@settings(max_examples=200, deadline=None)
@given(data=st.integers(0, 2 ** 64 - 1),
       positions=flip_pattern(72, (1, 2, 3, 4, 5, 6)))
def test_secded_classifier_matches_codec(data, positions):
    assert classify_pattern(PROT_SECDED, positions) is \
        reference_outcome(SECDED, data, positions)


def test_unprotected_is_always_sdc():
    assert classify_pattern(PROT_NONE, [5]) is ErrorClass.SDC
    assert classify_pattern(PROT_NONE, [1, 2, 3, 4]) is ErrorClass.SDC


# --- same-seed trial == batch exactly ----------------------------------------

def test_batch_equals_trial_dense_surface():
    spec = dense_spec()
    for index in range(spec.shard_count):
        trial = TrialInjector(spec, index).run()
        batch = BatchInjector(spec, index).run()
        assert trial.to_dict() == batch.to_dict()


def test_batch_equals_trial_on_structure_surfaces(sha_spec):
    assert campaign_outcome(sha_spec, TrialInjector).to_dict() == \
        campaign_outcome(sha_spec, BatchInjector).to_dict()


@pytest.mark.parametrize("structure", ["ftspm", "baseline-sram"])
def test_batch_equals_trial_across_structures(structure):
    profile = synthetic_profile("jpeg")
    spec = CampaignSpec.from_structure(
        profile, structure, trials=8_000, seed=0xA5A5, shard_size=4_000)
    assert campaign_outcome(spec, TrialInjector).to_dict() == \
        campaign_outcome(spec, BatchInjector).to_dict()


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       sizes=st.lists(st.integers(64, 2048), min_size=1, max_size=5),
       protections=st.lists(
           st.sampled_from(list(Protection)), min_size=5, max_size=5),
       fractions=st.lists(
           st.floats(0.0, 1.0, allow_nan=False), min_size=5, max_size=5),
       slack=st.integers(0, 4096))
def test_batch_equals_trial_fuzzed_surfaces(seed, sizes, protections,
                                            fractions, slack):
    targets = tuple(
        Target("block-%d" % i, protections[i], size, fractions[i])
        for i, size in enumerate(sizes))
    total = sum(sizes) + slack
    spec = CampaignSpec(targets=targets, total_spm_bytes=total,
                        trials=4_000, seed=seed, shard_size=4_000)
    trial = TrialInjector(spec, 0).run()
    batch = BatchInjector(spec, 0).run()
    assert trial.to_dict() == batch.to_dict()


def test_runner_injector_equivalence_and_summary(sha_spec):
    summary = CampaignRunner(sha_spec, jobs=1).run()
    assert summary.complete
    assert summary.result.to_dict() == \
        campaign_outcome(sha_spec, TrialInjector).to_dict()


def test_case_study_equivalence():
    from repro.campaign.batch.equivalence import (
        compare_injectors,
        golden_campaign_spec,
    )

    report = compare_injectors(golden_campaign_spec("case"))
    assert report.matches, report.explain()


def test_golden_campaign_corpus():
    from repro.campaign.batch.equivalence import check_campaign_golden

    problems = check_campaign_golden("tests/golden")
    assert problems == {}, "\n".join(
        "%s: %s" % item for item in sorted(problems.items()))


# --- by_block determinism (satellite) ---------------------------------------

def test_by_block_merge_order_invariant_and_sorted(sha_spec):
    shards = [BatchInjector(sha_spec, index).run()
              for index in range(sha_spec.shard_count)]
    forward = sum(shards, CampaignResult())
    backward = sum(reversed(shards), CampaignResult())
    assert json.dumps(forward.to_dict()) == json.dumps(backward.to_dict())
    blocks = list(forward.to_dict()["by_block"])
    assert blocks == sorted(blocks)


def test_by_block_serialization_sorted_roundtrip():
    result = CampaignResult(trials=2, sdc=2)
    result.by_block["zeta"] = {klass: 0 for klass in ErrorClass}
    result.by_block["zeta"][ErrorClass.SDC] = 1
    result.by_block["alpha"] = {klass: 0 for klass in ErrorClass}
    result.by_block["alpha"][ErrorClass.SDC] = 1
    payload = result.to_dict()
    assert list(payload["by_block"]) == ["alpha", "zeta"]
    restored = CampaignResult.from_dict(payload)
    assert list(restored.by_block) == ["alpha", "zeta"]
    assert restored.by_block["zeta"][ErrorClass.SDC] == 1


# --- checkpoints across disciplines ------------------------------------------

def test_checkpoint_rejects_foreign_sampling_discipline(tmp_path):
    spec = dense_spec()
    run_dir = RunDirectory(str(tmp_path / "run"))
    run_dir.prepare(spec)
    manifest = run_dir.load_manifest()
    manifest["sampling"] = "legacy-random-v0"
    with open(run_dir.manifest_path, "w") as handle:
        json.dump(manifest, handle)
    with pytest.raises(CampaignError):
        run_dir.prepare(spec, resume=True)


# --- CLI ---------------------------------------------------------------------

def run_cli(capsys, *argv):
    from repro.cli import main

    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_campaign_dry_run(capsys):
    code, out, _ = run_cli(
        capsys, "campaign", "sha", "--trials", "10000",
        "--shard-size", "3000", "--dry-run")
    assert code == 0
    assert "campaign plan" in out
    assert "4 shard(s)" in out
    assert "injector:" not in out and "engine:" not in out
    assert "fault-free" in out
    assert "0x" in out  # seeds are printed
    assert "Wilson" not in out  # nothing executed


def test_cli_campaign_rejects_unknown_injector(capsys):
    """No subcommand takes an evaluator or engine choice any more."""
    from repro.cli import build_parser

    for argv in (["campaign", "sha", "--injector", "batch"],
                 ["report", "--engine", "fast"],
                 ["run", "kernel:crc32", "--engine", "reference"],
                 ["diff", "--workload", "case", "--a-engine", "fast"]):
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(argv)
        assert caught.value.code == 2  # argparse usage error
        assert "unrecognized arguments" in capsys.readouterr().err
