"""The error-vector kernel of the two Monte-Carlo ablations.

The interleaving and scrubbing ablations classify accumulated error
vectors in closed form (:mod:`repro.faults.classify`).  The hard
guarantees under test:

* the shared cluster draw yields well-formed clusters at any width,
* replaying the *same* sampled clusters through the real codecs —
  ``InterleavedCodec.classify_group``, and ``classify`` -> ``decode``
  -> re-``encode`` writeback per scrub — gives exactly the kernel's
  counts (trial for trial, word for word),
* over hypothesis-drawn error vectors and data words, one scrub pass
  of the kernel reproduces the real codec's class *and* the error
  vector it leaves behind.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import Protection
from repro.ecc import InterleavedCodec, ParityCodec, SecDedCodec
from repro.ecc.codec import DecodeOutcome, ErrorClass
from repro.eval.ablations import experiment_ablation_interleaving
from repro.faults import AccumulationCampaign, AccumulationResult
from repro.faults.classify import (
    CLASS_ORDER,
    classify_interleaved,
    protection_code,
)
from repro.faults.mbu import MbuDistribution, draw_clusters
from repro.faults.scrubbing import scrub_pass

MBU = MbuDistribution.for_node(40)
CODECS = {Protection.SECDED: SecDedCodec(64),
          Protection.PARITY: ParityCodec(32)}
SEVERITY = {klass: code for code, klass in enumerate(CLASS_ORDER)}


def vector(positions):
    value = 0
    for position in positions:
        value ^= 1 << position
    return value


def codec_scrub(codec, golden, stored):
    """The oracle scrub: classify, decode, write back what the decoder
    delivered (a DUE reloads the golden word).  Returns the class, the
    stored codeword after the scrub, and whether it was written."""
    outcome = codec.classify(golden, stored)
    decoded = codec.decode(stored)
    if decoded.outcome is DecodeOutcome.CORRECTED:
        return outcome, codec.encode(decoded.data), True
    if decoded.outcome is DecodeOutcome.DETECTED_UNCORRECTABLE:
        return outcome, codec.encode(golden), True
    return outcome, stored, False


# --- the shared cluster draw ------------------------------------------------

@pytest.mark.parametrize("width", [33, 72, 72 * 8])
def test_draw_clusters_well_formed(width):
    generator = np.random.Generator(np.random.PCG64(width))
    multiplicity, positions = draw_clusters(generator, 5_000, width, MBU)
    assert multiplicity.min() >= 1
    assert multiplicity.max() <= MBU.max_multiplicity
    for m, row in zip(multiplicity.tolist(), positions.tolist()):
        flips = row[:m]
        assert len(set(flips)) == m
        assert 0 <= min(flips) and max(flips) < width
        assert max(flips) - min(flips) <= m + 1  # inside the m + 2 window
        assert not any(row[m:])  # zero padding


# --- replay oracles: same clusters, real codecs -----------------------------

@pytest.mark.parametrize("ways", [1, 2, 4, 8])
def test_interleaving_replays_through_real_codecs(ways):
    trials, seed = 300, 0x1EAF
    codec = InterleavedCodec(SecDedCodec(64), ways=ways)
    generator = np.random.Generator(np.random.PCG64(seed + ways))
    multiplicity, positions = draw_clusters(
        generator, trials, codec.codeword_bits, MBU)
    kernel = classify_interleaved(multiplicity, positions, ways)
    rng = random.Random(ways)
    oracle = []
    for m, row in zip(multiplicity.tolist(), positions.tolist()):
        words = [rng.getrandbits(64) for _ in range(ways)]
        physical = codec.encode_group(words) ^ vector(row[:m])
        oracle.append(codec.classify_group(words, physical))
    assert [CLASS_ORDER[code] for code in kernel] == oracle
    # the experiment counts exactly this stream
    data = experiment_ablation_interleaving(trials=trials, seed=seed).data
    harmful = sum(o in (ErrorClass.DUE, ErrorClass.SDC) for o in oracle)
    assert data[ways]["harmful"] == harmful / trials
    assert data[ways]["sdc"] == oracle.count(ErrorClass.SDC) / trials


def replay_accumulation(campaign, words):
    """The scrubbing campaign's stream, pushed through the real codec."""
    codec = CODECS[campaign.protection]
    rng = random.Random(campaign.seed)
    golden = [rng.getrandbits(codec.data_bits) for _ in range(words)]
    stored = [codec.encode(data) for data in golden]
    worst = [ErrorClass.NONE] * words
    result = AccumulationResult(words=words, epochs=campaign.scrub_epochs)
    for word, multiplicity, positions in campaign.strikes(words):
        for index, m, row in zip(word.tolist(), multiplicity.tolist(),
                                 positions.tolist()):
            result.strikes += 1
            stored[index] ^= vector(row[:m])
        for index in range(words):
            result.scrub_reads += 1
            outcome, stored[index], written = codec_scrub(
                codec, golden[index], stored[index])
            result.scrub_writebacks += written
            worst[index] = max(worst[index], outcome, key=SEVERITY.get)
    result.none = worst.count(ErrorClass.NONE)
    result.dre = worst.count(ErrorClass.DRE)
    result.due = worst.count(ErrorClass.DUE)
    result.sdc = worst.count(ErrorClass.SDC)
    return result


@pytest.mark.parametrize("epochs", [1, 2, 4, 16, 64])
@pytest.mark.parametrize("protection", [Protection.SECDED,
                                        Protection.PARITY])
def test_scrubbing_replays_through_real_codecs(protection, epochs):
    campaign = AccumulationCampaign(
        protection=protection, strike_rate=1.5, scrub_epochs=epochs,
        seed=0x5C12B + epochs)
    kernel = campaign.run(words=300)
    assert kernel.strikes > 300
    assert kernel == replay_accumulation(campaign, 300)


# --- one scrub pass, property-tested ----------------------------------------

def error_vectors(bits):
    """Dense random vectors, and sparse ones (the strike-sized cases
    where SEC-DED corrects, miscorrects, and aliases)."""
    return st.one_of(
        st.integers(0, 2 ** bits - 1),
        st.sets(st.integers(0, bits - 1), max_size=7).map(vector))


@pytest.mark.parametrize("protection", [Protection.SECDED,
                                        Protection.PARITY])
@settings(max_examples=300, deadline=None)
@given(draw=st.data())
def test_scrub_pass_matches_real_codec(protection, draw):
    codec = CODECS[protection]
    bits = codec.codeword_bits
    golden = draw.draw(st.integers(0, 2 ** codec.data_bits - 1))
    error = draw.draw(error_vectors(bits))
    clean = codec.encode(golden)
    outcome, stored, written = codec_scrub(codec, golden, clean ^ error)

    errors = np.array([[(error >> bit) & 1 for bit in range(bits)]],
                      dtype=np.uint8)
    dirty, classes, writebacks = scrub_pass(errors,
                                            protection_code(protection))
    assert (CLASS_ORDER[classes[0]] if len(dirty)
            else ErrorClass.NONE) is outcome
    assert vector(np.flatnonzero(errors[0]).tolist()) == stored ^ clean
    assert writebacks == written
