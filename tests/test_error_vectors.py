"""The error-vector kernel of the two Monte-Carlo ablations.

The interleaving and scrubbing ablations classify accumulated error
vectors in closed form (:mod:`repro.faults.classify`).  The hard
guarantees under test:

* the shared cluster draw yields well-formed clusters at any width,
  and the very strikes of the whole-array draw kept below as its
  oracle, consuming the same stream,
* the one-pass classifier gives the class of the mask-scatter
  classifier kept below as its oracle, for every protection code,
  popcount 0..8 and syndrome 0..127,
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
    CLASS_DRE,
    CLASS_DUE,
    CLASS_NONE,
    CLASS_ORDER,
    CLASS_SDC,
    PARITY_BITS,
    PROT_NONE,
    PROT_PARITY,
    PROT_SECDED,
    SECDED_BITS,
    SECDED_MAX_POSITION,
    classify_errors,
    classify_interleaved,
    protection_code,
)
from repro.faults.mbu import _TAIL_CONTINUE, MbuDistribution, draw_clusters
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


def reference_draw_clusters(generator, count, codeword_bits, mbu):
    """The whole-array cluster draw ``draw_clusters`` replaced, kept as
    its oracle: every strike runs every Fisher-Yates step over a 2-D
    pool."""
    tail_length = max(0, mbu.max_multiplicity - 4)
    max_m = max(4, mbu.max_multiplicity)
    mult_draws = generator.random(count)
    if tail_length:
        tail_draws = generator.random((count, tail_length))
    start_draws = generator.random(count)
    pos_draws = generator.random((count, max_m))

    # Multiplicity: threshold the primary draw into 1/2/3/4-or-more,
    # then extend the ">3" bucket by the number of consecutive
    # geometric-tail successes (cumprod stops at the first failure).
    multiplicity = (1
                    + (mult_draws >= mbu.p1).astype(np.int64)
                    + (mult_draws >= mbu.p1 + mbu.p2)
                    + (mult_draws >= mbu.p1 + mbu.p2 + mbu.p3))
    if tail_length:
        extensions = np.cumprod(
            tail_draws < _TAIL_CONTINUE, axis=1).sum(axis=1)
        multiplicity = np.where(multiplicity == 4,
                                4 + extensions, multiplicity)

    m_eff = np.minimum(multiplicity, codeword_bits)
    window = np.minimum(codeword_bits, m_eff + 2)
    start = (start_draws * (codeword_bits - window + 1)).astype(np.int64)
    offsets = reference_select_offsets(count, window, pos_draws)
    # Shift offsets to absolute bit positions, then zero the padding
    # columns so an XOR reduction sees only real flips.
    struck = np.arange(max_m) < m_eff[:, np.newaxis]
    return m_eff, (offsets + start[:, np.newaxis]) * struck


def reference_select_offsets(count, window, pos_draws):
    """Distinct offsets inside each strike's window, one per column.

    Vectorized Fisher-Yates selection: maintain a per-strike pool of
    window offsets; each step picks index ``floor(u * remaining)`` and
    backfills it with the pool's last live element — the same
    selection ``random.sample`` performs, run as one whole-array step
    per column.  Columns past a strike's multiplicity are padding.
    """
    max_m = pos_draws.shape[1]
    max_window = int(window.max(initial=1))
    dtype = np.min_scalar_type(max_window)
    pool = np.broadcast_to(
        np.arange(max_window, dtype=dtype), (count, max_window)).copy()
    offsets = np.zeros((count, max_m), dtype=dtype)
    rows = np.arange(count)
    for step in range(max_m):
        remaining = window - step
        # Finished rows (m_eff <= step) still need in-range indices;
        # their picks are masked out of the result afterwards.
        safe_remaining = np.clip(remaining, 1, None)
        pick = np.minimum(
            (pos_draws[:, step] * safe_remaining).astype(np.int64),
            safe_remaining - 1)
        offsets[:, step] = pool[rows, pick]
        last = np.clip(remaining - 1, 0, None)
        pool[rows, pick] = pool[rows, last]
    return offsets


def codeword_widths(count):
    """One width for every strike, or per-strike widths mixing parity
    and SEC-DED codewords, as a campaign chunk over both region kinds
    has."""
    mixed = st.tuples(st.integers(0, 2 ** 32 - 1), st.floats(0, 1)).map(
        lambda args: np.where(
            np.random.default_rng(args[0]).random(count) < args[1],
            PARITY_BITS, SECDED_BITS))
    return st.one_of(st.sampled_from([33, 72, 144, 288, 576]), mixed)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       count=st.one_of(st.sampled_from([0, 1, 65_536]),
                       st.integers(2, 300)),
       max_multiplicity=st.integers(4, 10),
       draw=st.data())
def test_draw_clusters_matches_reference(seed, count, max_multiplicity,
                                         draw):
    """Strike for strike, the multi-flip-only draw is the whole-array
    one, and it consumes the same stream."""
    widths = draw.draw(codeword_widths(count))
    mbu = MbuDistribution((MBU.p1, MBU.p2, MBU.p3, MBU.p_more),
                          max_multiplicity)
    ours = np.random.Generator(np.random.PCG64(seed))
    theirs = np.random.Generator(np.random.PCG64(seed))
    multiplicity, positions = draw_clusters(ours, count, widths, mbu)
    expected = reference_draw_clusters(theirs, count, widths, mbu)
    for got, want in zip((multiplicity, positions), expected):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert ours.random() == theirs.random()


def reference_classify_errors(protection, popcount, syndrome):
    """The mask-scatter classifier ``classify_errors`` replaced, kept as
    its oracle: SDC by default, each codec rule scattered over it in
    turn."""
    protection, popcount, syndrome = np.broadcast_arrays(
        protection, popcount, syndrome)

    odd = (popcount & 1).astype(bool)
    # Unprotected data defaults to SDC; codec rules overwrite.
    classes = np.full(popcount.shape, CLASS_SDC, dtype=np.uint8)

    parity = protection == PROT_PARITY
    classes[parity & odd] = CLASS_DUE

    secded = protection == PROT_SECDED
    classes[secded & (popcount == 1)] = CLASS_DRE
    odd_multi = secded & odd & (popcount > 1)
    classes[odd_multi] = np.where(
        syndrome[odd_multi] > SECDED_MAX_POSITION, CLASS_DUE, CLASS_SDC)
    even = secded & ~odd
    classes[even] = np.where(
        syndrome[even] == 0, CLASS_SDC, CLASS_DUE)
    classes[popcount == 0] = CLASS_NONE

    unknown = ~parity & ~secded & (protection != PROT_NONE)
    if np.any(unknown):
        raise ValueError(
            "cannot classify protection codes %r"
            % np.unique(protection[unknown]).tolist())
    return classes


def test_classify_errors_matches_reference_exhaustively():
    """Every protection code x popcount 0..8 x syndrome 0..127, with
    per-vector codes and with one code broadcast over all vectors."""
    codes, popcount, syndrome = (
        grid.ravel() for grid in np.meshgrid(
            np.array([PROT_NONE, PROT_PARITY, PROT_SECDED], dtype=np.uint8),
            np.arange(9, dtype=np.int64), np.arange(128, dtype=np.int64),
            indexing="ij"))
    got = classify_errors(codes, popcount, syndrome)
    assert got.dtype == np.uint8 and got.shape == codes.shape
    assert np.array_equal(
        got, reference_classify_errors(codes, popcount, syndrome))
    for code in (PROT_NONE, PROT_PARITY, PROT_SECDED):
        got = classify_errors(code, popcount, syndrome)
        assert got.dtype == np.uint8
        assert np.array_equal(
            got, reference_classify_errors(code, popcount, syndrome))


@pytest.mark.parametrize("protection", [
    3, np.array([PROT_SECDED, 3, PROT_NONE, 7, 3], dtype=np.uint8)])
def test_classify_errors_rejects_unknown_codes_like_reference(protection):
    popcount = np.array([1, 2, 3, 0, 5], dtype=np.int64)
    syndrome = np.array([4, 9, 80, 0, 7], dtype=np.int64)
    with pytest.raises(ValueError) as expected:
        reference_classify_errors(protection, popcount, syndrome)
    with pytest.raises(ValueError, match=r"^cannot classify protection "
                       r"codes \[") as got:
        classify_errors(protection, popcount, syndrome)
    assert str(got.value) == str(expected.value)


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
