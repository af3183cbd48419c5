"""Error accumulation and scrubbing campaigns."""

import pytest

from repro.config import Protection
from repro.faults import AccumulationCampaign
from repro.errors import FaultInjectionError


def run(protection=Protection.SECDED, rate=1.0, epochs=1, words=1500,
        seed=7):
    campaign = AccumulationCampaign(
        protection=protection, strike_rate=rate, scrub_epochs=epochs,
        seed=seed)
    return campaign.run(words=words)


def test_zero_strike_rate_is_harmless():
    result = run(rate=0.0, words=500)
    assert result.strikes == 0
    assert result.harmful_fraction == 0.0
    assert result.none == 500


def test_strike_counts_scale_with_rate():
    low = run(rate=0.2, words=2000, seed=11)
    high = run(rate=2.0, words=2000, seed=11)
    assert high.strikes > 5 * low.strikes
    # Poisson mean ~= rate * words
    assert high.strikes == pytest.approx(2.0 * 2000, rel=0.1)


def test_scrubbing_reduces_secded_harm():
    unscrubbed = run(rate=1.5, epochs=1, words=3000, seed=3)
    scrubbed = run(rate=1.5, epochs=16, words=3000, seed=3)
    assert scrubbed.harmful_fraction < unscrubbed.harmful_fraction
    assert scrubbed.sdc_fraction < unscrubbed.sdc_fraction


def test_scrubbing_cannot_help_parity():
    """Parity detects but cannot correct: the first strike on a word is
    already harmful, however often you scrub."""
    unscrubbed = run(Protection.PARITY, rate=1.0, epochs=1, words=3000,
                     seed=5)
    scrubbed = run(Protection.PARITY, rate=1.0, epochs=16, words=3000,
                   seed=5)
    assert scrubbed.harmful_fraction == pytest.approx(
        unscrubbed.harmful_fraction, abs=0.03)


def test_scrub_reads_counted():
    result = run(epochs=4, words=100)
    assert result.scrub_reads == 400


def test_outcome_counts_partition_words():
    result = run(rate=1.0, words=1000)
    assert (result.none + result.dre + result.due + result.sdc
            == result.words)


def test_campaign_deterministic():
    first = run(seed=42)
    second = run(seed=42)
    assert first.sdc == second.sdc
    assert first.strikes == second.strikes


def test_invalid_parameters_rejected():
    with pytest.raises(FaultInjectionError):
        AccumulationCampaign(strike_rate=-1)
    with pytest.raises(FaultInjectionError):
        AccumulationCampaign(scrub_epochs=0)
    with pytest.raises(FaultInjectionError):
        AccumulationCampaign(protection=Protection.IMMUNE)


def test_single_strike_limit_matches_injector_model():
    """At a low strike rate with one epoch, the harmful fraction over
    struck words approaches the single-strike constant (0.38)."""
    result = run(rate=0.05, epochs=1, words=20_000, seed=9)
    # with rate 0.05 nearly every affected word took exactly one strike,
    # so DRE/DUE/SDC shares should match equations (5) and (7)
    harmful_over_struck = (result.due + result.sdc) / max(
        1, result.dre + result.due + result.sdc)
    assert harmful_over_struck == pytest.approx(0.38, abs=0.05)
