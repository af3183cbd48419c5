"""Temporal error accumulation and memory scrubbing.

The single-strike model (equations (1)–(7)) assumes each particle strike
is adjudicated in isolation.  Over long missions, *independent* strikes
accumulate: two single-bit upsets landing in the same SEC-DED word
between consecutive reads become an uncorrectable double error, and
three become a potential silent miscorrection.  The standard defence is
**scrubbing** — periodically reading, correcting, and writing back every
word so accumulated singles are cleaned before they pair up.

:class:`AccumulationCampaign` simulates this per-word process as one
NumPy error-vector kernel: each word carries the XOR of everything its
strikes flipped, strikes arrive as a Poisson process per word and
epoch with clusters from the same PCG64 draw the campaigns use
(:func:`~repro.faults.mbu.draw_clusters`), and each scrub epoch
classifies every vector and applies the decoder's writeback in closed
form (:mod:`repro.faults.classify`: a correction XORs in a unit
vector, a DUE reloads the word, a syndrome-0 alias persists).  The
outcome is data-independent, so no golden data is drawn; the real
codecs replay the same stream in the tests as the oracle.  The
scrubbing ablation sweeps the epoch count to show vulnerability
falling toward the single-strike floor — and the energy cost of the
scrub reads that buys it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Protection
from ..errors import FaultInjectionError
from .classify import (
    CLASS_DRE,
    CLASS_DUE,
    CLASS_NONE,
    CLASS_SDC,
    PARITY_BITS,
    SECDED_BITS,
    classify_errors,
    protection_code,
    scrub_fixes,
)
from .mbu import MbuDistribution, draw_clusters


@dataclass
class AccumulationResult:
    """Outcome of one accumulation campaign."""

    words: int = 0
    epochs: int = 0
    strikes: int = 0
    none: int = 0  # words that finished the mission clean
    dre: int = 0  # worst outcome was a corrected error
    due: int = 0
    sdc: int = 0
    scrub_reads: int = 0
    scrub_writebacks: int = 0

    @property
    def harmful_fraction(self):
        if self.words == 0:
            return 0.0
        return (self.due + self.sdc) / self.words

    @property
    def sdc_fraction(self):
        if self.words == 0:
            return 0.0
        return self.sdc / self.words


def scrub_pass(errors, code):
    """One scrub read of every word, in place.

    ``errors`` is an ``(N, bits)`` 0/1 array of accumulated error
    vectors under protection code ``code``.  Classifies each nonzero
    vector and writes back what the decoder delivered: a correction
    XORs in ``unit(syndrome)``, a DUE reloads the golden word, a
    syndrome-0 alias stays (clean words need no arithmetic).  Returns
    ``(dirty, classes, writebacks)``: the rows that held an error,
    their class codes, and how many of them were written back.
    """
    dirty = np.flatnonzero(errors.any(axis=1))
    vectors = errors[dirty]
    popcount = np.count_nonzero(vectors, axis=1)
    syndrome = np.bitwise_xor.reduce(
        vectors * np.arange(vectors.shape[1], dtype=np.int64), axis=1)
    classes = classify_errors(code, popcount, syndrome)
    fixed = scrub_fixes(code, popcount, syndrome)
    errors[dirty[fixed], syndrome[fixed]] ^= 1
    reloaded = dirty[classes == CLASS_DUE]
    errors[reloaded] = 0
    return dirty, classes, int(np.count_nonzero(fixed)) + len(reloaded)


class AccumulationCampaign:
    """Per-word multi-strike simulation with periodic scrubbing.

    ``strike_rate`` is the expected number of strikes per word over the
    whole mission; ``scrub_epochs`` divides the mission into that many
    scrub intervals (1 = no scrubbing beyond the final readout).
    """

    def __init__(self, protection=Protection.SECDED, strike_rate=0.5,
                 scrub_epochs=1, mbu=None, seed=0x5C12B):
        if strike_rate < 0:
            raise FaultInjectionError("strike_rate must be non-negative")
        if scrub_epochs < 1:
            raise FaultInjectionError("scrub_epochs must be >= 1")
        if protection is Protection.PARITY:
            self.codeword_bits = PARITY_BITS
        elif protection is Protection.SECDED:
            self.codeword_bits = SECDED_BITS
        else:
            raise FaultInjectionError(
                "accumulation campaigns need a correcting/detecting "
                "scheme, not %r" % protection)
        self.protection = protection
        self.strike_rate = strike_rate
        self.scrub_epochs = scrub_epochs
        self.mbu = mbu or MbuDistribution.for_node(40)
        self.seed = seed

    def strikes(self, words):
        """Yield each epoch's strikes over ``words`` words.

        Per epoch, in draw order: Poisson strike counts per word, then
        one cluster draw for all of the epoch's strikes.  Yields
        ``(word, multiplicity, positions)`` with one row per strike,
        ordered by word; ``positions`` is zero-padded past
        ``multiplicity``.  The stream is a pure function of the seed.
        """
        generator = np.random.Generator(np.random.PCG64(self.seed))
        per_epoch_rate = self.strike_rate / self.scrub_epochs
        every_word = np.arange(words)
        for _ in range(self.scrub_epochs):
            counts = generator.poisson(per_epoch_rate, words)
            multiplicity, positions = draw_clusters(
                generator, int(counts.sum()), self.codeword_bits,
                self.mbu)
            yield np.repeat(every_word, counts), multiplicity, positions

    def run(self, words=20_000):
        """Simulate ``words`` independent words; returns the result."""
        code = protection_code(self.protection)
        bits = self.codeword_bits
        errors = np.zeros((words, bits), dtype=np.uint8)
        worst = np.full(words, CLASS_NONE, dtype=np.uint8)
        strikes = writebacks = 0
        for word, multiplicity, positions in self.strikes(words):
            strikes += len(word)
            struck = (np.arange(positions.shape[1])
                      < multiplicity[:, np.newaxis])
            flat = (word[:, np.newaxis] * bits + positions)[struck]
            np.bitwise_xor.at(errors.reshape(-1), flat, 1)
            dirty, classes, written = scrub_pass(errors, code)
            worst[dirty] = np.maximum(worst[dirty], classes)
            writebacks += written
        tally = np.bincount(worst, minlength=4)
        return AccumulationResult(
            words=words, epochs=self.scrub_epochs, strikes=strikes,
            none=int(tally[CLASS_NONE]), dre=int(tally[CLASS_DRE]),
            due=int(tally[CLASS_DUE]), sdc=int(tally[CLASS_SDC]),
            scrub_reads=words * self.scrub_epochs,
            scrub_writebacks=writebacks)
