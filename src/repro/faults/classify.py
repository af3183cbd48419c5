"""Closed-form vectorized codec outcomes for accumulated error vectors.

The per-trial oracles encode a random golden word, apply the flips,
decode with the real codec, and compare.  For the linear codecs in
:mod:`repro.ecc` that whole round trip is data-independent: the
outcome is a pure function of the *error vector* ``e`` (the XOR of the
stored codeword with the golden one) — its popcount ``w`` and its
syndrome ``s`` (the XOR of the indices of its set bits, with the
overall-parity bit at index 0 contributing nothing).  One strike's
error vector is its flip pattern, so ``w`` is the strike's
multiplicity; several strikes landing in one word between reads XOR
into one vector.  Derivation:

* ``w == 0``: the word is intact -> NONE, whatever the codec.
* **Parity** (``ParityCodec(32)``, 33-bit codeword): the decoder only
  checks overall parity.  Odd ``w`` flips parity -> detected (DUE);
  even ``w >= 2`` preserves it -> silent corruption (SDC; only one of
  the 33 bits is not data, so an even vector always touches data).
* **SEC-DED** (``SecDedCodec(64)``, 72-bit codeword; bit 0 is the
  overall parity bit, bits 1..71 are Hamming positions): the decoder
  sees overall parity ``w mod 2`` and Hamming syndrome ``s``.

  - ``w == 1``: single error, corrected -> DRE.
  - odd ``w >= 3``: parity says "single error"; the decoder corrects
    position ``s``.  If ``s`` names a real position (``s <= 71``,
    including ``s == 0`` = "flip the parity bit") the miscorrection is
    silent -> SDC; an out-of-range ``s`` is impossible to correct ->
    detected, DUE.
  - even ``w >= 2``: parity is clean; a nonzero syndrome means "double
    error detected" -> DUE; ``s == 0`` is an undetectable codeword
    alias -> SDC.

  The SDC cases always touch data: a nonzero set of check positions
  (powers of two) never XORs to syndrome 0.

* **Unprotected**: any nonzero vector on live data is silent
  corruption -> SDC.

**Scrub writeback.**  A scrub reads each word, decodes it, and writes
back what the decoder delivered; the error vector then moves as
follows (:func:`scrub_fixes` and :func:`classify_errors` give the
masks):

* SEC-DED, odd ``w`` with ``s <= 71``: the decoder flips bit ``s`` and
  the re-encoded word equals the corrected one (it has syndrome 0 and
  even parity, so it is a codeword).  The vector becomes
  ``e ^ unit(s)``: zero after a true single-bit fix, a persistent
  data error after a miscorrection.
* Every DUE (parity odd ``w``; SEC-DED odd ``w`` with ``s > 71``, or
  even ``w`` with ``s != 0``): the word is reloaded from its golden
  backing copy, so the vector resets to 0.
* An even-popcount alias with syndrome 0 (SDC) decodes as clean: no
  writeback, the vector persists.

Every rule is cross-checked against the real codecs: class by class
by the hypothesis property tests in ``tests/test_batch_injector.py``
and ``tests/test_error_vectors.py``, which also replay whole ablation
streams through ``classify`` -> ``decode`` -> re-``encode`` — that is
what licenses the campaigns and the ablations to skip the
encode/decode loop.
"""

from __future__ import annotations

import numpy as np

from ..config import Protection
from ..ecc.codec import ErrorClass

#: protection codes used by the vectorized arrays (uint8)
PROT_NONE = 0
PROT_PARITY = 1
PROT_SECDED = 2
PROT_IMMUNE = 3

_PROTECTION_CODES = {
    Protection.NONE: PROT_NONE,
    Protection.PARITY: PROT_PARITY,
    Protection.SECDED: PROT_SECDED,
    Protection.IMMUNE: PROT_IMMUNE,
}

#: codeword widths of the two codecs
PARITY_BITS = 33  # ParityCodec(32).codeword_bits
SECDED_BITS = 72  # SecDedCodec(64).codeword_bits

#: class codes used by the vectorized arrays; order matters — it is
#: severity order (worst of several reads = ``max``), and campaign
#: results are aggregated with ``bincount(target * 4 + class)``
CLASS_NONE = 0
CLASS_DRE = 1
CLASS_DUE = 2
CLASS_SDC = 3

#: array class code -> ErrorClass, in code order
CLASS_ORDER = (ErrorClass.NONE, ErrorClass.DRE, ErrorClass.DUE,
               ErrorClass.SDC)

#: highest bit index the SEC-DED decoder can "correct" (syndromes above
#: this are detected as uncorrectable)
SECDED_MAX_POSITION = SECDED_BITS - 1  # 71

#: the class codes as uint8 scalars, so selections keep the uint8 dtype
_DRE, _DUE, _SDC = (np.uint8(code) for code in (CLASS_DRE, CLASS_DUE,
                                                 CLASS_SDC))


def protection_code(protection):
    """The uint8 array code of a :class:`~repro.config.Protection`."""
    return _PROTECTION_CODES[protection]


def classify_errors(protection, popcount, syndrome):
    """Classify error vectors; returns uint8 class codes.

    ``protection`` holds protection codes (``PROT_NONE`` /
    ``PROT_PARITY`` / ``PROT_SECDED``) and broadcasts against the
    per-vector ``popcount`` and ``syndrome`` arrays.  Data words are
    not needed: see the module docstring for why the outcome is
    data-independent.  Each vector takes its class in one pass of
    nested selections over the module docstring's rules (protection
    code, odd popcount, a single flip, an out-of-range or zero
    syndrome); a zero popcount is then NONE whatever the code.  Any
    other protection code raises ``ValueError`` before classifying.
    """
    protection, popcount, syndrome = np.broadcast_arrays(
        protection, popcount, syndrome)
    unknown = ((protection != PROT_NONE) & (protection != PROT_PARITY)
               & (protection != PROT_SECDED))
    if np.any(unknown):
        raise ValueError(
            "cannot classify protection codes %r"
            % np.unique(protection[unknown]).tolist())

    odd = (popcount & 1).astype(bool)
    classes = np.where(
        protection == PROT_SECDED,
        np.where(odd,
                 np.where(popcount == 1, _DRE,
                          np.where(syndrome > SECDED_MAX_POSITION,
                                   _DUE, _SDC)),
                 np.where(syndrome == 0, _SDC, _DUE)),
        # parity detects an odd vector; unprotected data is silent
        np.where(odd & (protection == PROT_PARITY), _DUE, _SDC))
    classes[popcount == 0] = CLASS_NONE
    return classes


def scrub_fixes(protection, popcount, syndrome):
    """Mask of vectors the SEC-DED decoder "corrects" by flipping bit
    ``syndrome``: odd popcount with an in-range syndrome.  A scrub
    writes the flip back (see the module docstring)."""
    return ((np.asarray(protection) == PROT_SECDED)
            & (np.asarray(popcount) & 1).astype(bool)
            & (np.asarray(syndrome) <= SECDED_MAX_POSITION))


def classify_interleaved(multiplicity, positions, ways):
    """Worst class over the ``ways`` SEC-DED codewords of a physically
    bit-interleaved row, one clustered strike per row.

    ``multiplicity`` and the zero-padded ``positions`` come from
    :func:`~repro.faults.mbu.draw_clusters` over a ``72 * ways``-bit
    row.  Physical bit ``p`` is logical bit ``p // ways`` of codeword
    ``p % ways`` (the layout of :class:`~repro.ecc.InterleavedCodec`),
    so each codeword's error vector is the strike's flips in its way.
    """
    struck = np.arange(positions.shape[1]) < multiplicity[:, np.newaxis]
    way = positions % ways
    logical = positions // ways
    worst = np.zeros(len(multiplicity), dtype=np.uint8)
    for index in range(ways):
        flips = struck & (way == index)
        classes = classify_errors(
            PROT_SECDED, np.count_nonzero(flips, axis=1),
            np.bitwise_xor.reduce(logical * flips, axis=1))
        np.maximum(worst, classes, out=worst)
    return worst


def classify_pattern(protection_code_value, bit_positions):
    """Scalar convenience: classify one flip pattern, returns ErrorClass.

    Used by the property tests to pit the closed-form rules against the
    real codecs one pattern at a time.
    """
    positions = list(bit_positions)
    syndrome = 0
    for position in positions:
        syndrome ^= position
    codes = classify_errors(
        np.array([protection_code_value], dtype=np.uint8),
        np.array([len(positions)], dtype=np.int64),
        np.array([syndrome], dtype=np.int64))
    return CLASS_ORDER[int(codes[0])]
