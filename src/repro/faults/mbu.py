"""Multiple-bit-upset statistics for particle strikes.

The paper cites Dixit & Wood (IRPS'11): at the 40 nm node, a particle
strike flips one bit with probability 62%, two bits 25%, three bits 6%,
and more than three 7%.  Strikes are spatially clustered — the flipped
bits of a multi-bit upset land in neighbouring cells — which is exactly
why word-interleaved ECC struggles; we model the cluster as a contiguous
window around a random start bit.

:func:`draw_clusters` is the one cluster draw: the campaign shards and
both Monte-Carlo ablations sample their strikes through it.
"""

from __future__ import annotations

import numpy as np

from ..errors import FaultInjectionError
from ..tech.params import node_params

#: continuation probability of the geometric ">3" multiplicity tail
_TAIL_CONTINUE = 0.4


class MbuDistribution:
    """Multiplicity distribution of bit flips per particle strike."""

    def __init__(self, probabilities, max_multiplicity=6):
        if len(probabilities) != 4:
            raise FaultInjectionError(
                "need 4 probabilities: P(1), P(2), P(3), P(>3)")
        total = sum(probabilities)
        if abs(total - 1.0) > 1e-9:
            raise FaultInjectionError(
                "multiplicity probabilities must sum to 1 (got %g)" % total)
        if any(p < 0 for p in probabilities):
            raise FaultInjectionError("probabilities must be non-negative")
        self.p1, self.p2, self.p3, self.p_more = probabilities
        self.max_multiplicity = max_multiplicity

    @classmethod
    def for_node(cls, node_nm=40):
        """The distribution the paper uses for its node (40 nm default)."""
        return cls(node_params(node_nm).mbu_distribution)

    # --- aggregate probabilities used by the AVF equations ------------------

    def p_exactly(self, bits):
        if bits == 1:
            return self.p1
        if bits == 2:
            return self.p2
        if bits == 3:
            return self.p3
        raise FaultInjectionError(
            "only multiplicities 1..3 have exact probabilities")

    def p_at_least(self, bits):
        """P(multiplicity >= bits) for the thresholds in eqs. (4)-(7)."""
        if bits <= 1:
            return 1.0
        if bits == 2:
            return self.p2 + self.p3 + self.p_more
        if bits == 3:
            return self.p3 + self.p_more
        if bits == 4:
            return self.p_more
        raise FaultInjectionError("threshold must be 1..4")


def draw_clusters(generator, count, codeword_bits, mbu):
    """Draw ``count`` clustered strikes from a NumPy ``generator``.

    Multiplicity ``m`` follows ``mbu``: P(1), P(2), P(3) exactly, and
    the ``>3`` bucket extends geometrically up to
    ``mbu.max_multiplicity``.  The ``m`` flips land in a contiguous
    window of ``min(cw, m + 2)`` bits at a uniform start, positions
    chosen without replacement.  ``codeword_bits`` is a scalar or a
    per-strike array.  Draw order is fixed, because it is part of every
    stream's identity: multiplicity, geometric tail, window start,
    positions.

    Returns ``(multiplicity, positions)``: int64 arrays of shape
    ``(count,)`` and ``(count, max(4, mbu.max_multiplicity))``, the
    positions zero-padded past each strike's multiplicity.
    """
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
    offsets = _select_offsets(count, window, pos_draws)
    # Shift offsets to absolute bit positions, then zero the padding
    # columns so an XOR reduction sees only real flips.
    struck = np.arange(max_m) < m_eff[:, np.newaxis]
    return m_eff, (offsets + start[:, np.newaxis]) * struck


def _select_offsets(count, window, pos_draws):
    """Distinct offsets inside each strike's window, one per column.

    Vectorized Fisher-Yates selection: maintain a per-strike pool of
    window offsets; each step picks index ``floor(u * remaining)`` and
    backfills it with the pool's last live element — the same
    selection ``random.sample`` performs, run as one whole-array step
    per column.  Columns past a strike's multiplicity are padding.
    """
    max_m = pos_draws.shape[1]
    max_window = int(window.max(initial=1))
    # The narrowest dtype that holds an offset (uint8 for any real MBU
    # model) keeps the per-chunk working set, and the page faults of
    # allocating it afresh each chunk, small.
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
