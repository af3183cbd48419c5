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
        if max_multiplicity < 4:
            # the ">3" bucket always flips at least 4 bits
            raise FaultInjectionError(
                "max_multiplicity must be at least 4 (got %r)"
                % (max_multiplicity,))
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
    positions.  Every strike draws the whole tail and all
    ``max_multiplicity`` position draws, used or not, so the chunk
    layout does not depend on what was drawn.

    The positions are a Fisher-Yates selection over each strike's
    window: step ``k`` picks index ``floor(u_k * (window - k))`` of a
    pool of the window's offsets and backfills it with the pool's last
    live element, the selection ``random.sample`` performs.  At step 0
    the pool is still the identity, so the first offset is the pick
    itself and a single-flip strike (62% at 40 nm) needs no pool.
    Only the multi-flip strikes run the later steps, over one flat pool
    of their windows.

    Returns ``(multiplicity, positions)``: int64 arrays of shape
    ``(count,)`` and ``(count, mbu.max_multiplicity)``, the positions
    zero-padded past each strike's multiplicity.
    """
    max_m = mbu.max_multiplicity
    # The draws stay in stream order, and each is used as soon as it is
    # drawn, so only the position draws are still held when the
    # positions are allocated.
    #
    # Multiplicity: threshold the primary draw into 1/2/3/4-or-more,
    # then extend the ">3" bucket by the number of consecutive
    # geometric-tail successes (the running AND stops at the first
    # failure).
    mult_draws = generator.random(count)
    multiplicity = (1
                    + (mult_draws >= mbu.p1).astype(np.int64)
                    + (mult_draws >= mbu.p1 + mbu.p2)
                    + (mult_draws >= mbu.p1 + mbu.p2 + mbu.p3))
    if max_m > 4:
        more = np.flatnonzero(multiplicity == 4)
        tail = generator.random((count, max_m - 4))[more] < _TAIL_CONTINUE
        running = tail[:, 0].copy()
        extensions = running.astype(np.int64)
        for column in range(1, max_m - 4):
            running &= tail[:, column]
            extensions += running
        multiplicity[more] += extensions

    m_eff = np.minimum(multiplicity, codeword_bits)
    window = np.minimum(codeword_bits, m_eff + 2)
    start = (generator.random(count)
             * (codeword_bits - window + 1)).astype(np.int64)
    pos_draws = generator.random((count, max_m))

    positions = np.zeros((count, max_m), dtype=np.int64)
    first = np.minimum((pos_draws[:, 0] * window).astype(np.int64),
                       window - 1)
    positions[:, 0] = first + start
    rows = np.flatnonzero(m_eff > 1)
    if len(rows):
        window, start, flips = window[rows], start[rows], m_eff[rows]
        # Each multi-flip strike owns ``width`` slots of one flat pool,
        # in the narrowest dtype that holds an offset (uint8 for any
        # real MBU model): that keeps the per-chunk working set, and
        # the page faults of allocating it afresh each chunk, small.
        width = int(window.max())
        pool = np.tile(np.arange(width, dtype=np.min_scalar_type(width)),
                       len(rows))
        slot = np.arange(len(rows)) * width
        # step 0 took ``first``: backfill it with the window's last offset
        pool[slot + first[rows]] = window - 1
        for step in range(1, max_m):
            # Finished strikes (flips <= step) stay in every step, with
            # in-range picks and zeroed columns.  Dropping them shrinks
            # the last steps to a few hundred rows, and buffers that
            # small, allocated while the heap is extended, kept it from
            # shrinking back: the process's peak RSS rose.
            remaining = np.maximum(window - step, 1)
            pick = slot + np.minimum(
                (pos_draws[rows, step] * remaining).astype(np.int64),
                remaining - 1)
            positions[rows, step] = (pool[pick] + start) * (flips > step)
            pool[pick] = pool[slot + remaining - 1]
    return m_eff, positions
