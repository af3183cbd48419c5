"""Gate-level cost model for the parity and SEC-DED codec circuits.

The paper measured these with Synopsys Design Compiler; we substitute a
gate-count estimate.  Both circuits are XOR-dominated:

* **Parity (32-bit word)** — encoder: a 31-gate XOR tree, depth
  ``ceil(log2(32)) = 5``; checker: the same tree plus the stored bit.
* **Hamming SEC-DED (72,64)** — encoder: 8 parity equations over ~half of
  64 data bits each (~8 * 31 XORs); decoder: syndrome generation over 72
  bits, syndrome decode (72-way AND-tree match) and the correction XOR.

These yield the orderings Table IV encodes: parity fits inside the SRAM
access cycle; SEC-DED's deeper tree costs an extra cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import node_params

#: fraction of the gates that switch per encode or decode
SWITCHING_ACTIVITY = 0.5
#: fraction of the clock cycle left for the decoder after the array
#: access itself (the memory stage's slack)
STAGE_FRACTION = 0.4


@dataclass(frozen=True)
class CodecEstimate:
    """Synthesised-circuit estimate for one codec."""

    name: str
    encode_gates: int
    decode_gates: int
    encode_depth: int
    decode_depth: int
    encode_energy: float  # joules per encoded word
    decode_energy: float  # joules per decoded word
    encode_delay: float  # seconds
    decode_delay: float  # seconds

    def fits_in_cycle(self, clock_hz):
        """Whether decode fits in the memory-stage slack of one cycle
        (:data:`STAGE_FRACTION` of it)."""
        return self.decode_delay <= STAGE_FRACTION / clock_hz

    def extra_cycles(self, clock_hz):
        """Pipeline cycles added by the decoder at a given clock."""
        slack = STAGE_FRACTION / clock_hz
        if self.decode_delay <= slack:
            return 0
        return math.ceil((self.decode_delay - slack) * clock_hz)


def _estimate(name, encode_gates, decode_gates, encode_depth, decode_depth,
              node_nm):
    node = node_params(node_nm)
    return CodecEstimate(
        name=name,
        encode_gates=encode_gates,
        decode_gates=decode_gates,
        encode_depth=encode_depth,
        decode_depth=decode_depth,
        encode_energy=encode_gates * node.gate_energy * SWITCHING_ACTIVITY,
        decode_energy=decode_gates * node.gate_energy * SWITCHING_ACTIVITY,
        encode_delay=encode_depth * node.gate_delay,
        decode_delay=decode_depth * node.gate_delay,
    )


def parity_codec(node_nm=40, word_bits=32):
    """Even-parity codec over one ``word_bits`` word."""
    tree_gates = word_bits - 1
    depth = math.ceil(math.log2(word_bits))
    return _estimate(
        "parity-%d" % word_bits,
        encode_gates=tree_gates,
        decode_gates=tree_gates + 1,  # recompute + compare with stored bit
        encode_depth=depth,
        decode_depth=depth + 1,
        node_nm=node_nm,
    )


def secded_codec(node_nm=40, data_bits=64):
    """Hamming SEC-DED codec (Hsiao-style) over ``data_bits`` data bits."""
    check_bits = 1
    while (1 << check_bits) < data_bits + check_bits + 1:
        check_bits += 1
    check_bits += 1  # overall parity bit for the DED property
    # Each check bit XORs roughly half the data bits.
    encode_gates = check_bits * (data_bits // 2)
    # Decode: regenerate syndrome (same tree), decode the syndrome to a
    # one-hot correction vector (one AND gate per protected bit position),
    # and apply the correction XOR.
    decode_gates = encode_gates + (data_bits + check_bits) + data_bits
    encode_depth = math.ceil(math.log2(data_bits)) + 1
    decode_depth = encode_depth + 2 + 1  # syndrome + match + correct
    return _estimate(
        "secded-%d+%d" % (data_bits, check_bits),
        encode_gates=encode_gates,
        decode_gates=decode_gates,
        encode_depth=encode_depth,
        decode_depth=decode_depth,
        node_nm=node_nm,
    )
