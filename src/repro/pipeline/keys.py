"""Content-hash keys for pipeline artifacts.

Every cached artifact is addressed by a SHA-256 digest over the
*content* that produced it — program bytes, configuration fields,
profile statistics — never by object identity or file path, following
the fingerprint discipline of :meth:`repro.campaign.CampaignSpec.
fingerprint`.  Change one instruction, one region size, or one block
counter and the key changes; rebuild the same inputs anywhere and the
key matches, which is what lets a disk store hand artifacts across
process boundaries.

``SCHEMA_VERSION`` salts every key: bump it whenever the pickled
artifact layout or the semantics of a pipeline stage change, and every
stale cache entry is orphaned instead of misread.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from enum import Enum

SCHEMA_VERSION = 4


def canonical_json(payload):
    """Deterministic JSON: sorted keys, no whitespace surprises."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_jsonify)


def _jsonify(value):
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value) and not isinstance(value, type):
        return asdict(value)
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError("cannot fingerprint %r" % type(value))


def digest(payload):
    """SHA-256 hex digest of a canonical-JSON-serializable payload."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")).hexdigest()


def artifact_key(kind, *parts):
    """The store key for one artifact: kind + schema salt + parts."""
    return digest({"schema": SCHEMA_VERSION, "kind": kind, "parts": parts})


# --- domain fingerprints -----------------------------------------------------

def config_fingerprint(config):
    """Digest of every field of a :class:`~repro.config.SystemConfig`."""
    return digest(asdict(config))


def thresholds_fingerprint(thresholds):
    """Digest of every field of MDA :class:`~repro.core.Thresholds`."""
    return digest(asdict(thresholds))


def program_fingerprint(program):
    """Digest of a program's full content: code, data, and layout.

    The code is hashed in its canonical disassembled form (the decoded
    instruction stream *is* the program's text bytes in this ISA), plus
    the initial data image, symbol table, block structure, and layout
    constants — everything that can change what a simulation observes.
    """
    from ..isa.disasm import disassemble_program

    return digest({
        "source_name": program.source_name,
        "entry": program.entry,
        "text_base": program.text_base,
        "data_base": program.data_base,
        "stack_top": program.stack_top,
        "stack_size": program.stack_size,
        "text": [[address, text]
                 for address, text in disassemble_program(program)],
        "data": bytes(program.data),
        "symbols": program.symbols,
        "code_blocks": [[b.name, b.start, b.end]
                        for b in program.code_blocks],
        "data_objects": [[o.name, o.start, o.size]
                         for o in program.data_objects],
    })


def profile_fingerprint(profile):
    """Digest of every statistic a profile carries.

    Downstream artifacts (evaluations, simulations) key on this, so
    they are shared between a freshly measured profile and an identical
    cached one, and invalidated the moment any block statistic differs.
    """
    return digest({
        "source_name": profile.source_name,
        "flavor": getattr(profile, "flavor", "dynamic"),
        "total_cycles": profile.total_cycles,
        "total_instructions": profile.total_instructions,
        "blocks": [
            [stats.name, stats.kind.value, stats.block.home_start,
             stats.size, stats.reads, stats.writes, stats.references,
             stats.stack_calls, stats.max_stack_bytes,
             stats.first_touch_cycle, stats.last_touch_cycle,
             stats.active_cycles, stats.ace_cycles, stats.write_skew]
            for stats in sorted(profile.blocks.values(),
                                key=lambda s: s.name)
        ],
    })
