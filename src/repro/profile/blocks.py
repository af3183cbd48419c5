"""Program blocks: the units the profiler and mapper reason about.

Blocks are exactly the paper's granularity: code blocks are functions
(Table I: ``Main``, ``Mul``, ``Add``), data blocks are labelled data
objects (``Array1`` … ``Array4``) plus one synthetic ``Stack`` block
covering the stack address window.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

from ..errors import ProfileError

STACK_BLOCK_NAME = "Stack"


class BlockKind(enum.Enum):
    """What a program block holds."""

    CODE = "code"
    DATA = "data"
    STACK = "stack"

    @property
    def is_data_like(self):
        """Data-SPM candidates: data objects and the stack."""
        return self in (BlockKind.DATA, BlockKind.STACK)


@dataclass(frozen=True)
class ProgramBlock:
    """One mappable block: a home address range plus its kind."""

    name: str
    kind: BlockKind
    home_start: int
    size: int

    @property
    def home_end(self):
        return self.home_start + self.size

    def contains(self, address):
        return self.home_start <= address < self.home_end


class BlockIndex:
    """Sorted-interval lookup from home address to :class:`ProgramBlock`."""

    def __init__(self, blocks):
        ordered = sorted(blocks, key=lambda block: block.home_start)
        self._starts = [block.home_start for block in ordered]
        self._blocks = ordered

    def lookup(self, address):
        """The block containing ``address``, or None."""
        index = bisect.bisect_right(self._starts, address) - 1
        if index >= 0:
            block = self._blocks[index]
            if block.contains(address):
                return block
        return None


def enumerate_blocks(program):
    """Extract every :class:`ProgramBlock` from an assembled program.

    Code blocks come from ``.func`` markers, data blocks from data-section
    labels, and one stack block covering the program's top-of-stack
    window.
    """
    blocks = []
    seen = set()
    for code_block in program.code_blocks:
        _check_unique(code_block.name, seen)
        blocks.append(ProgramBlock(
            name=code_block.name,
            kind=BlockKind.CODE,
            home_start=code_block.start,
            size=code_block.size,
        ))
    for data_object in program.data_objects:
        _check_unique(data_object.name, seen)
        blocks.append(ProgramBlock(
            name=data_object.name,
            kind=BlockKind.DATA,
            home_start=data_object.start,
            size=data_object.size,
        ))
    _check_unique(STACK_BLOCK_NAME, seen)
    blocks.append(ProgramBlock(
        name=STACK_BLOCK_NAME,
        kind=BlockKind.STACK,
        home_start=program.stack_top - program.stack_size,
        size=program.stack_size,
    ))
    return blocks


def _check_unique(name, seen):
    if name in seen:
        raise ProfileError("duplicate block name %r" % name)
    seen.add(name)
