"""Static-profiling phase: per-block statistics (Table I of the paper).

The paper's flow starts by profiling the application once and extracting,
for every program block (function, data object, stack):

* the number of reads and writes,
* the average reads/writes per *reference* (a contiguous activation),
* stack calls and maximum stack usage (for code blocks),
* the block's *life-time* in cycles,

plus the ACE (architecturally correct execution) time used by the AVF
reliability model.  :func:`profile_program` runs the program once on the
pure-SRAM profiling platform and returns a :class:`Profile`.
"""

from .blocks import BlockKind, ProgramBlock, enumerate_blocks, STACK_BLOCK_NAME
from .bounds import BlockAccessBounds, CountBounds, StaticProfile
from .profiler import BlockStats, Profile, Profiler, profile_program
from .report import format_profile_table

__all__ = [
    "BlockKind",
    "ProgramBlock",
    "enumerate_blocks",
    "STACK_BLOCK_NAME",
    "BlockAccessBounds",
    "BlockStats",
    "CountBounds",
    "Profile",
    "Profiler",
    "StaticProfile",
    "profile_program",
    "format_profile_table",
]
