"""Online phase: lower a mapping plan onto a runnable machine.

The paper's second phase inserts transfer commands into the code so that
each mapped block is copied from off-chip memory into its SPM home once,
before the first running of the blocks.  Here a
:class:`~repro.core.plan.MappingPlan` is lowered into the machine's
:class:`~repro.sim.machine.TransferSchedule`: every placement becomes a
DMA map performed before the first instruction (charged to the run),
and the memory router then services the program's home addresses from
the SPM copies, exactly as rewritten load/stores would.
"""

from __future__ import annotations

from ..errors import MappingError
from ..sim.machine import Machine, TransferSchedule
from ..tech.nvsim_lite import energy_models_for


def schedule_for_plan(plan, profile):
    """Build the transfer schedule realising ``plan``.

    ``profile`` supplies each block's home address range (the plan itself
    stores only names and SPM offsets).
    """
    schedule = TransferSchedule()
    for assignment in plan.mapped_blocks():
        block = profile.get(assignment.block_name).block
        if block.size <= 0:
            raise MappingError(
                "block %r has no extent to map" % assignment.block_name)
        schedule.add_static_map(block.home_start, block.size,
                                assignment.spm_address)
    return schedule


def build_machine(program, config, plan=None, profile=None):
    """Wire a ready-to-run :class:`Machine` for a placement.

    With ``plan`` (and the ``profile`` that provides home addresses), the
    machine starts with the plan's mappings scheduled; without a plan it
    runs everything through the cache.
    """
    schedule = None
    if plan is not None:
        if profile is None:
            raise MappingError(
                "building a machine from a plan needs the profile")
        schedule = schedule_for_plan(plan, profile)
    return Machine(program, config, energy_models=energy_models_for(config),
                   schedule=schedule)
