"""Dynamic overlays: time-multiplexing SPM space between blocks.

The paper's online phase supports the *dynamic* SPM approach — blocks
move between off-chip memory and the SPM during execution.  The MDA's
static placement can leave blocks unmapped when the data SPM is full;
the overlay planner recovers SPM residency for blocks whose activity
windows do not overlap a resident block's window: at the phase boundary
the host block is written back and the pending block takes its frame.

Overlays are always functionally safe in this machine model: unmapping
writes the SPM copy home, and any later access to an unmapped range
simply routes through the cache — only performance and energy change.

Phase boundaries are expressed as dynamic instruction counts, estimated
from the profile's cycle timestamps (the profiling run and the mapped
run retire the same instruction stream, so instruction counts — unlike
cycle counts — transfer exactly between platforms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..profile.blocks import BlockKind
from ..sim.machine import TransferAction, TransferSchedule
from .online import schedule_for_plan


@dataclass(frozen=True)
class Overlay:
    """One planned time-multiplex: ``incoming`` replaces ``host``."""

    host: str
    incoming: str
    spm_address: int
    trigger_instruction: int


@dataclass
class OverlayResult:
    """The overlay planner's output."""

    plan: object
    schedule: TransferSchedule
    overlays: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # (block, reason)


def _instruction_at_cycle(profile, cycle):
    """Map a profile cycle timestamp to a dynamic instruction count."""
    if profile.total_cycles <= 0:
        return 0
    fraction = min(1.0, max(0.0, cycle / profile.total_cycles))
    return int(fraction * profile.total_instructions)


def _windows_disjoint(first, second):
    """True when ``first``'s window ends before ``second``'s begins."""
    if first.last_touch_cycle is None or second.first_touch_cycle is None:
        return False
    if first.first_touch_cycle is None:
        return False
    return first.last_touch_cycle < second.first_touch_cycle


def plan_with_overlays(profile, mda_result):
    """Extend an MDA result with phase-boundary overlays.

    For every data block the MDA left unmapped, find a resident host
    whose activity window ends before the pending block's begins and
    whose frame is large enough; schedule an unmap/map pair at the
    midpoint of the gap.  Returns an :class:`OverlayResult` whose
    schedule contains the static placements plus the timed swaps.
    """
    plan = mda_result.plan
    schedule = schedule_for_plan(plan, profile)
    result = OverlayResult(plan=plan, schedule=schedule)

    pending = [profile.get(assignment.block_name)
               for assignment in plan.assignments.values()
               if not assignment.mapped
               and profile.get(assignment.block_name).kind.is_data_like]
    pending.sort(key=lambda stats: stats.accesses, reverse=True)

    claimed_hosts = set()
    for stats in pending:
        if stats.first_touch_cycle is None:
            result.skipped.append((stats.name, "never touched"))
            continue
        found = _find_host(profile, plan, stats, claimed_hosts)
        if found is None:
            result.skipped.append(
                (stats.name, "no phase-disjoint host frame"))
            continue
        host, incoming_first = found
        host_assignment = plan.assignment_of(host.name)
        frame = host_assignment.spm_address
        if incoming_first:
            # the pending block's phase precedes the host's: give it the
            # frame statically and defer the host's map to the boundary
            _remove_static_map(schedule, host.block.home_start)
            boundary_cycle = (stats.last_touch_cycle
                              + host.first_touch_cycle) // 2
            trigger = _instruction_at_cycle(profile, boundary_cycle)
            schedule.actions.append(TransferAction(
                kind="map",
                home_address=stats.block.home_start,
                size=stats.size,
                spm_address=frame,
            ))
            schedule.actions.append(TransferAction(
                kind="unmap",
                home_address=stats.block.home_start,
                trigger_instruction=trigger,
            ))
            schedule.actions.append(TransferAction(
                kind="map",
                home_address=host.block.home_start,
                size=host.size,
                spm_address=frame,
                trigger_instruction=trigger,
            ))
        else:
            boundary_cycle = (host.last_touch_cycle
                              + stats.first_touch_cycle) // 2
            trigger = _instruction_at_cycle(profile, boundary_cycle)
            schedule.actions.append(TransferAction(
                kind="unmap",
                home_address=host.block.home_start,
                trigger_instruction=trigger,
            ))
            schedule.actions.append(TransferAction(
                kind="map",
                home_address=stats.block.home_start,
                size=stats.size,
                spm_address=frame,
                trigger_instruction=trigger,
            ))
        claimed_hosts.add(host.name)
        result.overlays.append(Overlay(
            host=host.name,
            incoming=stats.name,
            spm_address=frame,
            trigger_instruction=trigger,
        ))
    return result


def _remove_static_map(schedule, home_address):
    schedule.actions[:] = [
        action for action in schedule.actions
        if not (action.kind == "map"
                and action.home_address == home_address
                and action.trigger_instruction is None)
    ]


def _find_host(profile, plan, incoming, claimed_hosts):
    """Pick the smallest adequate phase-disjoint host frame.

    Returns ``(host_stats, incoming_first)`` where ``incoming_first``
    tells whether the pending block's window precedes the host's, or
    None when no frame qualifies.
    """
    candidates = []
    for assignment in plan.mapped_blocks():
        if assignment.block_name in claimed_hosts:
            continue
        host = profile.get(assignment.block_name)
        if host.kind is BlockKind.CODE:
            continue
        if host.size < incoming.size:
            continue
        if _windows_disjoint(host, incoming):
            candidates.append((host, False))
        elif _windows_disjoint(incoming, host):
            candidates.append((host, True))
    if not candidates:
        return None
    return min(candidates, key=lambda item: item[0].size)
