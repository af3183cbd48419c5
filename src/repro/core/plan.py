"""Mapping plans: block -> SPM region placements with address assignment.

A :class:`MappingPlan` is the MDA's output (Table II of the paper): for
every program block, whether it is mapped and into which region, plus the
concrete SPM offset chosen for it.  Plans know how to

* list the blocks each region holds, whose ACE time the AVF model reads,
* compute per-region occupancy,
* lower themselves into the transfer schedule executed by the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import Protection
from ..errors import MappingError
from ..mem.hierarchy import DSPM_BASE, ISPM_BASE


@dataclass
class RegionSlot:
    """Allocatable view of one SPM region: capacity and a bump cursor."""

    name: str
    spm_name: str  # "I-SPM" or "D-SPM"
    base: int  # absolute SPM-window address of the region start
    size: int
    protection: Protection
    read_latency: int
    write_latency: int
    used: int = 0

    @property
    def free(self):
        return self.size - self.used

    def fits(self, size):
        return size <= self.free

    def allocate(self, size):
        if not self.fits(size):
            raise MappingError(
                "region %r cannot fit %d bytes (%d free)"
                % (self.name, size, self.free))
        address = self.base + self.used
        self.used += size
        return address


def region_slots(config):
    """Build fresh :class:`RegionSlot` allocators for a platform config.

    Region layout matches :func:`repro.mem.spm.build_scratchpad`: regions
    are laid out contiguously in configuration order.
    """
    slots = {}
    for spm_config, base in ((config.instruction_spm, ISPM_BASE),
                             (config.data_spm, DSPM_BASE)):
        cursor = base
        for region in spm_config.regions:
            if region.name in slots:
                raise MappingError("duplicate region name %r" % region.name)
            slots[region.name] = RegionSlot(
                name=region.name,
                spm_name=spm_config.name,
                base=cursor,
                size=region.size,
                protection=region.protection,
                read_latency=region.read_latency,
                write_latency=region.write_latency,
            )
            cursor += region.size
    return slots


@dataclass(frozen=True)
class Assignment:
    """One block's placement: region name (or None) and SPM address."""

    block_name: str
    region_name: str = None  # None = not mapped (serviced by the cache)
    spm_address: int = None

    @property
    def mapped(self):
        return self.region_name is not None


@dataclass
class MappingPlan:
    """A complete placement for one program on one platform config."""

    config: object
    assignments: dict = field(default_factory=dict)  # block -> Assignment
    slots: dict = field(default_factory=dict)  # region name -> RegionSlot

    @classmethod
    def empty(cls, config):
        return cls(config=config, slots=region_slots(config))

    # --- construction -----------------------------------------------------

    def assign(self, stats, region_name):
        """Place a block into a region (bump allocation)."""
        if stats.name in self.assignments:
            raise MappingError("block %r is already assigned" % stats.name)
        slot = self._slot(region_name)
        address = slot.allocate(stats.size)
        assignment = Assignment(stats.name, region_name, address)
        self.assignments[stats.name] = assignment
        return assignment

    def leave_unmapped(self, stats):
        assignment = Assignment(stats.name)
        self.assignments[stats.name] = assignment
        return assignment

    def unassign(self, block_name, size):
        """Remove a block from the plan (used by MDA's eviction loops).

        Bump allocation cannot reclaim interior holes cheaply, so the MDA
        re-packs regions after its eviction phases; this simply forgets
        the assignment and returns the freed region name.
        """
        assignment = self.assignments.pop(block_name, None)
        if assignment is None or not assignment.mapped:
            return None
        self._slot(assignment.region_name).used -= size
        return assignment.region_name

    def repack(self, profile):
        """Re-run bump allocation so offsets are contiguous again."""
        by_region = {}
        for name, assignment in self.assignments.items():
            if assignment.mapped:
                by_region.setdefault(assignment.region_name, []).append(name)
        for slot in self.slots.values():
            slot.used = 0
        for region_name, names in by_region.items():
            slot = self._slot(region_name)
            for name in sorted(names,
                               key=lambda n: profile.get(n).size,
                               reverse=True):
                stats = profile.get(name)
                address = slot.allocate(stats.size)
                self.assignments[name] = Assignment(
                    name, region_name, address)
        return self

    def _slot(self, region_name):
        try:
            return self.slots[region_name]
        except KeyError:
            raise MappingError("unknown region %r" % region_name) from None

    # --- queries ---------------------------------------------------------------

    def assignment_of(self, block_name):
        try:
            return self.assignments[block_name]
        except KeyError:
            raise MappingError(
                "block %r is not in the plan" % block_name) from None

    def mapped_blocks(self):
        return [a for a in self.assignments.values() if a.mapped]

    def blocks_in_region(self, region_name):
        return [a for a in self.assignments.values()
                if a.region_name == region_name]

    def protection_of(self, block_name):
        """Protection scheme covering a block (None when unmapped)."""
        assignment = self.assignment_of(block_name)
        if not assignment.mapped:
            return None
        return self._slot(assignment.region_name).protection

    def region_occupancy(self):
        return {name: slot.used for name, slot in self.slots.items()}

    def assignment_table(self):
        """``{block name: region name or None}`` for every block.

        The structural differ (:mod:`repro.diff`) aligns plans on this
        table; block names are the stable identity that survives
        recompilation and region resizing.
        """
        return {name: assignment.region_name
                for name, assignment in self.assignments.items()}

    # --- reporting (Table II) ------------------------------------------------------

    def table_rows(self, profile):
        """Rows in the layout of the paper's Table II."""
        labels = {
            Protection.IMMUNE: "STT-RAM",
            Protection.SECDED: "SRAM(ECC)",
            Protection.PARITY: "SRAM(Parity)",
            Protection.NONE: "SRAM",
        }
        rows = []
        for name in profile.blocks:
            assignment = self.assignments.get(name)
            if assignment is None or not assignment.mapped:
                rows.append((name, "No", "-"))
            else:
                protection = self._slot(assignment.region_name).protection
                rows.append((name, "Yes", labels[protection]))
        return rows

    def format_table(self, profile, title="Mapping Determiner output"):
        rows = [("Block Name", "Mapped to SPM", "Region")]
        rows.extend(self.table_rows(profile))
        widths = [max(len(str(row[i])) for row in rows) for i in range(3)]
        lines = [title]
        for index, row in enumerate(rows):
            lines.append("  ".join(
                str(cell).ljust(width) for cell, width in zip(row, widths)))
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines)
