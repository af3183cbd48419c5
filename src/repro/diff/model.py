"""The mapping snapshot: one run's placement decisions, made diffable.

A :class:`MappingSnapshot` is the structural record of one
``(workload, structure, profile flavor)`` evaluation: every block's
region assignment (the MDA's Table II output), per-region occupancy,
and the analytic cost scalars the placement bought (cycles, energies,
vulnerability).  Snapshots are plain JSON documents so they can be
committed as goldens under ``tests/golden/mappings/``, stored as
pipeline artifacts, and diffed structurally by
:mod:`repro.diff.differ` instead of compared as opaque digests.

Block **names** are the stable identity the differ aligns on: blocks
are the paper's named functions and data objects (plus the synthetic
``Stack`` block), and their names survive recompilation, region
resizing, and MDA changes — which is exactly what lets a diff say
"``Array2`` moved SEC-DED→parity" rather than "digest mismatch".

``provenance`` is free-form context that is never diffed: two
snapshots that differ only in provenance diff empty, and a test pins
that.  Nothing sets it; committed snapshots carry ``{}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError

#: bump when the snapshot document layout changes
SNAPSHOT_SCHEMA = 1

#: metric names every snapshot carries, in render order
METRIC_NAMES = (
    "cycles",
    "runtime_seconds",
    "dynamic_energy",
    "static_energy",
    "vulnerability",
    "sdc_avf",
    "due_avf",
    "max_cell_write_rate",
)


@dataclass(frozen=True)
class BlockPlacement:
    """One block's placement: identity, shape, and region home."""

    name: str
    kind: str  # "code" | "data" | "stack"
    size: int
    region: str = None  # None = unmapped (serviced by the cache)
    protection: str = None  # Protection.value of the region, if mapped
    address: int = None  # concrete SPM offset chosen for the block

    @property
    def mapped(self):
        return self.region is not None

    def to_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "size": self.size,
            "region": self.region,
            "protection": self.protection,
            "address": self.address,
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(name=payload["name"], kind=payload["kind"],
                   size=payload["size"], region=payload.get("region"),
                   protection=payload.get("protection"),
                   address=payload.get("address"))


@dataclass
class MappingSnapshot:
    """The complete structural outcome of one mapping evaluation."""

    workload: str
    structure: str
    profile_flavor: str
    blocks: dict = field(default_factory=dict)  # name -> BlockPlacement
    regions: dict = field(default_factory=dict)  # name -> {size,used,...}
    metrics: dict = field(default_factory=dict)  # name -> float
    provenance: dict = field(default_factory=dict)  # never diffed

    @property
    def key(self):
        """The corpus identity: workload + flavor (structure implied)."""
        return "%s/%s" % (self.workload, self.profile_flavor)

    def assignment_table(self):
        """``{block name: region name or None}`` — the differ's view."""
        return {name: placement.region
                for name, placement in self.blocks.items()}

    # --- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "schema": SNAPSHOT_SCHEMA,
            "workload": self.workload,
            "structure": self.structure,
            "profile_flavor": self.profile_flavor,
            "blocks": [self.blocks[name].to_dict()
                       for name in sorted(self.blocks)],
            "regions": {name: dict(self.regions[name])
                        for name in sorted(self.regions)},
            "metrics": {name: self.metrics[name]
                        for name in sorted(self.metrics)},
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, payload):
        schema = payload.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ReproError(
                "mapping snapshot schema %r != %r; regenerate with "
                "repro golden --update" % (schema, SNAPSHOT_SCHEMA))
        blocks = {}
        for entry in payload.get("blocks", ()):
            placement = BlockPlacement.from_dict(entry)
            if placement.name in blocks:
                raise ReproError("snapshot has duplicate block %r"
                                 % placement.name)
            blocks[placement.name] = placement
        return cls(
            workload=payload["workload"],
            structure=payload["structure"],
            profile_flavor=payload["profile_flavor"],
            blocks=blocks,
            regions=dict(payload.get("regions", {})),
            metrics=dict(payload.get("metrics", {})),
            provenance=dict(payload.get("provenance", {})),
        )


def build_snapshot(profile, evaluation, provenance=None):
    """Extract a snapshot from a finished :class:`StructureEvaluation`.

    ``profile`` supplies block identity (kind, size); the evaluation
    supplies the plan (region assignments, addresses, occupancy) and
    the analytic metric scalars.
    """
    plan = evaluation.plan
    blocks = {}
    for name in sorted(profile.blocks):
        stats = profile.get(name)
        assignment = plan.assignments.get(name)
        region = protection = address = None
        if assignment is not None and assignment.mapped:
            region = assignment.region_name
            address = assignment.spm_address
            protection = plan.slots[region].protection.value
        blocks[name] = BlockPlacement(
            name=name, kind=stats.kind.value, size=stats.size,
            region=region, protection=protection, address=address)
    regions = {
        slot_name: {
            "size": slot.size,
            "used": slot.used,
            "protection": slot.protection.value,
            "spm": slot.spm_name,
        }
        for slot_name, slot in plan.slots.items()
    }
    metrics = evaluation.metrics()
    return MappingSnapshot(
        workload=profile.source_name,
        structure=evaluation.structure,
        profile_flavor=getattr(profile, "flavor", "dynamic"),
        blocks=blocks,
        regions=regions,
        metrics=metrics,
        provenance=dict(provenance or {}),
    )
