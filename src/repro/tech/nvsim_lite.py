"""nvsim-lite: analytic per-array energy / leakage / area model.

The real NVSim solves a circuit-level optimisation; the paper consumes
only its outputs — per-access dynamic energy, leakage power, and area per
memory array.  This module reproduces those outputs analytically:

* dynamic energy follows a square-root capacity law anchored at a 16 KB
  reference array (bitline/wordline length grows with the array side),
* leakage is a fixed peripheral term per array plus a linear per-KB cell
  term (SRAM cells leak; STT-RAM cells do not),
* protection schemes scale both by their redundancy factor and add the
  codec energy from :mod:`repro.tech.ecc_circuit`.

Constants are calibrated in :mod:`repro.tech.params` so that the Table IV
platform reproduces the paper's static powers (7.1 / 15.8 / 3.0 mW)
exactly, and the dynamic-energy orderings of Fig. 3 hold (STT-RAM write
by far the most expensive; parity SRAM the cheapest; SEC-DED in between).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..config import MemoryTechnology, Protection
from ..mem.stats import EnergyModel
from ..units import kilobytes
from .ecc_circuit import parity_codec, secded_codec
from .params import cell_params, node_params, redundancy_factor

_ANCHOR_BYTES = kilobytes(16)


@dataclass(frozen=True)
class ArrayEstimate:
    """nvsim-lite output for one memory array."""

    name: str
    technology: MemoryTechnology
    protection: Protection
    capacity: int
    read_energy: float  # joules per access
    write_energy: float  # joules per access
    leakage_power: float  # watts
    area_mm2: float

    @property
    def energy_model(self):
        return EnergyModel(
            read_energy=self.read_energy,
            write_energy=self.write_energy,
            leakage_power=self.leakage_power,
        )


class ArrayModel:
    """Estimator bound to one technology node."""

    def __init__(self, node_nm=40):
        self.node = node_params(node_nm)
        self.node_nm = node_nm
        self._parity = parity_codec(node_nm)
        self._secded = secded_codec(node_nm)

    # --- scaling laws ---------------------------------------------------------

    def _capacity_scale(self, capacity):
        return math.sqrt(capacity / _ANCHOR_BYTES)

    def _codec(self, protection):
        if protection is Protection.PARITY:
            return self._parity
        if protection is Protection.SECDED:
            return self._secded
        return None

    # --- public API -------------------------------------------------------------

    def estimate(self, name, technology, capacity,
                 protection=Protection.NONE):
        """Estimate one array; returns an :class:`ArrayEstimate`."""
        cell = cell_params(self.node, technology)
        redundancy = redundancy_factor(protection)
        if technology is MemoryTechnology.DRAM:
            # Off-chip access energy is interface-dominated: per access,
            # independent of the DRAM's capacity.
            scale = 1.0
        else:
            scale = self._capacity_scale(capacity * redundancy)
        read_energy = cell.read_energy_16kb * scale
        write_energy = cell.write_energy_16kb * scale
        codec = self._codec(protection)
        if codec is not None:
            read_energy += codec.decode_energy
            write_energy += codec.encode_energy
        leakage = (cell.peripheral_leakage
                   + cell.cell_leakage_per_kb
                   * (capacity * redundancy / kilobytes(1)))
        area = self._area_mm2(cell, capacity * redundancy)
        return ArrayEstimate(
            name=name,
            technology=technology,
            protection=protection,
            capacity=capacity,
            read_energy=read_energy,
            write_energy=write_energy,
            leakage_power=leakage,
            area_mm2=area,
        )

    def estimate_region(self, region):
        """Estimate a :class:`~repro.config.RegionConfig`."""
        return self.estimate(region.name, region.technology, region.size,
                             region.protection)

    def _area_mm2(self, cell, capacity_bytes):
        feature_m = self.node_nm * 1e-9
        bits = capacity_bytes * 8
        cell_area_m2 = cell.cell_area_f2 * feature_m * feature_m
        array_area = bits * cell_area_m2
        # NVSim-style peripheral overhead: ~35% for small embedded arrays.
        return array_area * 1.35 * 1e6


def energy_models_for(config):
    """Build the region-name -> :class:`EnergyModel` map for a platform.

    Includes entries for every SPM region plus ``"cache"`` and ``"dram"``,
    at the platform's ``technology_node_nm``.  This is the glue between
    :mod:`repro.config` and :class:`repro.mem.hierarchy.MemorySystem`.
    """
    model = ArrayModel(config.technology_node_nm)
    models = {}
    for spm_config in (config.instruction_spm, config.data_spm):
        for region in spm_config.regions:
            models[region.name] = model.estimate_region(region).energy_model
    cache_estimate = model.estimate(
        "cache", config.cache.technology, config.cache.size,
        config.cache.protection)
    models["cache"] = cache_estimate.energy_model
    dram_estimate = model.estimate(
        "dram", MemoryTechnology.DRAM, config.off_chip.size)
    # Leakage of off-chip DRAM is out of scope (the paper compares SPM
    # structures); keep the access energy, zero the leakage.
    models["dram"] = EnergyModel(
        read_energy=dram_estimate.read_energy,
        write_energy=dram_estimate.write_energy,
        leakage_power=0.0,
    )
    return models
