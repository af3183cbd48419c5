"""Scratchpad built from heterogeneous regions (the paper's hybrid SPM).

A :class:`Scratchpad` lays its regions out contiguously from a base
address in the order they appear in the :class:`~repro.config.SpmConfig`
(parity, then SEC-DED, then STT-RAM for FTSPM's data SPM).  The memory
system's router sends each access straight to the owning region's device,
which carries its own latency and energy model.
"""

from __future__ import annotations

from ..config import MemoryTechnology
from ..errors import ConfigurationError, MemoryAccessError
from .sram import SramDevice
from .sttram import SttRamDevice
from .stats import AccessStats, EnergyModel


class Scratchpad:
    """An SPM composed of one or more device regions."""

    def __init__(self, name, base, devices):
        if not devices:
            raise ConfigurationError("scratchpad %r has no regions" % name)
        self.name = name
        self.base = base
        self.devices = list(devices)
        cursor = base
        for device in self.devices:
            if device.base != cursor:
                raise ConfigurationError(
                    "region %r of SPM %r is not contiguous" %
                    (device.name, name))
            cursor = device.end
        self.end = cursor
        self.size = self.end - self.base

    def contains(self, address, size=1):
        return self.base <= address and address + size <= self.end

    def region_of(self, address):
        """Return the device owning ``address``; raise if outside the SPM."""
        for device in self.devices:
            if device.contains(address):
                return device
        raise MemoryAccessError(
            "address outside SPM %r" % self.name, address=address)

    def region_named(self, name):
        for device in self.devices:
            if device.name == name:
                return device
        raise ConfigurationError(
            "SPM %r has no region named %r" % (self.name, name))

    def aggregate_stats(self):
        """Sum of all region stats."""
        total = AccessStats()
        for device in self.devices:
            total.merge(device.stats)
        return total

    def leakage_power(self):
        return sum(device.energy_model.leakage_power
                   for device in self.devices)

    def reset_stats(self):
        for device in self.devices:
            device.reset_stats()


def build_scratchpad(spm_config, base, energy_models=None):
    """Instantiate a :class:`Scratchpad` from an :class:`SpmConfig`.

    ``energy_models`` maps region name -> :class:`EnergyModel`; regions
    without an entry get a zero model (useful in unit tests that only care
    about functional behaviour or latency).
    """
    energy_models = energy_models or {}
    devices = []
    cursor = base
    for region in spm_config.regions:
        model = energy_models.get(region.name, EnergyModel())
        if region.technology is MemoryTechnology.STT_RAM:
            device = SttRamDevice(
                region.name, cursor, region.size,
                read_latency=region.read_latency,
                write_latency=region.write_latency,
                energy_model=model,
            )
        elif region.technology is MemoryTechnology.SRAM:
            device = SramDevice(
                region.name, cursor, region.size,
                read_latency=region.read_latency,
                write_latency=region.write_latency,
                energy_model=model,
                protection=region.protection,
            )
        else:
            raise ConfigurationError(
                "unsupported SPM region technology %r" % region.technology)
        devices.append(device)
        cursor = device.end
    return Scratchpad(spm_config.name, base, devices)
