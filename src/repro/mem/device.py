"""Base memory device: addressable storage with latency/energy accounting.

A device owns a byte array covering ``[base, base + size)``.  Reads and
writes return an :class:`AccessResult` with the cycle cost so the CPU model
can charge it; energy is accumulated into the device's
:class:`~repro.mem.stats.AccessStats`.

The array is an anonymous memory mapping rather than a ``bytearray``: it
reads and writes alike, but its pages become resident only when touched
and go back to the OS when the device is freed, so a machine's 8 MB DRAM
image costs what the program touches, whatever the allocator did before.

Devices also expose raw (unaccounted) ``peek``/``poke`` used by the loader,
the DMA engine's bulk copies and the cache's data path (both do their own
cost model), and the result checks and state digests taken after a run.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

from ..errors import MemoryAccessError
from .stats import AccessStats, EnergyModel


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one architectural access.

    ``energy`` is the dynamic energy charged to the servicing device for
    this access (also accumulated into its stats); the event bus carries
    it so energy consumers can subscribe instead of polling devices.
    """

    value: int
    cycles: int
    device_name: str
    energy: float = 0.0


class MemoryDevice:
    """Byte-addressable storage with per-access latency and energy."""

    #: subclasses set a human-readable technology tag
    technology_tag = "generic"

    def __init__(self, name, base, size, read_latency, write_latency,
                 energy_model=None):
        if size <= 0:
            raise MemoryAccessError("device %r must have positive size" % name)
        self.name = name
        self.base = base
        self.size = size
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.energy_model = energy_model or EnergyModel()
        self.stats = AccessStats()
        self._storage = mmap.mmap(-1, size)

    # --- address helpers ----------------------------------------------------

    @property
    def end(self):
        return self.base + self.size

    def contains(self, address, size=1):
        return self.base <= address and address + size <= self.end

    def _offset(self, address, size):
        if not self.contains(address, size):
            raise MemoryAccessError(
                "access outside device %r [0x%08x, 0x%08x)"
                % (self.name, self.base, self.end), address=address)
        return address - self.base

    # --- architectural accesses ----------------------------------------------

    def read(self, address, size):
        """Perform an accounted read; returns an :class:`AccessResult`."""
        offset = self._offset(address, size)
        value = int.from_bytes(self._storage[offset:offset + size], "little")
        cycles = self.read_latency
        energy = self.energy_model.read_energy
        self.stats.record_read(size, cycles, energy)
        return AccessResult(value=value, cycles=cycles,
                            device_name=self.name, energy=energy)

    def write(self, address, size, value):
        """Perform an accounted write; returns an :class:`AccessResult`."""
        offset = self._offset(address, size)
        self._storage[offset:offset + size] = (
            value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        cycles = self.write_latency
        energy = self.energy_model.write_energy
        self.stats.record_write(size, cycles, energy)
        self._note_write(offset, size)
        return AccessResult(value=value, cycles=cycles,
                            device_name=self.name, energy=energy)

    def _note_write(self, offset, size):
        """Hook for subclasses that track wear (STT-RAM endurance)."""

    # --- raw access (loader, DMA bulk copy) ---------------------------------

    def peek_bytes(self, address, size):
        offset = self._offset(address, size)
        return bytes(self._storage[offset:offset + size])

    def poke_bytes(self, address, data):
        offset = self._offset(address, len(data))
        self._storage[offset:offset + len(data)] = data

    def peek_word(self, address):
        return int.from_bytes(self.peek_bytes(address, 4), "little")

    def poke_word(self, address, value):
        self.poke_bytes(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def leakage_energy(self, seconds):
        """Static energy burned over a window of ``seconds``."""
        return self.energy_model.leakage_power * seconds

    def reset_stats(self):
        self.stats.reset()

    def __repr__(self):
        return "<%s %r [0x%08x, 0x%08x)>" % (
            type(self).__name__, self.name, self.base, self.end)
