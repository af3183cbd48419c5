"""DMA engine for the online phase's block transfers.

The paper's second (on-line) phase copies each mapped block from off-chip
memory into the SPM via inserted transfer instructions, once, before the
run: "these operations are performed just once before the first running
of the blocks".  The engine models each copy as a DRAM burst plus
per-word writes into the destination region, charging cycles and energy
— but it keeps this traffic in its *own* accounting, because the paper
excludes the initial copy writes from the per-block profiles.  STT-RAM
wear, however, is physical and is always recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import MemoryAccessError
from .stats import AccessStats
from .sttram import SttRamDevice

_WORD = 4

#: Sequential burst words cost a fraction of a random DRAM access — the
#: row is already open and the interface is pipelined.
BURST_ENERGY_FRACTION = 0.25


@dataclass(frozen=True)
class TransferRecord:
    """One completed DRAM -> SPM copy, for reports and tests."""

    home_address: int
    spm_address: int
    size: int
    cycles: int
    energy: float


@dataclass
class DmaEngine:
    """Block copier from DRAM into the SPMs."""

    memory: object  # MemorySystem
    records: list = field(default_factory=list)
    stats_by_device: dict = field(default_factory=dict)
    total_cycles: int = 0
    total_energy: float = 0.0

    def _device_stats(self, name):
        return self.stats_by_device.setdefault(name, AccessStats())

    def map_block(self, home_address, size, spm_address):
        """Copy DRAM -> SPM and install the remap entry."""
        memory = self.memory
        data = memory.dram.peek_bytes(home_address, size)
        spm = memory._spm_for(spm_address)
        region = spm.region_of(spm_address)
        if not region.contains(spm_address, size):
            raise MemoryAccessError(
                "DMA destination straddles SPM regions", address=spm_address)
        region.poke_bytes(spm_address, data)
        if isinstance(region, SttRamDevice):
            region.note_bulk_write(spm_address, size)
        words = (size + _WORD - 1) // _WORD
        cycles = memory.dram.burst_cycles(words) + words * region.write_latency
        energy = words * (
            memory.dram.energy_model.read_energy * BURST_ENERGY_FRACTION
            + region.energy_model.write_energy)
        self._device_stats(region.name).record_write(size, cycles, energy)
        self._device_stats("dram").record_read(size, 0, 0.0)
        memory.install_remap(home_address, size, spm_address)
        record = TransferRecord(home_address, spm_address, size,
                                cycles, energy)
        self.records.append(record)
        self.total_cycles += cycles
        self.total_energy += energy
        return record

    def reset(self):
        self.records.clear()
        self.stats_by_device.clear()
        self.total_cycles = 0
        self.total_energy = 0.0
