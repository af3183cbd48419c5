"""Address routing: SPM windows, block remapping, cache, and DRAM.

The CPU issues accesses with the program's *home* addresses (text, data,
stack, all resident in off-chip DRAM).  The online phase of the mapping
algorithm installs **remap entries** — "this home range lives at this SPM
address" — before the run starts, exactly as the paper's inserted transfer
instructions make the code address the SPM copy.  The router consults the
remap table first; unmapped references go through the L1 cache to DRAM.

Every routed access is published on the memory system's
:class:`~repro.events.EventBus` as a typed
:class:`~repro.events.AccessEvent`; the trace recorder and sim hot-spot
profiler subscribe to that one stream, and the profile recorder in the
bus's recorder slot takes the same accesses as bare values.

Accesses that straddle a live mapping boundary are rejected in both
directions: one that *starts* inside a mapping but runs past its end,
and the symmetric partial overlap that starts just below a mapping and
ends inside it.  Either would otherwise silently touch the stale DRAM
copy of the mapped bytes.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

from ..errors import ConfigurationError, MemoryAccessError
from ..events import EventBus, EventKind
from .cache import Cache
from .dram import DramDevice
from .spm import build_scratchpad
from .stats import EnergyModel

ISPM_BASE = 0x4000_0000
DSPM_BASE = 0x5000_0000


class AccessType(enum.Enum):
    """What kind of reference the CPU issued."""

    FETCH = "fetch"
    DATA = "data"


@dataclass(frozen=True)
class RemapEntry:
    """One live block mapping: home range -> SPM address."""

    home_start: int
    size: int
    spm_address: int

    @property
    def home_end(self):
        return self.home_start + self.size

    def translate(self, address):
        return self.spm_address + (address - self.home_start)


class MemorySystem:
    """The full memory side of the simulated platform."""

    def __init__(self, config, energy_models=None):
        energy_models = energy_models or {}
        self.config = config
        self.dram = DramDevice(
            "dram", 0, config.off_chip.size,
            latency=config.off_chip.latency,
            burst_word_latency=config.off_chip.burst_word_latency,
            energy_model=energy_models.get("dram", EnergyModel()),
        )
        self.cache = Cache(
            "l1-cache", self.dram,
            size=config.cache.size,
            line_size=config.cache.line_size,
            associativity=config.cache.associativity,
            latency=config.cache.latency,
            energy_model=energy_models.get("cache", EnergyModel()),
        )
        self.instruction_spm = build_scratchpad(
            config.instruction_spm, ISPM_BASE, energy_models)
        self.data_spm = build_scratchpad(
            config.data_spm, DSPM_BASE, energy_models)
        self._remap_starts = []  # sorted home_start keys
        self._remap_entries = []  # parallel RemapEntry list
        self.events = EventBus()

    # --- remapping (online phase) --------------------------------------------

    def install_remap(self, home_start, size, spm_address):
        """Declare that ``[home_start, home_start+size)`` now lives in SPM."""
        spm = self._spm_for(spm_address)
        if not spm.contains(spm_address, size):
            raise MemoryAccessError(
                "remap target does not fit in SPM %s" % spm.name,
                address=spm_address)
        entry = RemapEntry(home_start, size, spm_address)
        index = bisect.bisect_left(self._remap_starts, home_start)
        if index < len(self._remap_entries):
            if self._remap_entries[index].home_start < entry.home_end:
                raise ConfigurationError(
                    "remap overlaps an existing entry")
        if index > 0 and self._remap_entries[index - 1].home_end > home_start:
            raise ConfigurationError("remap overlaps an existing entry")
        self._remap_starts.insert(index, home_start)
        self._remap_entries.insert(index, entry)
        return entry

    def remap_for(self, address):
        """Return the live remap entry covering ``address``, or None."""
        index = bisect.bisect_right(self._remap_starts, address) - 1
        if index >= 0:
            entry = self._remap_entries[index]
            if entry.home_start <= address < entry.home_end:
                return entry
        return None

    def _spm_for(self, spm_address):
        if self.instruction_spm.contains(spm_address):
            return self.instruction_spm
        if self.data_spm.contains(spm_address):
            return self.data_spm
        raise MemoryAccessError(
            "address is not inside any SPM", address=spm_address)

    # --- routed accesses -------------------------------------------------------

    def access(self, address, size, is_write, value=0,
               access_type=AccessType.DATA):
        """Route one architectural access and return its AccessResult.

        ``address`` is always the home (program) address; remapping to the
        SPM is internal, mirroring the paper's rewritten load/stores.
        """
        entry = self.remap_for(address)
        if entry is not None:
            if address + size > entry.home_end:
                # Falling through would silently read the stale DRAM copy
                # of the mapped bytes; no sane placement produces this.
                raise MemoryAccessError(
                    "access straddles a mapped block boundary",
                    address=address)
            spm_address = entry.translate(address)
            spm = self._spm_for(spm_address)
            if is_write:
                result = spm.write(spm_address, size, value)
            else:
                result = spm.read(spm_address, size)
        elif self._straddles_next_remap(address, size):
            # The symmetric partial overlap: starting just below a live
            # mapping and ending inside it.  Routing it to DRAM would
            # silently touch the stale copy of the mapped tail bytes.
            raise MemoryAccessError(
                "access straddles into a mapped block",
                address=address)
        elif self.instruction_spm.contains(address, size):
            result = (self.instruction_spm.write(address, size, value)
                      if is_write else self.instruction_spm.read(address, size))
        elif self.data_spm.contains(address, size):
            result = (self.data_spm.write(address, size, value)
                      if is_write else self.data_spm.read(address, size))
        elif self.dram.contains(address, size):
            result = self.cache.access(address, size, is_write, value)
        else:
            raise MemoryAccessError("unmapped address", address=address)
        if is_write:
            kind = EventKind.WRITE
        elif access_type is AccessType.FETCH:
            kind = EventKind.FETCH
        else:
            kind = EventKind.READ
        self.events.publish_access(kind, address, size, result.device_name,
                                   result.cycles, result.energy)
        return result

    def constant_fetch_route(self, start, size):
        """Classify how reads of ``[start, start + size)`` route under
        the installed remap entries.  A machine installs all of them
        before its run starts, so the answer holds for the whole run.

        Returns ``("spm", device)`` when every read in the range is
        serviced by one constant-latency SPM device (whole range under a
        single remap entry, or directly inside one SPM region),
        ``("cache",)`` when the whole range misses the remap table and
        the SPMs and goes through the L1 cache, and ``("mixed",)`` for
        anything else — ranges straddling a mapping edge, a region
        boundary, or unmapped space, which the caller must route
        per-access through :meth:`access` to reproduce its exact
        adjudication (including its errors).
        """
        entry = self.remap_for(start)
        if entry is not None:
            if start + size > entry.home_end:
                return ("mixed",)
            spm_start = entry.translate(start)
            spm = self._spm_for(spm_start)
            device = spm.region_of(spm_start)
            if device.contains(spm_start, size):
                return ("spm", device)
            return ("mixed",)
        if self._straddles_next_remap(start, size):
            return ("mixed",)
        for spm in (self.instruction_spm, self.data_spm):
            if spm.contains(start, size):
                device = spm.region_of(start)
                if device.contains(start, size):
                    return ("spm", device)
                return ("mixed",)
            if spm.contains(start) or spm.contains(start + size - 1):
                return ("mixed",)
        if self.dram.contains(start, size):
            return ("cache",)
        return ("mixed",)

    def _straddles_next_remap(self, address, size):
        """True if ``[address, address+size)`` runs into a live mapping
        whose start lies strictly inside the access."""
        index = bisect.bisect_right(self._remap_starts, address)
        return (index < len(self._remap_starts)
                and self._remap_starts[index] < address + size)

    # --- raw access for the loader / fault injector -----------------------------

    def peek_bytes(self, address, size):
        entry = self.remap_for(address)
        if entry is not None and address + size <= entry.home_end:
            spm_address = entry.translate(address)
            return self._spm_for(spm_address).region_of(
                spm_address).peek_bytes(spm_address, size)
        if self.dram.contains(address, size):
            return self.dram.peek_bytes(address, size)
        spm = self._spm_for(address)
        return spm.region_of(address).peek_bytes(address, size)

    def poke_bytes(self, address, data):
        entry = self.remap_for(address)
        if entry is not None and address + len(data) <= entry.home_end:
            spm_address = entry.translate(address)
            self._spm_for(spm_address).region_of(
                spm_address).poke_bytes(spm_address, data)
            return
        if self.dram.contains(address, len(data)):
            self.dram.poke_bytes(address, data)
            return
        spm = self._spm_for(address)
        spm.region_of(address).poke_bytes(address, data)

    # --- bookkeeping -------------------------------------------------------------

    def all_devices(self):
        """Every leaf storage device (SPM regions and DRAM)."""
        return (list(self.instruction_spm.devices)
                + list(self.data_spm.devices) + [self.dram])

    def spm_devices(self):
        return (list(self.instruction_spm.devices)
                + list(self.data_spm.devices))

    def total_leakage_power(self):
        """Leakage of the SPM arrays (the quantity Figs. 6 compares)."""
        return (self.instruction_spm.leakage_power()
                + self.data_spm.leakage_power())

    def reset_stats(self):
        for device in self.all_devices():
            device.reset_stats()
        self.cache.reset_stats()
