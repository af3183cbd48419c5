"""Address routing: SPM windows, block remapping, cache, and DRAM.

The CPU issues accesses with the program's *home* addresses (text, data,
stack, all resident in off-chip DRAM).  The online phase of the mapping
algorithm installs **remap entries** — "this home range lives at this SPM
address" — before the run starts, exactly as the paper's inserted transfer
instructions make the code address the SPM copy.  Remap entries take
precedence over the SPM windows, and those over DRAM, whose references go
through the L1 cache.  The router resolves all three into one sorted
table of disjoint windows over home addresses, each with its leaf device
and its home-to-leaf offset, built on first use after the last remap is
installed; one ``bisect`` then routes an access, and an access that no
single window holds is rejected.

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
        self._table = None  # (window starts, windows); None until used
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
        self._table = None
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

    def _build_table(self):
        """The routing table ``(starts, windows)``: disjoint ``(start,
        end, leaf, offset)`` windows over home addresses, sorted by their
        (unique) starts.  Each remap entry is split at the region
        boundaries of its target (offset ``spm_address - home_start``);
        the SPM regions fill the gaps between entries, and DRAM (leaf:
        the L1 cache) what is left (offset 0)."""
        windows = []
        for entry in self._remap_entries:
            offset = entry.spm_address - entry.home_start
            for region in self._spm_for(entry.spm_address).devices:
                start = max(entry.home_start, region.base - offset)
                end = min(entry.home_end, region.end - offset)
                if start < end:
                    windows.append((start, end, region, offset))
        fills = [(region.base, region.end, region)
                 for region in self.spm_devices()]
        fills.append((self.dram.base, self.dram.end, self.cache))
        for low, high, leaf in fills:
            cursor = low
            for start, end, _, _ in sorted(windows):
                if cursor < min(start, high):
                    windows.append((cursor, min(start, high), leaf, 0))
                cursor = max(cursor, end)
            if cursor < high:
                windows.append((cursor, high, leaf, 0))
        windows.sort()
        self._table = ([window[0] for window in windows], windows)
        return self._table

    def _window(self, address, size):
        """The window holding all of ``[address, address + size)``, or
        None."""
        starts, windows = self._table or self._build_table()
        index = bisect.bisect_right(starts, address) - 1
        if index >= 0 and address + size <= windows[index][1]:
            return windows[index]
        return None

    def access(self, address, size, is_write, value=0,
               access_type=AccessType.DATA):
        """Route one architectural access and return its AccessResult.

        ``address`` is always the home (program) address; remapping to the
        SPM is internal, mirroring the paper's rewritten load/stores.
        """
        window = self._window(address, size)
        if window is None:
            self._reject(address, size)
        _, _, leaf, offset = window
        if leaf is self.cache:
            result = leaf.access(address, size, is_write, value)
        elif is_write:
            result = leaf.write(address + offset, size, value)
        else:
            result = leaf.read(address + offset, size)
        if is_write:
            kind = EventKind.WRITE
        elif access_type is AccessType.FETCH:
            kind = EventKind.FETCH
        else:
            kind = EventKind.READ
        self.events.publish_access(kind, address, size, result.device_name,
                                   result.cycles, result.energy)
        return result

    def _reject(self, address, size):
        """Raise the error for an access that no one window holds."""
        entry = self.remap_for(address)
        if entry is not None and address + size > entry.home_end:
            # Falling through would silently read the stale DRAM copy
            # of the mapped bytes; no sane placement produces this.
            message = "access straddles a mapped block boundary"
        elif entry is not None:
            message = "access straddles SPM regions"
            address = entry.translate(address)
        elif self._straddles_next_remap(address, size):
            # The symmetric partial overlap: starting just below a live
            # mapping and ending inside it.
            message = "access straddles into a mapped block"
        elif (self.instruction_spm.contains(address, size)
              or self.data_spm.contains(address, size)):
            message = "access straddles SPM regions"
        else:
            message = "unmapped address"
        raise MemoryAccessError(message, address=address)

    def constant_fetch_route(self, start, size):
        """Classify how reads of ``[start, start + size)`` route under
        the installed remap entries.  A machine installs all of them
        before its run starts, so the answer holds for the whole run.

        Reads :meth:`access`'s routing table: ``("spm", device)`` when
        the whole range lies in one window of a constant-latency SPM
        region (under one remap entry, or directly inside the region),
        ``("cache",)`` when it lies in one DRAM window, and ``("mixed",)``
        for anything else — ranges straddling a mapping edge, a region
        boundary, or unmapped space, which the caller must route
        per-access through :meth:`access` to reproduce its exact
        adjudication (including its errors).
        """
        window = self._window(start, size)
        if window is None:
            return ("mixed",)
        if window[2] is self.cache:
            return ("cache",)
        return ("spm", window[2])

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
