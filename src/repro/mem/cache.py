"""Set-associative L1 cache model (timing/energy), backed by DRAM.

The backing DRAM device remains the storage of record — the cache keeps
tags and LRU state only, so functional values are always consistent while
timing behaves like a write-back, write-allocate cache: hits cost the
cache latency, misses add a line-fill burst, and dirty evictions add a
write-back burst.

This is the 8 KB unprotected-SRAM instruction/data cache of Table IV that
serves every reference falling outside the SPM windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .device import AccessResult
from .stats import AccessStats, EnergyModel


@dataclass
class CacheStats:
    """Hit/miss accounting on top of the raw access counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    accesses_stats: AccessStats = field(default_factory=AccessStats)

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class _Line:
    __slots__ = ("tag", "valid", "dirty", "lru")

    def __init__(self):
        self.tag = 0
        self.valid = False
        self.dirty = False
        self.lru = 0


class Cache:
    """LRU set-associative cache in front of a :class:`DramDevice`.

    :meth:`access` serves the router's references; :meth:`fetch` is the
    fast engine's value-free instruction fetch.  Both go through one
    lookup and fill, so they leave the same tags, LRU stamps, hit and
    miss counts and DRAM traffic.
    """

    def __init__(self, name, backing, size, line_size=32, associativity=4,
                 latency=1, energy_model=None):
        if line_size & (line_size - 1) or line_size < 4:
            raise ConfigurationError("line size must be a power of two >= 4")
        num_lines = size // line_size
        if num_lines % associativity:
            raise ConfigurationError(
                "cache geometry invalid: %d lines, %d ways"
                % (num_lines, associativity))
        self.name = name
        self.backing = backing
        self.size = size
        self.line_size = line_size
        self.associativity = associativity
        self.latency = latency
        self.energy_model = energy_model or EnergyModel()
        self.num_sets = num_lines // associativity
        self._sets = [[_Line() for _ in range(associativity)]
                      for _ in range(self.num_sets)]
        self._tick = 0
        self.stats = CacheStats()

    # --- access ---------------------------------------------------------------

    def _line(self, address):
        """Look up the line holding ``address``, filling it on a miss,
        and stamp it most recently used.  Returns ``(line, cycles)``; the
        cycles include any line fill or write-back the lookup caused."""
        self._tick += 1
        line_address = address // self.line_size
        lines = self._sets[line_address % self.num_sets]
        tag = line_address // self.num_sets
        cycles = self.latency
        for line in lines:
            if line.valid and line.tag == tag:
                self.stats.hits += 1
                break
        else:
            self.stats.misses += 1
            line, penalty = self._fill(lines, tag)
            cycles += penalty
        line.lru = self._tick
        return line, cycles

    def access(self, address, size, is_write, value=None):
        """One architectural access through the cache.

        Returns an :class:`AccessResult` whose cycles include any line fill
        or write-back that the access triggered.
        """
        line, cycles = self._line(address)
        if is_write:
            line.dirty = True
            self.backing.poke_bytes(
                address, (value & ((1 << (8 * size)) - 1)).to_bytes(
                    size, "little"))
            energy = self.energy_model.write_energy
            self.stats.accesses_stats.record_write(size, cycles, energy)
            read_value = value
        else:
            read_value = int.from_bytes(
                self.backing.peek_bytes(address, size), "little")
            energy = self.energy_model.read_energy
            self.stats.accesses_stats.record_read(size, cycles, energy)
        return AccessResult(value=read_value, cycles=cycles,
                            device_name=self.name, energy=energy)

    def fetch(self, address, size):
        """A read :meth:`access` that returns only its cycles: no bytes
        are read back and no :class:`AccessResult` is built.  The caller
        takes the decoded instruction from its program and guarantees
        that the range lies in the backing DRAM."""
        cycles = self._line(address)[1]
        self.stats.accesses_stats.record_read(
            size, cycles, self.energy_model.read_energy)
        return cycles

    def _fill(self, lines, tag):
        """Allocate a line for ``tag``; return (line, extra cycles)."""
        victim = min(lines, key=lambda line: (line.valid, line.lru))
        words_per_line = self.line_size // 4
        penalty = self.backing.burst_cycles(words_per_line)
        # Charge the fill traffic to the DRAM's stats as one burst read;
        # burst words are cheaper than random accesses.
        burst_fraction = 0.25
        self.backing.stats.record_read(
            self.line_size, penalty,
            self.backing.energy_model.read_energy * words_per_line
            * burst_fraction)
        if victim.valid:
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
                writeback = self.backing.burst_cycles(words_per_line)
                penalty += writeback
                self.backing.stats.record_write(
                    self.line_size, writeback,
                    self.backing.energy_model.write_energy * words_per_line
                    * burst_fraction)
        victim.tag = tag
        victim.valid = True
        victim.dirty = False
        return victim, penalty

    # --- maintenance -----------------------------------------------------------

    def flush(self):
        """Invalidate every line; dirty lines are charged as write-backs."""
        cycles = 0
        words_per_line = self.line_size // 4
        for lines in self._sets:
            for line in lines:
                if line.valid and line.dirty:
                    self.stats.writebacks += 1
                    cycles += self.backing.burst_cycles(words_per_line)
                line.valid = False
                line.dirty = False
        return cycles

    def reset_stats(self):
        self.stats = CacheStats()
