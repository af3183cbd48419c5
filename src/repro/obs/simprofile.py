"""Sim hot-spot attribution: where the simulated cycles and energy go.

:class:`SimProfiler` is an :class:`~repro.events.EventSubscriber` that
rides the machine's existing access-event bus — the same stream the
Table-I profiler reads — and aggregates every routed access into two
attribution tables:

* **per device** (``dspm-stt``, ``l1-cache``, …): access count, cycles,
  and dynamic energy, split by event kind,
* **per program block** (``Main``, ``Array1``, ``Stack``, …): the same,
  attributed by the *home* address of the access through the program's
  block map.

Both engines are covered for free: the reference engine always
publishes per access, and the fast engine switches to its granular
per-access mode the moment any subscriber (this one included) attaches,
so the profiler sees the identical event stream either way (tested).

Enablement is a module-level decision made once per run in
:meth:`Machine.run <repro.sim.machine.Machine.run>` — when observability
is off, no subscriber is attached and the bus publishes nothing, so the
disabled cost is one flag check per run, not per event.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..events import EventSubscriber

#: attribution bucket for accesses outside every program block
#: (DMA-managed SPM windows, unlabelled DRAM)
UNATTRIBUTED = "(unattributed)"


class _Tally:
    __slots__ = ("accesses", "cycles", "energy", "reads", "writes",
                 "fetches")

    def __init__(self):
        self.accesses = 0
        self.cycles = 0
        self.energy = 0.0
        self.reads = 0
        self.writes = 0
        self.fetches = 0

    def _key(self):
        return (self.accesses, self.cycles, self.energy, self.reads,
                self.writes, self.fetches)

    def __eq__(self, other):
        return isinstance(other, _Tally) and self._key() == other._key()

    def __repr__(self):
        return ("_Tally(accesses=%d, cycles=%d, energy=%g, reads=%d, "
                "writes=%d, fetches=%d)" % self._key())


@dataclass
class HotspotReport:
    """The finished attribution: plain dicts, render-ready."""

    devices: dict = field(default_factory=dict)  # name -> _Tally
    blocks: dict = field(default_factory=dict)  # name -> _Tally
    calls: dict = field(default_factory=dict)  # block name -> call count
    events: int = 0

    def top_devices(self, limit=None):
        ordered = sorted(self.devices.items(),
                         key=lambda item: item[1].cycles, reverse=True)
        return ordered[:limit] if limit else ordered

    def top_blocks(self, limit=None):
        ordered = sorted(self.blocks.items(),
                         key=lambda item: item[1].cycles, reverse=True)
        return ordered[:limit] if limit else ordered

    def table(self, limit=10):
        """Hot-spot table (devices then blocks), cycle-share ranked."""
        from ..eval.tables import render_table

        total_cycles = sum(t.cycles for t in self.devices.values()) or 1
        rows = []
        for scope, ordered in (("device", self.top_devices(limit)),
                               ("block", self.top_blocks(limit))):
            for name, tally in ordered:
                rows.append([
                    scope, name, "{:,}".format(tally.accesses),
                    "{:,}".format(tally.cycles),
                    "%.1f%%" % (100.0 * tally.cycles / total_cycles),
                    "%.3e" % tally.energy,
                ])
        return render_table(
            ["Scope", "Name", "Accesses", "Cycles", "Cycle share",
             "Energy (J)"],
            rows, title="simulation hot spots")

    def summary_attrs(self, limit=5):
        """Compact span attributes: the top hot spots as plain data."""
        return {
            "hot_devices": [
                {"device": name, "accesses": tally.accesses,
                 "cycles": tally.cycles, "energy": tally.energy}
                for name, tally in self.top_devices(limit)],
            "hot_blocks": [
                {"block": name, "accesses": tally.accesses,
                 "cycles": tally.cycles, "energy": tally.energy}
                for name, tally in self.top_blocks(limit)],
            "events": self.events,
        }


class SimProfiler(EventSubscriber):
    """Bus subscriber aggregating per-device / per-block attribution."""

    def __init__(self, program=None):
        self._devices = {}
        self._blocks = {}
        self._calls = {}
        self._events = 0
        self._index = None
        self._target_index = None
        if program is not None:
            from ..profile.blocks import BlockIndex, enumerate_blocks

            blocks = enumerate_blocks(program)
            self._index = BlockIndex(blocks)
            self._target_index = BlockIndex(
                [b for b in blocks if b.kind.value == "code"])

    # --- wiring --------------------------------------------------------------

    def attach(self, bus):
        bus.subscribe(self)
        return self

    def detach(self, bus):
        if bus.is_subscribed(self):
            bus.unsubscribe(self)

    # --- event handlers ------------------------------------------------------

    def _tally(self, table, name):
        tally = table.get(name)
        if tally is None:
            tally = table[name] = _Tally()
        return tally

    def on_access(self, event):
        self._events += 1
        for tally in (
                self._tally(self._devices, event.device_name),
                self._tally(self._blocks,
                            _name_in(self._index, event.address))):
            tally.accesses += 1
            tally.cycles += event.cycles
            tally.energy += event.energy
            if event.is_write:
                tally.writes += 1
            elif event.is_fetch:
                tally.fetches += 1
            else:
                tally.reads += 1

    def on_call(self, event):
        name = _name_in(self._target_index, event.target)
        self._calls[name] = self._calls.get(name, 0) + 1

    # --- results -------------------------------------------------------------

    def report(self):
        return HotspotReport(devices=dict(self._devices),
                             blocks=dict(self._blocks),
                             calls=dict(self._calls),
                             events=self._events)


def _name_in(index, address):
    """The name of the block of ``index`` holding ``address``, or
    :data:`UNATTRIBUTED` (also when there is no program to index)."""
    block = index.lookup(address) if index is not None else None
    return block.name if block is not None else UNATTRIBUTED
