"""The access-event bus: one typed event stream for all instrumentation.

Every instrumentation consumer reads one :class:`EventBus`, carried by
:class:`~repro.mem.hierarchy.MemorySystem` and shared by
:class:`~repro.sim.machine.Machine`:

* the memory system publishes one :class:`AccessEvent` per routed
  architectural access (fetch, read, or write),
* the CPU publishes one :class:`CallEvent` per executed ``bl``,
* any number of subscribers — profiler, trace recorder, sim hot-spot
  profiler — receive the same stream, uniformly, in subscription
  order.  Subscribers never interact, so their outputs are independent
  of subscription order (tested).

A subscriber is any callable taking the event; :class:`EventSubscriber`
is an optional base class that dispatches to ``on_access``/``on_call``
by event type.  One simulation pass feeds every consumer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EventKind(enum.Enum):
    """What happened on the bus."""

    FETCH = "fetch"
    READ = "read"
    WRITE = "write"
    CALL = "call"


@dataclass(frozen=True)
class AccessEvent:
    """One routed architectural access.

    ``address`` is always the *home* (program) address the CPU issued —
    remapping into the SPM is internal to the router.  ``device_name``
    names the leaf device (SPM region, cache) that serviced the access,
    ``cycles`` its latency, ``energy`` the dynamic energy charged to
    that device for this access (line-fill traffic charged to DRAM by
    the cache is not included), and ``at_cycle`` the CPU cycle counter
    at issue time (0 for a bare memory system with no clock wired).
    """

    kind: EventKind
    address: int
    size: int
    device_name: str
    cycles: int
    energy: float = 0.0
    at_cycle: int = 0

    @property
    def is_fetch(self):
        return self.kind is EventKind.FETCH

    @property
    def is_write(self):
        return self.kind is EventKind.WRITE


@dataclass(frozen=True)
class CallEvent:
    """One executed function call (``bl``)."""

    kind: EventKind
    target: int
    at_cycle: int = 0

    @classmethod
    def at(cls, target, at_cycle=0):
        return cls(kind=EventKind.CALL, target=target, at_cycle=at_cycle)


class EventBus:
    """Synchronous publish/subscribe hub for simulation events.

    ``clock`` is a zero-argument callable giving the current CPU cycle;
    the machine wires it to its cycle counter so published events carry
    timestamps.  Publishing is a plain loop over subscribers — this is
    on the simulator's innermost path, so there is no queueing, no
    filtering layer, and no per-event allocation beyond the event.
    """

    def __init__(self, clock=None):
        self.clock = clock or (lambda: 0)
        self._subscribers = []

    # --- wiring ------------------------------------------------------------

    def subscribe(self, handler):
        """Register ``handler(event)``; returns the handler for chaining."""
        self._subscribers.append(handler)
        return handler

    def unsubscribe(self, handler):
        self._subscribers.remove(handler)

    def is_subscribed(self, handler):
        return handler in self._subscribers

    @property
    def subscriber_count(self):
        return len(self._subscribers)

    # --- publishing ---------------------------------------------------------

    def publish_access(self, kind, address, size, device_name, cycles,
                       energy=0.0):
        """Build and publish one :class:`AccessEvent`, stamped now."""
        if not self._subscribers:
            return None
        event = AccessEvent(kind, address, size, device_name, cycles,
                            energy, self.clock())
        for handler in self._subscribers:
            handler(event)
        return event

    def publish_call(self, target):
        """Build and publish one :class:`CallEvent`, stamped now."""
        if not self._subscribers:
            return None
        event = CallEvent(EventKind.CALL, target, self.clock())
        for handler in self._subscribers:
            handler(event)
        return event


class EventSubscriber:
    """Optional base class dispatching events by type.

    Subclasses override :meth:`on_access` and/or :meth:`on_call`; the
    instance itself is the bus handler (``bus.subscribe(subscriber)``).
    """

    def __call__(self, event):
        if isinstance(event, AccessEvent):
            self.on_access(event)
        elif isinstance(event, CallEvent):
            self.on_call(event)

    def on_access(self, event):
        pass

    def on_call(self, event):
        pass
