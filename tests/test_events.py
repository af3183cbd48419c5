"""The access-event bus: dispatch and order invariance.

The contract under test: one simulation pass publishes one typed stream
that every consumer (profiler, trace recorder, sim hot-spot profiler)
reads uniformly, and no consumer's output depends on where in the
subscription order it sits.
"""

import pytest

from repro import Machine, assemble, baseline_sram_config
from repro.events import (
    AccessEvent,
    CallEvent,
    EventBus,
    EventKind,
    EventSubscriber,
)
from repro.obs.simprofile import SimProfiler
from repro.pipeline import profile_fingerprint
from repro.profile.profiler import Profiler
from repro.sim.diffcheck import engine_scope
from repro.workloads.case_study import case_study_program
from repro.workloads.traces import TraceRecorder

SOURCE = """
        .text
        .func main
main:   mov   r0, #0
        mov   r1, #10
loop:   add   r0, r0, r1
        sub   r1, r1, #1
        cmp   r1, #0
        bne   loop
        ldr   r2, =scratch
        str   r0, [r2]
        bl    leaf
        halt
        .endfunc
        .func leaf
leaf:   mov   r3, #7
        bx    lr
        .endfunc
        .data
scratch: .word 0
"""


class Collector(EventSubscriber):
    def __init__(self):
        self.accesses = []
        self.calls = []

    def on_access(self, event):
        self.accesses.append(event)

    def on_call(self, event):
        self.calls.append(event)


# --- bus mechanics ------------------------------------------------------------

def test_bus_subscribe_publish_unsubscribe():
    bus = EventBus()
    seen = []
    handler = bus.subscribe(seen.append)
    event = bus.publish_access(EventKind.READ, 0x100, 4, "dev", 1, 2.5)
    assert seen == [event]
    assert event.energy == 2.5 and not event.is_write
    bus.unsubscribe(handler)
    assert bus.publish_access(EventKind.READ, 0x100, 4, "dev", 1) is None
    assert seen == [event]


def test_bus_skips_event_allocation_without_subscribers():
    bus = EventBus()
    assert bus.publish_access(EventKind.WRITE, 0, 4, "dev", 1) is None
    assert bus.publish_call(0x40) is None
    assert bus.subscriber_count == 0


def test_bus_clock_stamps_events():
    ticks = iter((7, 42))
    bus = EventBus(clock=lambda: next(ticks))
    seen = []
    bus.subscribe(seen.append)
    bus.publish_access(EventKind.FETCH, 0, 4, "dev", 1)
    bus.publish_call(0x40)
    assert [e.at_cycle for e in seen] == [7, 42]
    assert isinstance(seen[0], AccessEvent) and isinstance(seen[1], CallEvent)


def test_subscriber_base_dispatches_by_type():
    collector = Collector()
    collector(AccessEvent(EventKind.READ, 0, 4, "dev", 1))
    collector(CallEvent.at(0x80))
    assert len(collector.accesses) == 1
    assert collector.calls[0].target == 0x80


# --- the machine publishes the full stream -----------------------------------

def test_machine_run_publishes_fetches_data_and_calls():
    machine = Machine(assemble(SOURCE), baseline_sram_config())
    collector = Collector()
    machine.events.subscribe(collector)
    machine.run()
    kinds = {event.kind for event in collector.accesses}
    assert EventKind.FETCH in kinds and EventKind.WRITE in kinds
    assert len(collector.calls) == 1
    # events carry the CPU clock: timestamps are monotonic
    stamps = [event.at_cycle for event in collector.accesses]
    assert stamps == sorted(stamps)


def test_energy_ledger_matches_device_accounting():
    from repro.tech.nvsim_lite import energy_models_for

    config = baseline_sram_config()
    program = assemble(SOURCE)
    machine = Machine(program, config,
                      energy_models=energy_models_for(config))
    profiler = SimProfiler(program).attach(machine.events)
    machine.run()
    report = profiler.report()
    assert report.events > 0
    cache = report.devices["l1-cache"]
    assert cache.energy > 0
    # the bus-side view agrees with the device's own per-access counters
    # (line-fill traffic is charged to DRAM, not to cache access events)
    counters = machine.memory.cache.stats.accesses_stats
    assert cache.energy == pytest.approx(counters.dynamic_energy)
    assert cache.accesses == counters.accesses


# --- order invariance ---------------------------------------------------------

def _run_instrumented(order):
    """One profiling run with subscribers attached in the given order."""
    program = case_study_program(array_words=64, outer_iterations=1)
    machine = Machine(program, baseline_sram_config())
    profiler = Profiler(machine)
    recorder = TraceRecorder(machine)
    hotspots = SimProfiler(program)
    subscribers = {"profiler": profiler.attach,
                   "recorder": recorder.attach,
                   "hotspots": lambda: hotspots.attach(machine.events)}
    for name in order:
        subscribers[name]()
    machine.run()
    profile = profiler.finish()
    return profile, recorder.detach(), hotspots.report()


def test_subscriber_order_does_not_change_outputs():
    from repro.eval.structures import evaluate_structure

    results = [_run_instrumented(order) for order in
               (("profiler", "recorder", "hotspots"),
                ("hotspots", "recorder", "profiler"),
                ("recorder", "hotspots", "profiler"))]
    profiles = [profile for profile, _, _ in results]
    fingerprints = {profile_fingerprint(p) for p in profiles}
    assert len(fingerprints) == 1  # identical profiles, incl. ACE cycles
    assert len({t.dumps() for _, t, _ in results}) == 1  # identical traces
    reports = [report for _, _, report in results]
    assert all(r.devices == reports[0].devices for r in reports)
    assert all(r.blocks == reports[0].blocks for r in reports)
    # and the AVF pipeline downstream of the profile agrees too
    vulnerabilities = {
        evaluate_structure(p, "ftspm").vulnerability for p in profiles}
    assert len(vulnerabilities) == 1


# --- engine invariance --------------------------------------------------------

def _collect_stream(engine):
    machine = Machine(assemble(SOURCE), baseline_sram_config())
    collector = Collector()
    machine.events.subscribe(collector)
    with engine_scope(engine):
        machine.run()
    return collector


def test_event_stream_identical_across_engines():
    """A subscriber sees the exact same typed stream whichever engine
    retires the instructions: the fast engine's granular mode publishes
    event-for-event what the reference loop publishes (the events are
    frozen dataclasses, so == is full field equality)."""
    reference = _collect_stream("reference")
    fast = _collect_stream("fast")
    assert reference.accesses == fast.accesses
    assert reference.calls == fast.calls


def test_sim_profiler_attribution_identical_across_engines():
    """The obs hot-spot subscriber aggregates to the same table under
    both engines — cycle, energy, and access attribution per device and
    per program block all agree."""
    from repro.tech.nvsim_lite import energy_models_for

    def profile_with(engine):
        config = baseline_sram_config()
        program = case_study_program(array_words=64, outer_iterations=1)
        machine = Machine(program, config,
                          energy_models=energy_models_for(config))
        profiler = SimProfiler(program).attach(machine.events)
        with engine_scope(engine):
            machine.run()
        profiler.detach(machine.events)
        return profiler.report()

    reference = profile_with("reference")
    fast = profile_with("fast")
    assert reference.events == fast.events > 0
    assert reference.devices == fast.devices
    assert reference.blocks == fast.blocks
    assert reference.calls == fast.calls
