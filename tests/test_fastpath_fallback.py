"""Fast-engine fallback handoffs under mid-run intervention.

The fast engine retires whole predecoded blocks; everything that must
happen *between* two specific instructions — instruction-count DMA
triggers, fault-injection hooks, scrubbing epochs, exact-execution
windows — forces it to hand off to the reference step loop and resume
block execution afterwards.  These tests drive each handoff and assert
the digests stay byte-identical, including the CPU cycle counter *at
the moment the intervention fires* (the scrubbing test stamps it into
memory, so a single mistimed cycle diverges the memory hash).
"""

import pytest

from repro.config import baseline_sram_config
from repro.pipeline.context import EvaluationContext
from repro.core.online import schedule_for_plan
from repro.isa import assemble
from repro.sim.diffcheck import (
    DiffReport,
    compare_engines,
    engine_scope,
    run_with_engine,
)
from repro.sim.machine import TransferAction, TransferSchedule
from repro.mem.hierarchy import DSPM_BASE
from repro.tech.nvsim_lite import energy_models_for

# A ~2700-instruction loop with word and byte traffic on a .data buffer:
# long enough that instruction-count interventions land mid-iteration,
# i.e. in the middle of a straight-line decoded block.
_LOOP_SOURCE = """\
.text
.func main
main:
        ldr r8, =buffer
        mov r0, #0
loop:
        ldr r2, [r8, #4]
        add r2, r2, r0
        str r2, [r8, #4]
        ldrb r3, [r8, #9]
        add r3, r3, #1
        strb r3, [r8, #9]
        add r0, r0, #1
        cmp r0, #300
        blt loop
        halt
.endfunc

.data
buffer: .word 0, 0, 0, 0, 0, 0, 0, 0
"""


@pytest.fixture(scope="module")
def loop_program():
    return assemble(_LOOP_SOURCE)


@pytest.fixture(scope="module")
def context():
    return EvaluationContext()


def _buffer_schedule(program, trigger_instruction=None, trigger_pc=None,
                     unmap_at=None):
    """Map the loop's buffer into the DSPM mid-run (and maybe back)."""
    actions = [TransferAction(
        kind="map", home_address=program.symbol("buffer"), size=32,
        spm_address=DSPM_BASE, trigger_instruction=trigger_instruction,
        trigger_pc=trigger_pc)]
    if unmap_at is not None:
        actions.append(TransferAction(
            kind="unmap", home_address=program.symbol("buffer"),
            trigger_instruction=unmap_at, write_back=True))
    return TransferSchedule(actions)


def test_timed_dma_fires_mid_block(loop_program):
    """A map at instruction 137 and a write-back unmap at 1101 both land
    inside straight-line loop iterations; the accounting flips between
    DRAM and DSPM routing at exactly the same retirement points."""
    config = baseline_sram_config()
    schedule = _buffer_schedule(loop_program, trigger_instruction=137,
                                unmap_at=1101)
    report = compare_engines(loop_program, config, schedule=schedule,
                             energy_models=energy_models_for(config))
    assert report.matches, report.explain()
    # The schedule must be observable, or this test proves nothing.
    unscheduled = run_with_engine(loop_program, config, "reference")
    scheduled = run_with_engine(loop_program, config, "reference",
                                schedule=schedule,
                                energy_models=energy_models_for(config))
    assert unscheduled != scheduled


def test_pc_triggered_dma_breaks_blocks(loop_program):
    """A trigger_pc on the loop head must fire on first execution under
    both engines (the fast engine breaks decoded blocks at trigger
    addresses so the pc check stays per-instruction-exact)."""
    config = baseline_sram_config()
    schedule = _buffer_schedule(loop_program,
                                trigger_pc=loop_program.symbol("loop"))
    report = compare_engines(loop_program, config, schedule=schedule,
                             energy_models=energy_models_for(config))
    assert report.matches, report.explain()


def _flip_bit(symbol, offset):
    def callback(machine):
        address = machine.program.symbol(symbol) + offset
        byte = machine.memory.peek_bytes(address, 1)[0]
        machine.memory.poke_bytes(address, bytes([byte ^ 0x01]))
    return callback


def test_mid_block_injection_handoff(context):
    """Bit flips injected at exact dynamic instruction counts into a
    placed FTSPM kernel: the corrupted results (and every downstream
    counter) must be identical across engines — and visibly different
    from the clean run, or the injection never happened."""
    build = context.kernel_build("crc32")
    profile = context.profile_of(build.program)
    config, plan, _ = context.plan(profile, "ftspm")
    schedule = schedule_for_plan(plan, profile)
    models = energy_models_for(config)

    def setup(machine):
        machine.at_instruction(500, _flip_bit("stream_buffer", 3))
        machine.at_instruction(1500, _flip_bit("stream_buffer", 17))

    clean = run_with_engine(build.program, config, "reference",
                            schedule=schedule, energy_models=models)
    injected = run_with_engine(build.program, config, "reference",
                               schedule=schedule, energy_models=models,
                               setup=setup)
    assert clean != injected
    report = compare_engines(build.program, config, schedule=schedule,
                             energy_models=models, setup=setup)
    assert report.matches, report.explain()


def _scrub_epoch(slot):
    """Scrub one buffer word (read + write back) and stamp the current
    cycle counter into a spare word: a hook firing even one cycle early
    or late under either engine changes the memory hash."""
    def callback(machine):
        base = machine.program.symbol("buffer")
        machine.memory.poke_bytes(base + 4, machine.memory.peek_bytes(
            base + 4, 4))
        stamp = machine.cpu.stats.cycles & 0xFFFF_FFFF
        machine.memory.poke_bytes(base + 12 + 4 * slot,
                                  stamp.to_bytes(4, "little"))
    return callback


def test_scrubbing_epochs_are_cycle_exact(loop_program):
    config = baseline_sram_config()

    def setup(machine):
        for slot, count in enumerate([50, 137, 1001, 2003]):
            machine.at_instruction(count, _scrub_epoch(slot))

    report = compare_engines(loop_program, config, setup=setup)
    assert report.matches, report.explain()
    # The stamps must land in memory, or cycle-exactness went untested.
    plain = run_with_engine(loop_program, config, "reference")
    stamped = run_with_engine(loop_program, config, "reference",
                              setup=setup)
    assert plain["memory_sha256"] != stamped["memory_sha256"]


def test_exact_window_spans_dma_and_hooks(loop_program):
    """An exact-execution window overlapping both a timed DMA map and an
    injection hook: the fast engine single-steps the whole window and
    re-enters block mode afterwards with identical state."""
    config = baseline_sram_config()
    schedule = _buffer_schedule(loop_program, trigger_instruction=137)

    def setup(machine):
        machine.add_exact_window(100, 220)
        machine.at_instruction(150, _flip_bit("buffer", 5))

    report = compare_engines(loop_program, config, schedule=schedule,
                             energy_models=energy_models_for(config),
                             setup=setup)
    assert report.matches, report.explain()


def test_exact_window_is_semantically_invisible(loop_program):
    """Windows only change *how* instructions retire, never the result:
    a windowed fast run equals an unwindowed reference run."""
    config = baseline_sram_config()
    reference = run_with_engine(loop_program, config, "reference")
    windowed = run_with_engine(
        loop_program, config, "fast",
        setup=lambda machine: machine.add_exact_window(100, 2000))
    report = DiffReport(reference, windowed)
    assert report.matches, report.explain()


def test_sim_profiler_attribution_survives_handoffs(loop_program):
    """The obs hot-spot subscriber forces the fast engine into granular
    publishing; with a mid-run DMA schedule thrown in (block-mode exits
    and re-entries), its per-device and per-block attribution must still
    equal the reference engine's, tally for tally."""
    from repro.obs.simprofile import SimProfiler
    from repro.sim.machine import Machine

    config = baseline_sram_config()
    models = energy_models_for(config)

    def profile_with(engine):
        machine = Machine(
            loop_program, config, energy_models=models,
            schedule=_buffer_schedule(loop_program, trigger_instruction=137,
                                      unmap_at=1101))
        profiler = SimProfiler(loop_program).attach(machine.events)
        with engine_scope(engine):
            machine.run()
        profiler.detach(machine.events)
        return profiler.report()

    reference = profile_with("reference")
    fast = profile_with("fast")
    assert reference.events == fast.events > 0
    assert reference.devices == fast.devices
    assert reference.blocks == fast.blocks
    # Events carry home addresses, so the buffer stays attributed to its
    # block throughout — but the device split must show the DSPM serving
    # it during the mapped phase, proving the schedule was exercised.
    assert any(name.startswith("dspm") and tally.accesses > 0
               for name, tally in fast.devices.items())
    assert fast.blocks["buffer"].accesses > 0
