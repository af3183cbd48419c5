"""Fast-engine fallback handoffs around mid-run DMA.

The fast engine retires whole predecoded blocks; a transfer that must
happen *between* two specific instructions — an instruction-count DMA
trigger, the overlay planner's phase boundary — forces it to hand off
to the reference step loop and resume block execution afterwards.
These tests drive that handoff mid-block and assert the digests stay
byte-identical, and that the obs hot-spot subscriber's attribution
survives it.
"""

import pytest

from repro.config import baseline_sram_config
from repro.isa import assemble
from repro.sim.diffcheck import compare_engines, engine_scope, run_with_engine
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


def _buffer_schedule(program, trigger_instruction, unmap_at=None):
    """Map the loop's buffer into the DSPM mid-run (and maybe back)."""
    actions = [TransferAction(
        kind="map", home_address=program.symbol("buffer"), size=32,
        spm_address=DSPM_BASE, trigger_instruction=trigger_instruction)]
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
