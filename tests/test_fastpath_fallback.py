"""Which loop the fast engine retires a block through, and its handoff.

The fast engine retires whole predecoded blocks.  The placement is fixed
before the run, so each block's fetch route — and with it the loop that
retires it — is fixed too.  The one mid-block event left is the
instruction limit: when it falls inside a block, the engine hands single
instructions to the reference step loop until the limit is reached.
These tests stop a placed, SPM-routed run there and assert the digests
stay byte-identical and that the obs hot-spot subscriber's attribution
survives the handoff; and they pin the loop every block of the bundled
workloads takes today.
"""

import collections

import pytest

from repro.config import baseline_sram_config
from repro.core.online import build_machine
from repro.errors import ExecutionLimitExceeded
from repro.eval.structures import STRUCTURES
from repro.isa import assemble
from repro.mem.hierarchy import DSPM_BASE, ISPM_BASE
from repro.pipeline import get_context
from repro.profile import profile_program
from repro.sim.diffcheck import compare_engines, engine_scope
from repro.sim.fastpath import FastEngine
from repro.sim.machine import Machine, TransferSchedule
from repro.tech.nvsim_lite import energy_models_for
from repro.workloads.case_study import case_study_program
from repro.workloads.kernels import kernel_names, kernel_program

# A ~2700-instruction loop with word and byte traffic on a .data buffer.
# The block from main holds 11 instructions and the loop block 9, so
# instruction 137 ends a block while 1101 and 2701 fall inside one.
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


@pytest.fixture
def loop_counts(monkeypatch):
    """Count the block retirements of each fast-engine loop."""
    counts = collections.Counter()
    for name in ("_run_batched", "_run_cached", "_run_granular"):
        def counted(self, *args, _run=getattr(FastEngine, name),
                    _name=name):
            counts[_name] += 1
            return _run(self, *args)
        monkeypatch.setattr(FastEngine, name, counted)
    return counts


def _placed_schedule(program):
    """The code block in the I-SPM and the buffer in the D-SPM."""
    [code] = program.code_blocks
    return (TransferSchedule()
            .add_static_map(code.start, code.end - code.start, ISPM_BASE)
            .add_static_map(program.symbol("buffer"), 32, DSPM_BASE))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("limit", [137, 1101, 2701])
def test_instruction_limit_stops_placed_run(loop_program, limit, trace,
                                            loop_counts):
    """Both engines stop a placed run at exactly ``limit`` instructions,
    on a block boundary or inside a block, with identical digests.  The
    fast engine's blocks retire through the SPM batch on the silent bus
    and through the granular loop under the trace recorder."""
    config = baseline_sram_config()
    report = compare_engines(loop_program, config,
                             schedule=_placed_schedule(loop_program),
                             energy_models=energy_models_for(config),
                             max_instructions=limit, trace=trace)
    assert report.matches, report.explain()
    assert report.fast["error"].startswith(
        ExecutionLimitExceeded.__name__ + ":")
    assert report.fast["instructions"] == limit
    assert set(loop_counts) == {"_run_granular" if trace
                                else "_run_batched"}


def test_sim_profiler_attribution_survives_handoffs(loop_program):
    """The obs hot-spot subscriber forces the fast engine into granular
    publishing; with the limit inside a block (reference steps after
    block runs), its per-device and per-block attribution must still
    equal the reference engine's, tally for tally."""
    from repro.obs.simprofile import SimProfiler

    config = baseline_sram_config()
    models = energy_models_for(config)

    def profile_with(engine):
        machine = Machine(loop_program, config, energy_models=models,
                          schedule=_placed_schedule(loop_program))
        profiler = SimProfiler(loop_program).attach(machine.events)
        with engine_scope(engine), pytest.raises(ExecutionLimitExceeded):
            machine.run(max_instructions=1101)
        profiler.detach(machine.events)
        return profiler.report()

    reference = profile_with("reference")
    fast = profile_with("fast")
    assert reference.events == fast.events > 0
    assert reference.devices == fast.devices
    assert reference.blocks == fast.blocks
    # Events carry home addresses, so the buffer stays attributed to its
    # block — but the device split must show the D-SPM serving it,
    # proving the placement was exercised.
    assert any(name.startswith("dspm") and tally.accesses > 0
               for name, tally in fast.devices.items())
    assert fast.blocks["buffer"].accesses > 0


# --- the loop each block takes ------------------------------------------------

def _workload_program(name):
    if name == "case":
        return case_study_program(64, 1)
    return kernel_program(name.split(":", 1)[1]).program


@pytest.mark.parametrize(
    "workload", ["kernel:%s" % name for name in kernel_names()] + ["case"])
def test_silent_bus_blocks_take_one_loop(workload, loop_counts):
    """Profiled, every block retires through the cache loop; placed on
    each structure, every block retires through the SPM batch."""
    program = _workload_program(workload)
    profile = profile_program(program)
    retired = loop_counts["_run_cached"]
    assert retired > 0
    assert dict(loop_counts) == {"_run_cached": retired}
    loop_counts.clear()
    context = get_context()
    for structure in STRUCTURES:
        evaluation = context.evaluation(profile, structure)
        build_machine(program, evaluation.config, evaluation.plan,
                      profile).run()
    assert dict(loop_counts) == {"_run_batched": len(STRUCTURES) * retired}
