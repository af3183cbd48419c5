"""Differential verification: the fast engine is locked to the core.

Every test here runs the same workload under both execution engines and
asserts the full machine digests agree — architectural state, cycle
counts, per-device access statistics, energy ledgers (compared through
``float.hex`` so accumulation order matters), cache and DMA state, and
(in the traced variants) the SHA-256 of the complete access stream.

Coverage spans the bundled kernels, the paper's case study on the FTSPM
structure with live DMA schedules and energy models, deliberate error
paths, and several hundred hypothesis-generated random programs.  Any
divergence is shrunk to a minimal repro and dumped under
``tests/failures/`` by :func:`repro.sim.diffcheck.assert_source_equivalent`.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online import schedule_for_plan
from repro.pipeline.context import EvaluationContext
from repro.pipeline.keys import profile_fingerprint
from repro.profile.profiler import profile_program
from repro.sim.diffcheck import (
    ENGINES,
    assert_source_equivalent,
    compare_engines,
    engine_scope,
    reference_engine,
)
from repro.tech.nvsim_lite import energy_models_for
from repro.workloads.kernels import kernel_names
from repro.workloads.synthetic import mibench_names

from test_property_asm import (
    data_instruction,
    instruction_lines,
    memory_instruction,
    move_instruction,
    push_pop_instruction,
    registers,
    wrap,
)


@pytest.fixture(scope="module")
def context():
    """One shared pipeline so each kernel profiles and plans only once."""
    return EvaluationContext()


def _ftspm_setup(context, program, profile):
    """(config, schedule, energy models) for a placed FTSPM run."""
    config, plan, _ = context.plan(profile, "ftspm")
    schedule = schedule_for_plan(plan, profile)
    return config, schedule, energy_models_for(config)


# --- bundled workloads -------------------------------------------------------


@pytest.mark.parametrize("name", kernel_names())
def test_kernel_digests_match_on_ftspm(context, name):
    """Batched fast path == reference on every kernel, SPM remaps live."""
    build = context.kernel_build(name)
    profile = context.profile_of(build.program)
    config, schedule, models = _ftspm_setup(context, build.program, profile)
    report = compare_engines(build.program, config, schedule=schedule,
                             energy_models=models)
    assert report.matches, report.explain()


@pytest.mark.parametrize("name", ["crc32", "matmul"])
def test_kernel_access_streams_match(context, name):
    """Traced runs: identical per-access event streams (granular mode)."""
    build = context.kernel_build(name)
    profile = context.profile_of(build.program)
    config, schedule, models = _ftspm_setup(context, build.program, profile)
    report = compare_engines(build.program, config, schedule=schedule,
                             energy_models=models, trace=True)
    assert report.matches, report.explain()


def test_case_study_digests_match(context):
    program, profile = context.case_study(96, 2)
    config, schedule, models = _ftspm_setup(context, program, profile)
    report = compare_engines(program, config, schedule=schedule,
                             energy_models=models)
    assert report.matches, report.explain()


def test_case_study_access_stream_matches(context):
    program, profile = context.case_study(96, 2)
    config, schedule, models = _ftspm_setup(context, program, profile)
    report = compare_engines(program, config, schedule=schedule,
                             energy_models=models, trace=True)
    assert report.matches, report.explain()


# --- pipeline integration ----------------------------------------------------


def test_profiles_are_engine_invariant(context):
    """The fast engine hands the profile recorder one row per basic
    block; the reference loop hands it one row per fetch.  The profile
    fingerprint, which seeds every downstream artifact key, must not
    depend on which engine recorded it."""
    build = context.kernel_build("bitcount")
    with reference_engine():
        reference = profile_program(build.program)
    fast = profile_program(build.program)
    assert profile_fingerprint(reference) == profile_fingerprint(fast)


def test_simulation_artifacts_and_keys_cross_engines():
    """Two contexts run under different engines produce identical
    simulation artifacts under identical keys, so a disk store written
    under the reference oracle replays for the fast engine."""
    results = {}
    keys = {}
    for engine in ENGINES:
        context = EvaluationContext()
        with engine_scope(engine):
            program, profile = context.case_study(96, 2)
            results[engine] = context.simulation(program, profile,
                                                 "ftspm")
        keys[engine] = list(context.counters.simulated_keys)
    assert keys["reference"] == keys["fast"]
    assert results["reference"] == results["fast"]


def test_synthetic_evaluations_are_engine_invariant():
    """MiBench-style workload models never reach a simulator, so their
    analytic evaluations are identical whichever engine is in scope."""
    name = mibench_names()[0]
    outcomes = []
    for engine in ENGINES:
        context = EvaluationContext()
        with engine_scope(engine):
            profile = context.synthetic_profile(name)
            evaluation = context.evaluation(profile, "ftspm")
        outcomes.append(dataclasses.asdict(evaluation))
    assert outcomes[0] == outcomes[1]


def test_engine_scope_knows_only_the_two_engines():
    with pytest.raises(ValueError):
        engine_scope("auto")


# --- divergence minimization -------------------------------------------------


def test_shrink_source_minimizes_to_the_culprit_lines():
    """Greedy line deletion reaches a fixpoint containing only the lines
    the divergence predicate needs (driven with a synthetic predicate so
    the shrinker is testable without a real engine divergence)."""
    from repro.sim.diffcheck import shrink_source

    source = wrap(["mov r0, #1", "add r1, r0, #2", "mvn r2, #0",
                   "sub r3, r2, #4"])

    def diverges(candidate):
        return "mvn r2, #0" in candidate

    shrunk = shrink_source(source, diverges=diverges)
    assert shrunk == "mvn r2, #0\n"


def test_shrink_source_rejects_clean_programs():
    from repro.sim.diffcheck import shrink_source

    with pytest.raises(ValueError):
        shrink_source(wrap(["mov r0, #1"]), diverges=lambda _: False)


# --- error paths -------------------------------------------------------------


def test_execution_limit_error_path_matches():
    assert_source_equivalent(wrap(["b main"]), max_instructions=500)


def test_illegal_fetch_error_path_matches():
    # bx into DRAM far past the text section: no decoded instruction.
    assert_source_equivalent(
        wrap(["mov r0, #61440", "lsl r0, r0, #4", "bx r0"]),
        max_instructions=500)


def test_unmapped_access_error_path_matches():
    assert_source_equivalent(
        wrap(["mvn r0, #0", "ldr r1, [r0]"]), max_instructions=500)


# --- differential fuzzing ----------------------------------------------------

_BUFFER_WORDS = 64


@st.composite
def compare_instruction(draw):
    mnemonic = draw(st.sampled_from(["cmp", "cmn", "tst"]))
    condition = draw(st.sampled_from(
        ["", "eq", "ne", "lt", "le", "gt", "ge", "hs", "lo", "hi", "ls",
         "mi", "pl"]))
    rn = draw(registers)
    op2 = draw(st.one_of(
        registers, st.integers(min_value=-4095, max_value=0xFFFF).map(
            lambda v: "#%d" % v)))
    return "%s%s %s, %s" % (mnemonic, condition, rn, op2)


@st.composite
def buffered_memory_instruction(draw):
    """Loads/stores kept inside the .data buffer (r8 is its base)."""
    mnemonic = draw(st.sampled_from(["ldr", "str", "ldrb", "strb"]))
    rd = draw(registers)
    offset = draw(st.integers(min_value=0, max_value=4 * _BUFFER_WORDS - 8))
    return "%s %s, [r8, #%d]" % (mnemonic, rd, offset)


def wrap_with_buffer(lines):
    return (".text\n.func main\nmain:\n        ldr r8, =buffer\n"
            + "\n".join("        " + line for line in lines)
            + "\n        halt\n.endfunc\n\n.data\nbuffer: .word "
            + ", ".join("0" for _ in range(_BUFFER_WORDS)) + "\n")


@st.composite
def control_flow_source(draw):
    """Segments joined by random conditional branches, with an
    unconditional iteration guard so every program terminates, plus a
    call to a leaf function exercising bl/push/pop/bx."""
    segments = draw(st.lists(
        st.lists(st.one_of(data_instruction(), move_instruction(),
                           compare_instruction()),
                 min_size=0, max_size=3),
        min_size=2, max_size=5))
    lines = ["        mov r11, #0"]
    for index, segment in enumerate(segments):
        lines.append("seg%d:" % index)
        lines.append("        add r11, r11, #1")
        lines.append("        cmp r11, #48")
        lines.append("        bge finish")
        lines.extend("        " + line for line in segment)
        target = draw(st.integers(min_value=0, max_value=len(segments) - 1))
        condition = draw(st.sampled_from(
            ["eq", "ne", "lt", "le", "gt", "ge", "hs", "lo", "mi", "pl"]))
        lines.append("        b%s seg%d" % (condition, target))
    lines += [
        "finish:",
        "        bl leaf",
        "        halt",
        ".endfunc",
        "",
        ".func leaf",
        "leaf:",
        "        push {r4, r5}",
        "        add r4, r11, #7",
        "        rsbs r5, r4, #3",
        "        pop {r4, r5}",
        "        bx lr",
        ".endfunc",
    ]
    return ".text\n.func main\nmain:\n" + "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(data_instruction(), move_instruction(),
                          compare_instruction()),
                min_size=1, max_size=16))
def test_fuzz_alu_flags_and_conditions(lines):
    assert_source_equivalent(wrap(lines), max_instructions=4000)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(buffered_memory_instruction(),
                          memory_instruction(), data_instruction(),
                          push_pop_instruction()),
                min_size=1, max_size=14))
def test_fuzz_memory_programs(lines):
    """In-buffer and wild addressing; faulting addresses must raise the
    same error after the same architectural effects on both engines."""
    assert_source_equivalent(wrap_with_buffer(lines), max_instructions=4000)


@settings(max_examples=60, deadline=None)
@given(control_flow_source())
def test_fuzz_control_flow_traced(source):
    """Branch-heavy programs compared with full access-stream tracing,
    which forces the fast engine through its granular mode."""
    assert_source_equivalent(source, max_instructions=20000, trace=True)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(instruction_lines, compare_instruction()),
                min_size=1, max_size=24))
def test_fuzz_deep_mixed_profile(lines):
    """Long-haul fuzzing pass (run with ``-m slow``)."""
    assert_source_equivalent(wrap(lines), max_instructions=20000)
