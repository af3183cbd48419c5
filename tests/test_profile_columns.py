"""The column profile equals the live Profiler oracle, field for field.

:func:`repro.profile.profile_program` records a run in ``array``
columns and folds them with NumPy (:mod:`repro.profile.columns`),
leaving the fast engine in its batched mode.  The live
:class:`~repro.profile.profiler.Profiler` subscriber derives the same
statistics from the event stream and is kept as the oracle
(:func:`~repro.profile.profiler.live_profile`).  Every comparison here
covers every :class:`BlockStats` field (``dataclasses.asdict``), the
run totals, :func:`profile_fingerprint` (which keys every downstream
artifact), and the pickled bytes (what the artifact store writes).
"""

import dataclasses
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import assemble, obs
from repro.errors import ReproError
from repro.pipeline.keys import profile_fingerprint
from repro.profile import columns
from repro.profile.profiler import live_profile, profile_program
from repro.sim.diffcheck import reference_engine
from repro.workloads.case_study import case_study_program
from repro.workloads.kernels import kernel_names, kernel_program

from test_differential import (
    buffered_memory_instruction,
    control_flow_source,
    wrap_with_buffer,
)
from test_property_asm import push_pop_instruction


def assert_same_profile(profile, oracle):
    assert list(profile.blocks) == list(oracle.blocks)
    for name, expected in oracle.blocks.items():
        assert (dataclasses.asdict(profile.blocks[name])
                == dataclasses.asdict(expected)), name
    assert profile.total_cycles == oracle.total_cycles
    assert profile.total_instructions == oracle.total_instructions
    assert profile_fingerprint(profile) == profile_fingerprint(oracle)
    assert pickle.dumps(profile) == pickle.dumps(oracle)


def _kernel(name, scale):
    return lambda: kernel_program(name, scale=scale).program


WORKLOADS = {
    **{"kernel:%s@%d" % (name, scale): _kernel(name, scale)
       for scale in (1, 2) for name in kernel_names()},
    "case:64x1": lambda: case_study_program(64, 1),
    "case:256x4": lambda: case_study_program(256, 4),
}


@pytest.fixture(scope="module")
def oracle():
    """``oracle(key) -> (program, live profile)``, one oracle run per
    workload for the whole module."""
    cache = {}

    def get(key):
        if key not in cache:
            program = WORKLOADS[key]()
            cache[key] = (program, live_profile(program))
        return cache[key]

    return get


@pytest.mark.parametrize("key", list(WORKLOADS))
def test_columns_match_oracle(oracle, key):
    program, expected = oracle(key)
    assert_same_profile(profile_program(program), expected)


@pytest.mark.parametrize("key", list(WORKLOADS))
def test_columns_match_oracle_under_reference_engine(oracle, key):
    """Every fetch reaches the recorder one at a time through the bus."""
    program, expected = oracle(key)
    with reference_engine():
        profile = profile_program(program)
    assert_same_profile(profile, expected)


@pytest.mark.parametrize("key", list(WORKLOADS))
def test_columns_match_oracle_with_obs_enabled(oracle, key):
    """A SimProfiler on the bus forces the granular loop, which feeds
    the recorder the same rows one fetch at a time."""
    program, expected = oracle(key)
    obs.enable()
    try:
        profile = profile_program(program)
    finally:
        obs.reset()
    assert_same_profile(profile, expected)


def test_columns_match_oracle_when_every_batch_carries_over(
        oracle, monkeypatch):
    """A fold size of 7 splits episodes, ACE gaps and first/last touches
    across batches everywhere."""
    monkeypatch.setattr(columns, "FOLD_ROWS", 7)
    for key in ("kernel:crc32@1", "kernel:dijkstra@1", "case:64x1"):
        program, expected = oracle(key)
        assert_same_profile(profile_program(program), expected)
    for source in EDGE_CASES.values():
        program = assemble(source)
        assert_same_profile(profile_program(program), live_profile(program))


# --- named edge cases --------------------------------------------------------

EDGE_CASES = {
    # ``first`` runs straight on into ``second``: the engine must end
    # the basic block at the .func boundary
    "fallthrough": """
        .text
        .func main
main:   mov r0, #3
        bl first
        halt
        .endfunc
        .func first
first:  push {r4, lr}
        add r0, r0, #1
        .endfunc
        .func second
second: add r0, r0, #2
        pop {r4, pc}
        .endfunc
""",
    # ``helper`` lies outside every .func: its fetches count for no
    # block and do not close main's episode
    "outside-func": """
        .text
        .func main
main:   mov r0, #0
        bl helper
        bl helper
        halt
        .endfunc
helper: add r0, r0, #1
        bx lr
""",
    # one bleq not taken (no call), one taken
    "bleq": """
        .text
        .func main
main:   mov r0, #0
        cmp r0, #1
        bleq helper
        cmp r0, #0
        bleq helper
        halt
        .endfunc
        .func helper
helper: add r0, r0, #1
        bx lr
        .endfunc
""",
    # the stack pointer moves mid-block: max_stack_bytes must see it
    "sub-sp": """
        .text
        .func main
main:   mov r0, #1
        sub sp, sp, #64
        add r0, r0, #1
        str r0, [sp, #4]
        add sp, sp, #64
        halt
        .endfunc
""",
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_edge_case_matches_oracle(name):
    program = assemble(EDGE_CASES[name])
    expected = live_profile(program)
    assert_same_profile(profile_program(program), expected)
    with reference_engine():
        assert_same_profile(profile_program(program), expected)


def test_edge_cases_exercise_what_they_name():
    profiles = {name: profile_program(assemble(source))
                for name, source in EDGE_CASES.items()}
    fallthrough = profiles["fallthrough"].blocks
    assert fallthrough["second"].references == 1
    assert fallthrough["second"].max_stack_bytes == 8
    assert profiles["outside-func"].get("main").references == 1
    assert profiles["bleq"].get("helper").stack_calls == 1
    assert profiles["sub-sp"].get("main").max_stack_bytes == 64


# --- random programs ---------------------------------------------------------


def assert_same_outcome(source, max_instructions):
    """Both sides profile ``source`` identically, or both raise the
    same error (a random program may loop past the limit or pop the
    stack past its top)."""
    program = assemble(source)
    try:
        expected = live_profile(program, max_instructions=max_instructions)
    except ReproError as error:
        with pytest.raises(type(error)) as raised:
            profile_program(program, max_instructions=max_instructions)
        assert str(raised.value) == str(error)
        return
    assert_same_profile(
        profile_program(program, max_instructions=max_instructions),
        expected)


@settings(max_examples=40, deadline=None)
@given(control_flow_source())
def test_random_control_flow_matches_oracle(source):
    assert_same_outcome(source, max_instructions=20000)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(buffered_memory_instruction(),
                          push_pop_instruction()),
                min_size=1, max_size=14))
def test_random_memory_programs_match_oracle(lines):
    assert_same_outcome(wrap_with_buffer(lines), max_instructions=4000)


# --- memory ------------------------------------------------------------------

_LOOP = """
        .text
        .func main
main:   ldr r1, =counter
        mov r0, #%d
loop:   ldr r2, [r1]
        add r2, r2, #1
        str r2, [r1]
        subs r0, r0, #1
        bne loop
        halt
        .endfunc
        .data
counter: .word 0
"""


def _peak_bytes(trips):
    program = assemble(_LOOP % trips)
    tracemalloc.start()
    try:
        profile = profile_program(program)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.get("counter").writes == trips
    return peak


def test_profile_memory_does_not_grow_with_run_length(monkeypatch):
    """Rows are folded every FOLD_ROWS rows, so a run ten times longer
    peaks no higher.  Each trip adds one block row and two data rows
    (88 bytes); unfolded, the longer run would hold 0.8 MB more.  A
    small fold size lets both runs fold many times at a short length;
    the bound holds for any fold size."""
    monkeypatch.setattr(columns, "FOLD_ROWS", 256)
    short = _peak_bytes(1000)
    long = _peak_bytes(10000)
    assert long - short < 512 * 1024
