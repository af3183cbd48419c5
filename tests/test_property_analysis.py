"""Property test: static access bounds bracket measured counts.

Generates loop-free and single-counted-loop programs whose memory
traffic hits a small data array, then checks that the static profile's
read/write intervals contain the dynamically measured counts — under
both execution engines, since the estimator must be engine-invariant.

The generated programs deliberately mix exactly-analyzable accesses
(constant base + constant offset) with register-indexed ones the
analyzer can only bound, so both the exact and the widened interval
paths are exercised.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_static_profile
from repro.profile import profile_program
from repro.sim.diffcheck import ENGINES, engine_scope

ARRAY_WORDS = 8

registers = st.integers(min_value=0, max_value=3).map(lambda n: "r%d" % n)
word_offsets = st.integers(min_value=0, max_value=ARRAY_WORDS - 1).map(
    lambda n: "#%d" % (n * 4))


@st.composite
def body_instruction(draw):
    """One instruction that is safe in straight-line or loop context.

    r9 always holds &array; r0-r3 are scratch; r7/r8 are reserved for
    the loop counter and accumulator.
    """
    kind = draw(st.sampled_from(["alu", "load", "store", "indexed"]))
    if kind == "alu":
        op = draw(st.sampled_from(["add", "sub", "orr", "eor", "and"]))
        return "%s %s, %s, #%d" % (
            op, draw(registers), draw(registers),
            draw(st.integers(min_value=0, max_value=255)))
    if kind == "load":
        return "ldr %s, [r9, %s]" % (draw(registers), draw(word_offsets))
    if kind == "store":
        return "str %s, [r9, %s]" % (draw(registers), draw(word_offsets))
    # register-indexed access: the analyzer cannot resolve the offset,
    # so it must fall back to interval widening, never under-counting
    index = draw(registers)
    clamp = "and %s, %s, #28" % (index, index)  # keep inside the array
    access = draw(st.sampled_from(["ldr", "str"]))
    return "%s\n        %s %s, [r9, %s]" % (
        clamp, access, draw(registers), index)


def loop_free_program(body):
    lines = "\n        ".join(body)
    return """
        .text
        .entry main
        .func main
main:
        ldr r9, =array
        mov r0, #1
        mov r1, #2
        mov r2, #3
        mov r3, #4
        {lines}
        halt
        .endfunc
        .data
array:
        .word 0, 0, 0, 0, 0, 0, 0, 0
""".format(lines=lines)


def single_loop_program(body, trips):
    lines = "\n        ".join(body)
    return """
        .text
        .entry main
        .func main
main:
        ldr r9, =array
        mov r0, #1
        mov r1, #2
        mov r2, #3
        mov r3, #4
        mov r7, #0
loop:
        {lines}
        add r7, r7, #1
        cmp r7, #{trips}
        blt loop
        halt
        .endfunc
        .data
array:
        .word 0, 0, 0, 0, 0, 0, 0, 0
""".format(lines=lines, trips=trips)


def assert_brackets(program, engine):
    static = build_static_profile(program)
    with engine_scope(engine):
        dynamic = profile_program(program)
    for name, measured in dynamic.blocks.items():
        bounds = static.bounds_of(name)
        assert bounds.reads.contains(measured.reads), (
            "%s: measured %d reads outside static %s"
            % (name, measured.reads, bounds.reads))
        assert bounds.writes.contains(measured.writes), (
            "%s: measured %d writes outside static %s"
            % (name, measured.writes, bounds.writes))


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=25, deadline=None)
@given(body=st.lists(body_instruction(), min_size=1, max_size=8))
def test_loop_free_bounds_bracket_dynamic(engine, body):
    from repro.isa import assemble
    program = assemble(loop_free_program(body))
    assert_brackets(program, engine)


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=25, deadline=None)
@given(body=st.lists(body_instruction(), min_size=1, max_size=6),
       trips=st.integers(min_value=1, max_value=17))
def test_single_loop_bounds_bracket_dynamic(engine, body, trips):
    from repro.isa import assemble
    program = assemble(single_loop_program(body, trips))
    assert_brackets(program, engine)
