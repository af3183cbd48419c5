"""Trace recording, persistence, and replay."""


import pytest

from repro import Machine, assemble, baseline_sram_config, ftspm_config
from repro.errors import TraceError
from repro.mem.hierarchy import MemorySystem
from repro.workloads import (
    Trace,
    TraceRecorder,
    TraceReplayer,
    record_trace,
)

_SOURCE = """
        .text
        .func main
main:   ldr r1, =buffer
        mov r0, #0
loop:   ldr r2, [r1, r0]
        add r2, r2, #1
        str r2, [r1, r0]
        add r0, r0, #4
        cmp r0, #32
        blt loop
        halt
        .endfunc
        .data
buffer: .word 1, 2, 3, 4, 5, 6, 7, 8
"""


@pytest.fixture(scope="module")
def trace():
    program = assemble(_SOURCE)
    return record_trace(program)


def test_trace_captures_all_accesses(trace):
    program = assemble(_SOURCE)
    machine = Machine(program, baseline_sram_config())
    result = machine.run()
    fetches, reads, writes = trace.counts()
    assert fetches == result.instructions
    assert reads == 8
    assert writes == 8


def test_trace_footprint(trace):
    assert len(trace.footprint()) == 8


def test_trace_roundtrip_through_text(trace):
    text = trace.dumps()
    restored = Trace.loads(text)
    assert len(restored) == len(trace)
    assert list(restored) == list(trace)


def test_trace_save_load(tmp_path, trace):
    path = tmp_path / "t.trace"
    trace.save(str(path))
    restored = Trace.load(str(path))
    assert list(restored) == list(trace)


def test_trace_parse_accepts_comments():
    trace = Trace.loads("# header\nF 10000\nR 20 4\nW 24 1\n\n")
    assert len(trace) == 3
    assert trace.records[0].is_fetch
    assert trace.records[2].is_write
    assert trace.records[2].size == 1


def test_trace_parse_rejects_malformed():
    for bad in ("X 100\n", "R 100\n", "F\n", "R 100 3\n", "W zz 4\n"):
        with pytest.raises(TraceError):
            Trace.loads(bad)


def test_recorder_detach_returns_trace():
    program = assemble(_SOURCE)
    machine = Machine(program, baseline_sram_config())
    recorder = TraceRecorder(machine).attach()
    machine.run()
    captured = recorder.detach()
    assert len(captured) > 0
    with pytest.raises(TraceError):
        TraceRecorder(machine).attach().attach()


def test_replay_reproduces_cycle_accounting(trace):
    """Replaying onto a fresh identical memory system must reproduce the
    original run's per-device access counts exactly."""
    program = assemble(_SOURCE)
    machine = Machine(program, baseline_sram_config())
    machine.run()
    original = machine.memory.cache.stats

    fresh = MemorySystem(baseline_sram_config())
    replayer = TraceReplayer(fresh).replay(trace)
    assert replayer.replayed == len(trace)
    assert fresh.cache.stats.accesses == original.accesses
    assert fresh.cache.stats.misses == original.misses


def test_replay_onto_different_structure(trace):
    """A trace captured once can drive any memory configuration."""
    fresh = MemorySystem(ftspm_config())
    replayer = TraceReplayer(fresh).replay(trace)
    assert replayer.cycles > 0
    assert fresh.cache.stats.accesses == len(trace)  # nothing mapped


def test_replay_respects_remapping(trace):
    program = assemble(_SOURCE)
    fresh = MemorySystem(ftspm_config())
    from repro.mem.hierarchy import DSPM_BASE
    fresh.install_remap(program.symbol("buffer"), 32, DSPM_BASE)
    TraceReplayer(fresh).replay(trace)
    parity = fresh.data_spm.region_named("dspm-parity")
    assert parity.stats.reads == 8
    assert parity.stats.writes == 8
