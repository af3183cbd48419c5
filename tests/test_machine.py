"""Machine wiring: loading, schedules, run results, energy accessors."""

import gc
import weakref

import pytest

from conftest import read_word, register, run_source
from repro import Machine, assemble, baseline_sram_config, ftspm_config
from repro.mem.hierarchy import DSPM_BASE, ISPM_BASE
from repro.sim.machine import TransferSchedule
from repro.workloads.kernels import kernel_program

_SOURCE = """
        .text
        .func main
main:   ldr r1, =table
        mov r0, #0
        mov r4, #0
loop:   ldr r2, [r1, r0]
        add r4, r4, r2
        add r0, r0, #4
        cmp r0, #32
        blt loop
        ldr r3, =result
        str r4, [r3]
        halt
        .endfunc
        .data
table:  .word 1, 2, 3, 4, 5, 6, 7, 8
result: .word 0
"""


def test_program_data_loaded_into_dram():
    program = assemble(_SOURCE)
    machine = Machine(program, baseline_sram_config())
    address = program.symbol("table")
    assert machine.memory.dram.peek_word(address) == 1
    assert machine.memory.dram.peek_word(address + 28) == 8


def test_run_produces_correct_result():
    machine = run_source(_SOURCE)
    assert read_word(machine, "result") == 36
    assert register(machine, 4) == 36


def test_run_result_metrics():
    program = assemble(_SOURCE)
    machine = Machine(program, baseline_sram_config())
    result = machine.run()
    assert result.halted
    assert result.instructions == machine.cpu.stats.instructions
    assert result.cycles >= result.instructions
    assert result.cpi == pytest.approx(result.cycles / result.instructions)
    assert result.seconds == pytest.approx(
        result.cycles / baseline_sram_config().clock_hz)


def test_static_schedule_maps_block_before_start():
    program = assemble(_SOURCE)
    schedule = TransferSchedule().add_static_map(
        program.symbol("table"), 32, DSPM_BASE)
    machine = Machine(program, ftspm_config(), schedule=schedule)
    machine.run()
    assert read_word(machine, "result") == 36
    # the parity region (first D-SPM region) absorbed the table reads
    parity = machine.memory.data_spm.region_named("dspm-parity")
    assert parity.stats.reads == 8


def test_dma_transfer_cycles_charged_to_run():
    program = assemble(_SOURCE)
    schedule = TransferSchedule().add_static_map(
        program.symbol("table"), 32, DSPM_BASE)
    with_map = Machine(program, ftspm_config(), schedule=schedule)
    result_with = with_map.run()
    assert with_map.dma.total_cycles > 0
    # cycles include the DMA cost
    bare = Machine(assemble(_SOURCE), ftspm_config())
    result_bare = bare.run()
    assert result_with.cycles != result_bare.cycles


def test_dynamic_energy_accumulates():
    from repro.tech.nvsim_lite import energy_models_for
    config = baseline_sram_config()
    program = assemble(_SOURCE)
    machine = Machine(program, config,
                      energy_models=energy_models_for(config))
    machine.run()
    assert machine.dynamic_energy() > 0
    assert machine.static_energy() > 0


def test_fetches_route_to_cache_without_mapping():
    program = assemble(_SOURCE)
    machine = Machine(program, baseline_sram_config())
    machine.run()
    assert machine.memory.cache.stats.accesses > 0


def test_fetches_route_to_ispm_with_code_mapping():
    program = assemble(_SOURCE)
    block = program.code_blocks[0]
    schedule = TransferSchedule().add_static_map(
        block.start, block.size, ISPM_BASE)
    machine = Machine(program, ftspm_config(), schedule=schedule)
    machine.run()
    ispm = machine.memory.instruction_spm.devices[0]
    assert ispm.stats.reads == machine.cpu.stats.instructions


def test_finished_machine_freed_by_reference_counting():
    """A run machine holds no reference cycle: dropping the last
    reference frees it (and its DRAM image) without the cycle
    collector, so peak memory does not depend on when that runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        machine = Machine(kernel_program("crc32").program,
                          baseline_sram_config())
        result = machine.run()
        assert result.instructions > 0
        alive = weakref.ref(machine)
        del machine, result
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
