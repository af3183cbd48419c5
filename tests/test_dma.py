"""DMA engine: block transfers, costs, wear, separate accounting."""

import pytest

from repro import ftspm_config
from repro.mem import DmaEngine, MemorySystem
from repro.mem.hierarchy import DSPM_BASE
from repro.mem.stats import EnergyModel


@pytest.fixture
def memory():
    models = {
        "dram": EnergyModel(read_energy=2e-9, write_energy=2e-9),
        "dspm-stt": EnergyModel(read_energy=1e-11, write_energy=3e-10),
        "dspm-parity": EnergyModel(read_energy=1e-11, write_energy=1e-11),
    }
    return MemorySystem(ftspm_config(), models)


@pytest.fixture
def dma(memory):
    return DmaEngine(memory)


def test_map_block_copies_data(memory, dma):
    memory.dram.poke_word(0x8000, 0x1111)
    memory.dram.poke_word(0x8004, 0x2222)
    dma.map_block(0x8000, 8, DSPM_BASE)
    parity = memory.data_spm.region_of(DSPM_BASE)
    assert parity.peek_word(DSPM_BASE) == 0x1111
    assert parity.peek_word(DSPM_BASE + 4) == 0x2222


def test_map_block_installs_remap(memory, dma):
    dma.map_block(0x8000, 8, DSPM_BASE)
    assert memory.remap_for(0x8000) is not None


def test_map_block_cycles_and_energy(memory, dma):
    record = dma.map_block(0x8000, 64, DSPM_BASE)
    words = 16
    parity = memory.data_spm.region_of(DSPM_BASE)
    expected_cycles = (memory.dram.burst_cycles(words)
                       + words * parity.write_latency)
    assert record.cycles == expected_cycles
    assert record.energy > 0
    assert dma.total_cycles == expected_cycles


def test_sttram_destination_pays_write_latency(memory, dma):
    stt_base = DSPM_BASE + 4096
    record = dma.map_block(0x8000, 64, stt_base)
    stt = memory.data_spm.region_of(stt_base)
    assert stt.write_latency == 10
    assert record.cycles == memory.dram.burst_cycles(16) + 160


def test_sttram_destination_records_wear(memory, dma):
    stt_base = DSPM_BASE + 4096
    dma.map_block(0x8000, 64, stt_base)
    stt = memory.data_spm.region_of(stt_base)
    assert stt.max_word_writes == 1


def test_dma_traffic_not_in_architectural_stats(memory, dma):
    """The paper excludes initial copies from block profiles."""
    dma.map_block(0x8000, 64, DSPM_BASE)
    parity = memory.data_spm.region_of(DSPM_BASE)
    assert parity.stats.writes == 0  # architectural counter untouched
    assert dma.stats_by_device["dspm-parity"].writes == 1


def test_destination_must_fit_one_region(memory, dma):
    from repro.errors import MemoryAccessError
    with pytest.raises(MemoryAccessError):
        dma.map_block(0x8000, 4096, DSPM_BASE)  # parity region is 2 KB


def test_records_accumulate(memory, dma):
    dma.map_block(0x8000, 8, DSPM_BASE)
    dma.map_block(0x9000, 8, DSPM_BASE + 64)
    assert len(dma.records) == 2


def test_reset(memory, dma):
    dma.map_block(0x8000, 8, DSPM_BASE)
    dma.reset()
    assert not dma.records
    assert dma.total_cycles == 0
    assert not dma.stats_by_device
