"""Memory devices: storage, accounting, wear tracking, fault flips."""

import pytest

from repro.config import Protection
from repro.errors import MemoryAccessError
from repro.mem import (
    DramDevice,
    EnergyModel,
    SramDevice,
    SttRamDevice,
)


@pytest.fixture
def sram():
    return SramDevice("sram", base=0x1000, size=256,
                      energy_model=EnergyModel(1e-12, 2e-12, 1e-3))


@pytest.fixture
def stt():
    return SttRamDevice("stt", base=0x2000, size=256,
                        energy_model=EnergyModel(1e-12, 30e-12, 1e-5))


def test_write_read_roundtrip(sram):
    sram.write(0x1010, 4, 0xDEADBEEF)
    assert sram.read(0x1010, 4).value == 0xDEADBEEF


def test_byte_write_masks_value(sram):
    sram.write(0x1000, 1, 0x1FF)
    assert sram.read(0x1000, 1).value == 0xFF


def test_latency_reported(sram):
    assert sram.read(0x1000, 4).cycles == sram.read_latency
    assert sram.write(0x1000, 4, 1).cycles == sram.write_latency


def test_out_of_range_access_raises(sram):
    with pytest.raises(MemoryAccessError):
        sram.read(0x1100, 4)
    with pytest.raises(MemoryAccessError):
        sram.read(0x10FE, 4)  # straddles the end
    with pytest.raises(MemoryAccessError):
        sram.read(0x0FFF, 1)


def test_stats_accumulate(sram):
    sram.read(0x1000, 4)
    sram.read(0x1004, 4)
    sram.write(0x1008, 4, 7)
    assert sram.stats.reads == 2
    assert sram.stats.writes == 1
    assert sram.stats.read_bytes == 8
    assert sram.stats.dynamic_energy == pytest.approx(2 * 1e-12 + 2e-12)


def test_reset_stats(sram):
    sram.read(0x1000, 4)
    sram.reset_stats()
    assert sram.stats.accesses == 0


def test_peek_poke_do_not_count(sram):
    sram.poke_bytes(0x1000, b"\x01\x02\x03\x04")
    assert sram.peek_bytes(0x1000, 4) == b"\x01\x02\x03\x04"
    assert sram.stats.accesses == 0


def test_peek_poke_word(sram):
    sram.poke_word(0x1020, 0x01020304)
    assert sram.peek_word(0x1020) == 0x01020304


def test_leakage_energy(sram):
    assert sram.leakage_energy(2.0) == pytest.approx(2e-3)


def test_sram_not_immune_stt_immune(sram, stt):
    assert not sram.is_soft_error_immune
    assert stt.is_soft_error_immune


def test_sram_protection_tag():
    device = SramDevice("p", 0, 64, protection=Protection.PARITY)
    assert device.protection is Protection.PARITY


def test_stt_wear_tracking(stt):
    stt.write(0x2000, 4, 1)
    stt.write(0x2000, 4, 2)
    stt.write(0x2004, 4, 3)
    assert stt.max_word_writes == 2
    assert stt.total_word_writes == 3


def test_stt_wear_spans_words(stt):
    stt.write(0x2002, 4, 0xFFFF)  # straddles words 0 and 1
    counts = stt.word_write_counts()
    assert counts[0] == 1 and counts[1] == 1


def test_stt_bulk_write_wear(stt):
    stt.note_bulk_write(0x2000, 64)
    assert stt.max_word_writes == 1
    assert stt.total_word_writes == 16


def test_stt_reset_wear(stt):
    stt.write(0x2000, 4, 1)
    stt.reset_wear()
    assert stt.max_word_writes == 0


def test_dram_burst_cycles():
    dram = DramDevice("dram", 0, 4096, latency=50, burst_word_latency=4)
    assert dram.burst_cycles(1) == 50
    assert dram.burst_cycles(8) == 50 + 7 * 4
    assert dram.burst_cycles(0) == 0


def test_device_requires_positive_size():
    with pytest.raises(MemoryAccessError):
        SramDevice("x", 0, 0)
