"""Scratchpad composition, address routing, and remapping."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ftspm_config
from repro.config import ALL_PRESETS, Protection, preset
from repro.errors import ConfigurationError, MemoryAccessError
from repro.events import EventKind
from repro.mem import MemorySystem, SttRamDevice, build_scratchpad
from repro.mem.hierarchy import AccessType, DSPM_BASE, ISPM_BASE


@pytest.fixture
def memory():
    return MemorySystem(ftspm_config())


def test_scratchpad_layout_is_contiguous():
    spm = build_scratchpad(ftspm_config().data_spm, DSPM_BASE)
    parity, secded, stt = spm.devices
    assert parity.base == DSPM_BASE
    assert secded.base == parity.end
    assert stt.base == secded.end
    assert spm.size == 16 * 1024


def test_region_of_routes_by_address(memory):
    spm = memory.data_spm
    assert spm.region_of(DSPM_BASE).name == "dspm-parity"
    assert spm.region_of(DSPM_BASE + 2048).name == "dspm-secded"
    assert spm.region_of(DSPM_BASE + 4096).name == "dspm-stt"


def test_region_of_outside_raises(memory):
    with pytest.raises(MemoryAccessError):
        memory.data_spm.region_of(DSPM_BASE + 16 * 1024)


def test_region_named_lookup(memory):
    assert memory.data_spm.region_named("dspm-stt").size == 12 * 1024
    with pytest.raises(ConfigurationError):
        memory.data_spm.region_named("nope")


def test_spm_read_write(memory):
    memory.access(DSPM_BASE + 100, 4, True, 0x1234)
    assert memory.access(DSPM_BASE + 100, 4, False).value == 0x1234


def test_access_straddling_regions_raises(memory):
    with pytest.raises(MemoryAccessError):
        memory.access(DSPM_BASE + 2046, 4, False)


def test_sttram_region_has_correct_type(memory):
    stt = memory.data_spm.region_named("dspm-stt")
    assert isinstance(stt, SttRamDevice)
    assert stt.protection is Protection.IMMUNE


def test_dram_accesses_go_through_cache(memory):
    memory.access(0x1000, 4, False)
    assert memory.cache.stats.accesses == 1


def test_direct_spm_window_access(memory):
    result = memory.access(ISPM_BASE, 4, False)
    assert result.device_name == "ispm-stt"


def test_unmapped_address_raises(memory):
    with pytest.raises(MemoryAccessError):
        memory.access(0x9000_0000, 4, False)


def test_remap_redirects_accesses(memory):
    memory.dram.poke_word(0x4000, 0xBEEF)
    memory.install_remap(0x4000, 64, DSPM_BASE)
    # the remap does not copy - route only (DMA copies); poke to SPM
    memory.data_spm.region_of(DSPM_BASE).poke_word(DSPM_BASE, 0xBEEF)
    result = memory.access(0x4000, 4, False)
    assert result.device_name == "dspm-parity"
    assert result.value == 0xBEEF


def test_remap_for_lookup(memory):
    memory.install_remap(0x4000, 64, DSPM_BASE)
    assert memory.remap_for(0x4000) is not None
    assert memory.remap_for(0x403F) is not None
    assert memory.remap_for(0x4040) is None
    assert memory.remap_for(0x3FFF) is None


def test_access_straddling_remap_end_rejected(memory):
    """Running past a mapped block's end must fail loudly, not read the
    stale DRAM copy of the mapped bytes."""
    memory.install_remap(0x4000, 64, DSPM_BASE)
    with pytest.raises(MemoryAccessError):
        memory.access(0x403E, 4, False)
    # the last fully-contained word is fine
    memory.access(0x403C, 4, False)


def test_access_straddling_remap_start_rejected(memory):
    """An access starting just below a mapped block and ending inside it
    must fail loudly, not route to the stale DRAM copy."""
    memory.install_remap(0x4000, 64, DSPM_BASE)
    with pytest.raises(MemoryAccessError):
        memory.access(0x3FFE, 4, False)
    # an access ending exactly at the mapped start still routes normally
    assert memory.access(0x3FFC, 4, False).device_name == "l1-cache"


def test_overlapping_remaps_rejected(memory):
    memory.install_remap(0x4000, 64, DSPM_BASE)
    with pytest.raises(ConfigurationError):
        memory.install_remap(0x4020, 64, DSPM_BASE + 256)
    with pytest.raises(ConfigurationError):
        memory.install_remap(0x3FF0, 32, DSPM_BASE + 256)


def test_remap_target_must_fit_spm(memory):
    with pytest.raises(MemoryAccessError):
        memory.install_remap(0x4000, 64, DSPM_BASE + 16 * 1024 - 16)


def test_observer_sees_all_accesses(memory):
    seen = []
    memory.events.subscribe(seen.append)
    memory.access(0x1000, 4, False, access_type=AccessType.FETCH)
    memory.access(0x2000, 4, True, value=5)
    memory.access(0x2000, 4, False)
    assert [event.kind for event in seen] == [
        EventKind.FETCH, EventKind.WRITE, EventKind.READ]


def test_observer_gets_home_address_not_spm_address(memory):
    memory.install_remap(0x4000, 64, DSPM_BASE)
    seen = []
    memory.events.subscribe(seen.append)
    memory.access(0x4010, 4, False)
    event, = seen
    assert event.address == 0x4010
    assert event.device_name == "dspm-parity"  # serviced from the SPM copy


def test_remove_observer(memory):
    seen = []
    handler = memory.events.subscribe(seen.append)
    memory.events.unsubscribe(handler)
    memory.access(0x1000, 4, False)
    assert not seen


def test_peek_poke_follow_remap(memory):
    memory.install_remap(0x4000, 64, DSPM_BASE)
    memory.poke_bytes(0x4000, b"\x42\x00\x00\x00")
    assert memory.peek_bytes(0x4000, 4) == b"\x42\x00\x00\x00"
    parity = memory.data_spm.region_of(DSPM_BASE)
    assert parity.peek_word(DSPM_BASE) == 0x42


def test_total_leakage_is_sum_of_spm_regions():
    from repro.tech.nvsim_lite import energy_models_for
    config = ftspm_config()
    memory = MemorySystem(config, energy_models_for(config))
    assert memory.total_leakage_power() == pytest.approx(7.1e-3, rel=0.01)


def test_aggregate_stats(memory):
    memory.access(ISPM_BASE, 4, False)
    memory.access(ISPM_BASE + 4, 4, False)
    assert memory.instruction_spm.aggregate_stats().reads == 2


def test_reset_stats(memory):
    memory.access(ISPM_BASE, 4, False)
    memory.access(0x1000, 4, False)
    memory.reset_stats()
    assert memory.instruction_spm.aggregate_stats().accesses == 0
    assert memory.cache.stats.accesses == 0


# --- the router against a byte-by-byte oracle --------------------------------

_HOME = 0x2000  # where the drawn remap entries' home ranges start (DRAM)


def _fill(memory):
    """Distinct bytes in every SPM region and around the DRAM addresses
    the probes touch, so that a wrong leaf or offset reads a wrong
    value."""
    dram = memory.dram
    for device, start, size in (
            [(region, region.base, region.size)
             for region in memory.spm_devices()]
            + [(dram, 0, 2 * _HOME), (dram, dram.end - 256, 256)]):
        rng = random.Random("%s@%d" % (device.name, start))
        device.poke_bytes(start, rng.randbytes(size))


@st.composite
def _remaps(draw, spms):
    """Non-overlapping ``(home_start, size, spm_address)`` entries with
    home ranges in DRAM, some next to each other, and targets in either
    SPM near a region edge (so some cross it)."""
    entries = []
    home = _HOME + draw(st.integers(0, 7))
    for _ in range(draw(st.integers(0, 5))):
        size = draw(st.integers(1, 48))
        spm = draw(st.sampled_from(spms))
        edge = draw(st.sampled_from(
            [region.base for region in spm.devices] + [spm.end]))
        target = edge + draw(st.integers(-size, size))
        entries.append((home, size,
                        min(max(target, spm.base), spm.end - size)))
        home += size + draw(st.sampled_from((0, 0, 1, 3, 8, 20)))
    return entries


def _byte_route(memory, entries, address):
    """The routing rule for one home byte: ``(entry, leaf, offset)``
    from the remap entry that covers it, else the SPM region that holds
    it, else the cache when it is in DRAM; None when unmapped."""
    for index, (home, size, target) in enumerate(entries):
        if home <= address < home + size:
            spm_byte = target + address - home
            region, = [region for region in memory.spm_devices()
                       if region.contains(spm_byte)]
            return index, region, target - home
    for region in memory.spm_devices():
        if region.contains(address):
            return None, region, 0
    if memory.dram.contains(address):
        return None, memory.cache, 0
    return None


def _oracle_route(memory, entries, address, size):
    """The route every byte of the range shares, or None."""
    routes = {_byte_route(memory, entries, byte)
              for byte in range(address, address + size)}
    return routes.pop() if len(routes) == 1 else None


@pytest.mark.parametrize("name", sorted(ALL_PRESETS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_router_matches_byte_by_byte_oracle(name, data):
    memory = MemorySystem(preset(name))
    _fill(memory)
    entries = data.draw(_remaps((memory.instruction_spm, memory.data_spm)))
    for entry in entries:
        memory.install_remap(*entry)
    edges = [edge for region in memory.spm_devices()
             for edge in (region.base, region.end)]
    points = edges + [0, memory.dram.end, ISPM_BASE - 2, 0x9000_0000]
    for home, size, target in entries:
        points += [home, home + size // 2, home + size]
        # the home image of every region edge inside the entry
        points += [edge - target + home for edge in edges
                   if target < edge < target + size]
    for _ in range(24):
        address = (data.draw(st.sampled_from(points))
                   + data.draw(st.integers(-5, 4)))
        size = data.draw(st.sampled_from((1, 4)))
        is_write = data.draw(st.booleans())
        value = data.draw(st.integers(0, 2 ** 32 - 1))
        route = _oracle_route(memory, entries, address, size)
        if route is None:
            with pytest.raises(MemoryAccessError):
                memory.access(address, size, is_write, value)
            continue
        _, leaf, offset = route
        storage = memory.dram if leaf is memory.cache else leaf
        before = storage.peek_bytes(address + offset, size)
        result = memory.access(address, size, is_write, value)
        assert result.device_name == leaf.name
        if is_write:
            assert storage.peek_bytes(address + offset, size) == (
                value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        else:
            assert result.value == int.from_bytes(before, "little")
    for _ in range(8):
        start = (data.draw(st.sampled_from(points))
                 + data.draw(st.integers(-8, 8)))
        size = data.draw(st.integers(1, 64))
        route = _oracle_route(memory, entries, start, size)
        if route is None:
            expected = ("mixed",)
        elif route[1] is memory.cache:
            expected = ("cache",)
        else:
            expected = ("spm", route[1])
        assert memory.constant_fetch_route(start, size) == expected
