"""Tests for the memory subsystem: segments, permissions, caches."""

from array import array

import pytest
from hypothesis import given, strategies as st

from repro.checkpoint import memory_diff
from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.errors import AlignmentFault, MemoryFault, SimulatorError
from repro.memory.cache import (
    CLEAN_EVICTION,
    DIRTY_EVICTION,
    FLUSH,
    HIT,
    Cache,
    CacheConfig,
    LineEvents,
    RecordingCache,
)
from repro.memory.hierarchy import CORTEX_A_CACHE_CONFIG, CacheHierarchy
from repro.memory.main_memory import AddressSpace, MemorySegment, PERM_RO, PERM_RW
from repro.memory.main_memory import TAG_SHIFT, Transfer
from repro.npb.suite import Scenario


def make_space() -> AddressSpace:
    space = AddressSpace("test")
    space.map("data", 0x1000, 0x1000, PERM_RW)
    space.map("rodata", 0x4000, 0x1000, PERM_RO)
    return space


class TestSegments:
    def test_contains_and_end(self):
        segment = MemorySegment("seg", 0x100, 0x80)
        assert segment.contains(0x100)
        assert segment.contains(0x17F)
        assert not segment.contains(0x180)
        assert segment.end == 0x180

    def test_invalid_geometry(self):
        with pytest.raises(SimulatorError):
            MemorySegment("bad", -1, 10)
        with pytest.raises(SimulatorError):
            MemorySegment("bad", 0, 0)

    def test_overlap_detection(self):
        space = make_space()
        with pytest.raises(SimulatorError):
            space.map("overlap", 0x1800, 0x1000)

    def test_load_image_too_large(self):
        segment = MemorySegment("seg", 0, 16)
        with pytest.raises(SimulatorError):
            segment.load_image(b"x" * 32)


class TestAddressSpace:
    def test_read_write_roundtrip(self):
        space = make_space()
        space.write(0x1008, 0xDEADBEEF, 4)
        assert space.read(0x1008, 4) == 0xDEADBEEF

    def test_little_endian_layout(self):
        space = make_space()
        space.write(0x1000, 0x01020304, 4)
        assert space.read(0x1000, 1) == 0x04
        assert space.read(0x1003, 1) == 0x01

    def test_unmapped_access_faults(self):
        space = make_space()
        with pytest.raises(MemoryFault):
            space.read(0x9000, 4)
        with pytest.raises(MemoryFault):
            space.write(0x9000, 1, 4)

    def test_negative_address_faults(self):
        space = make_space()
        with pytest.raises(MemoryFault):
            space.read(-4, 4)

    def test_write_to_readonly_faults(self):
        space = make_space()
        with pytest.raises(MemoryFault):
            space.write(0x4000, 1, 4)
        # reads are fine
        assert space.read(0x4000, 4) == 0

    def test_cross_segment_boundary_faults(self):
        space = make_space()
        with pytest.raises(MemoryFault):
            space.read_bytes(0x1FFC, 8)

    def test_misaligned_access_faults(self):
        space = make_space()
        with pytest.raises(AlignmentFault):
            space.read(0x1001, 4)
        with pytest.raises(AlignmentFault):
            space.write(0x1002, 1, 8)

    def test_byte_access_never_misaligned(self):
        space = make_space()
        space.write(0x1003, 0xAB, 1)
        assert space.read(0x1003, 1) == 0xAB

    def test_read_write_bytes(self):
        space = make_space()
        space.write_bytes(0x1100, b"abcdef")
        assert space.read_bytes(0x1100, 6) == b"abcdef"

    def test_flip_bit(self):
        space = make_space()
        space.write(0x1010, 0x00, 1)
        space.flip_bit(0x1010, 3)
        assert space.read(0x1010, 1) == 0x08
        with pytest.raises(MemoryFault):
            space.flip_bit(0x9999, 0)

    def test_flip_bit_ignores_permissions(self):
        # radiation does not respect page protections
        space = make_space()
        space.flip_bit(0x4000, 0)
        assert space.read(0x4000, 1) == 1

    def test_snapshot_diff_restore(self):
        space = make_space()
        captured = space.capture_contents()
        for address in (0x1000, 0x1003, 0x1ff8, 0x1ff9):
            space.flip_bit(address, 2)
        # runs of differing bytes, in address order, up to a byte limit
        assert memory_diff(space, captured, 4) == [
            ("data", 0x1000, 0x1001),
            ("data", 0x1003, 0x1004),
            ("data", 0x1ff8, 0x1ffa),
        ]
        assert memory_diff(space, captured, 3) is None
        space.read(0x1000, 4)  # the access counters are compared too
        assert memory_diff(space, captured, 4) is None
        space.restore_contents(captured)  # contents and counters
        assert memory_diff(space, captured, 0) == []

    def test_injectable_ranges(self):
        space = make_space()
        ranges = space.injectable_ranges()
        assert (0x1000, 0x1000, "data") in ranges
        assert all(name != "rodata" for _, _, name in ranges)

    def test_stats_accumulate(self):
        space = make_space()
        space.write(0x1000, 1, 4)
        space.read(0x1000, 4)
        stats = space.stats()
        assert stats["reads"] == 1 and stats["writes"] == 1
        assert stats["bytes_read"] == 4 and stats["bytes_written"] == 4

    @given(st.integers(min_value=0, max_value=0xFFC), st.integers(min_value=0, max_value=2**32 - 1))
    def test_word_roundtrip_property(self, offset, value):
        space = AddressSpace("prop")
        space.map("data", 0, 0x1000)
        aligned = offset & ~3
        space.write(aligned, value, 4)
        assert space.read(aligned, 4) == value

    def test_recording_logs_each_successful_access_once(self):
        space = make_space()
        log, accesses = [], array("q")
        space.record(log, accesses, 0)
        space.write(0x1008, 0x11223344, 4)
        assert space.read(0x1008, 4) == 0x11223344
        assert space.load4(0x100C) == 0
        space.write(0x1010, 0xAB, 1)
        space.store8(0x1018, 0x0102030405060708)
        assert space.load1(0x1010) == 0xAB
        assert space.load8(0x1018) == 0x0102030405060708
        space.store1(0x1020, 7)
        space.store4(0x1024, 9)
        space.write(0x1018, 5, 8)
        assert list(accesses) == [
            0x1008, 0x1008, 0x100C, 0x1010, 0x1018, 0x1010, 0x1018, 0x1020, 0x1024, 0x1018,
        ]
        del accesses[:]
        faulting = [
            lambda: space.read(0x9000, 4),
            lambda: space.write(0x9000, 1, 8),
            lambda: space.read(0x1001, 4),
            lambda: space.write(0x4000, 1, 4),
            lambda: space.load8(0x1004),
            lambda: space.store4(0x4000, 1),
            lambda: space.load1(-1),
        ]
        for access in faulting:
            with pytest.raises((MemoryFault, AlignmentFault)):
                access()
        assert list(accesses) == [] and log == []
        before = space.stats()
        space.write(0x1002, 0xBEEF, 2)
        assert space.read(0x1002, 2) == 0xBEEF
        after = space.stats()
        assert (after["reads"] - before["reads"], after["writes"] - before["writes"]) == (1, 1)
        assert after["bytes_read"] - before["bytes_read"] == 2
        assert after["bytes_written"] - before["bytes_written"] == 2
        assert list(accesses) == [0x1002, 0x1002]
        with pytest.raises(AlignmentFault) as misaligned:
            space.read(0x1001, 2)
        assert str(misaligned.value) == "misaligned read of 2 bytes at 0x1001"
        assert list(accesses) == [0x1002, 0x1002]
        space.record(None)
        space.read(0x1008, 4)
        assert list(accesses) == [0x1002, 0x1002]

    def test_recording_tags_accesses_and_transfers_then_stops_cleanly(self):
        space = make_space()
        tag = 3 << TAG_SHIFT
        log, accesses = [], array("q")
        space.record(log, accesses, tag)
        space.write(0x1008, 0x11223344, 4)
        assert space.read(0x1008, 4) == 0x11223344
        space.store2(0x1010, 0xBEEF)
        assert space.load2(0x1010) == 0xBEEF
        space.store1(0x1012, 1)
        assert space.load8(0x1018) == 0
        assert list(accesses) == [tag + a for a in (0x1008, 0x1008, 0x1010, 0x1010, 0x1012, 0x1018)]
        assert log == []
        space.write_bytes(0x1100, b"abcdef")
        assert space.read_bytes(0x1100, 4) == b"abcd"
        assert log == [Transfer(tag + 0x1100, 6, True), Transfer(tag + 0x1100, 4, False)]
        with pytest.raises(MemoryFault):
            space.read_bytes(0x1FFC, 8)
        with pytest.raises(MemoryFault):
            space.write_bytes(0x4000, b"x")
        assert len(log) == 2 and len(accesses) == 6
        space.record(None)
        assert type(space) is AddressSpace
        assert not {"_log", "_accesses", "_tag"} & set(vars(space))
        space.write(0x1008, 1, 4)
        space.load4(0x1008)
        space.write_bytes(0x1100, b"z")
        space.read_bytes(0x1100, 1)
        assert len(log) == 2 and len(accesses) == 6


class TestCache:
    def test_geometry(self):
        config = CacheConfig("l1", 32 * 1024, 4, 64)
        assert config.num_lines == 512
        assert config.num_sets == 128

    def test_hit_after_miss(self):
        cache = Cache(CacheConfig("c", 1024, 2, 64))
        miss_latency = cache.access(0x100)
        hit_latency = cache.access(0x100)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert hit_latency < miss_latency

    def test_same_line_is_hit(self):
        cache = Cache(CacheConfig("c", 1024, 2, 64))
        cache.access(0x100)
        cache.access(0x13C)  # same 64-byte line
        assert cache.stats.hits == 1

    def test_lru_eviction(self):
        # one set, 2 ways, 64-byte lines -> addresses 0, 1*64*sets, ... conflict
        config = CacheConfig("c", 128, 2, 64)
        cache = Cache(config)
        assert config.num_sets == 1
        cache.access(0x000)
        cache.access(0x040)
        cache.access(0x080)  # evicts 0x000
        assert cache.stats.evictions == 1
        cache.access(0x000)
        assert cache.stats.misses == 3 + 1

    def test_miss_rate_and_reset(self):
        cache = Cache(CacheConfig("c", 1024, 2, 64))
        cache.access(0)
        cache.access(0)
        assert cache.stats.miss_rate == pytest.approx(0.5)
        cache.reset_stats()
        assert cache.stats.accesses == 0

    def test_flush_forces_miss(self):
        cache = Cache(CacheConfig("c", 1024, 2, 64))
        cache.access(0)
        cache.flush()
        cache.access(0)
        assert cache.stats.misses == 2

    def test_next_level_consulted_on_miss(self):
        l2 = Cache(CacheConfig("l2", 4096, 4, 64))
        l1 = Cache(CacheConfig("l1", 1024, 2, 64), next_level=l2)
        l1.access(0x200)
        assert l2.stats.accesses == 1
        l1.access(0x200)
        assert l2.stats.accesses == 1  # L1 hit does not reach L2

    def test_recording_logs_line_events_with_ordinals_then_stops_cleanly(self):
        cache = Cache(CacheConfig("c", 128, 2, 64))  # one set, two ways
        cache.access(0x000)
        log = array("q")
        cache.record(log)
        assert type(cache) is RecordingCache
        cache.access(0x004)  # 2: slow-path hit on line 0
        cache.access(0x008, write=True)  # 3: same-line fast-path hit, line 0 dirty
        cache.access(0x040)  # 4: miss
        cache.access(0x080)  # 5: miss, evicts dirty line 0
        cache.access(0x0C0)  # 6: miss, evicts clean line 1
        cache.access(0x0C4)  # 7: fast-path hit on line 3
        cache.flush()
        pairs = list(zip(log[0::2], log[1::2]))
        assert pairs == [
            (2, 0 << 2 | HIT),
            (3, 0 << 2 | HIT),
            (5, 0 << 2 | DIRTY_EVICTION),
            (6, 1 << 2 | CLEAN_EVICTION),
            (7, 3 << 2 | HIT),
            (7, FLUSH),
        ]
        events = LineEvents(log)
        assert events.next_event(0, 1) == HIT
        assert events.next_event(0, 3) == DIRTY_EVICTION
        assert events.next_event(1, 4) == CLEAN_EVICTION
        assert events.next_event(3, 6) == HIT
        assert events.next_event(2, 5) == FLUSH  # line 2 is never touched again
        assert events.next_event(3, 7) is None  # a flush at the ordinal itself may precede it
        cache.record(None)
        assert type(cache) is Cache
        assert not hasattr(cache, "_log")
        cache.access(0x000)
        cache.access(0x000)
        cache.flush()
        assert len(log) == 12

    def test_only_a_golden_run_that_draws_cache_faults_records(self):
        scenario = Scenario("IS", "serial", 1, "armv8")
        plain = ScenarioCampaign(scenario, CampaignConfig()).run_golden()
        assert plain.cache_events == {}
        mix = {"gpr": 0.9, "cache": 0.1}
        recorded = ScenarioCampaign(scenario, CampaignConfig(target_mix=mix)).run_golden()
        assert set(recorded.cache_events) == {"core0_l1d", "l2"}
        for log in recorded.cache_events.values():
            assert list(log[0::2]) == sorted(log[0::2])
        assert HIT in {code & 3 for code in recorded.cache_events["core0_l1d"][1::2]}
        # Recording changes nothing the golden run reports.
        assert recorded.total_instructions == plain.total_instructions
        assert recorded.stats == plain.stats
        assert [c.shared_l2 for c in recorded.checkpoints] == [c.shared_l2 for c in plain.checkpoints]


class TestHierarchy:
    def test_paper_configuration(self):
        assert CORTEX_A_CACHE_CONFIG["l1i"].size_bytes == 32 * 1024
        assert CORTEX_A_CACHE_CONFIG["l1d"].associativity == 4
        assert CORTEX_A_CACHE_CONFIG["l2"].size_bytes == 512 * 1024
        assert CORTEX_A_CACHE_CONFIG["l2"].associativity == 8

    def test_shared_l2(self):
        shared = Cache(CORTEX_A_CACHE_CONFIG["l2"])
        a = CacheHierarchy.build(shared_l2=shared)
        b = CacheHierarchy.build(shared_l2=shared)
        a.data_access(0x8000, write=False)
        b.data_access(0x8000, write=False)
        # both L1 misses hit the same shared L2; second one is an L2 hit
        assert shared.stats.accesses == 2
        assert shared.stats.hits == 1

    def test_stats_keys(self):
        hierarchy = CacheHierarchy.build()
        hierarchy.fetch(0x100)
        stats = hierarchy.stats()
        assert "l1i_misses" in stats and "l1d_accesses" in stats
