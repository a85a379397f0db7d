"""Regression tests for the PR 6 cache-model bugfix sweep.

Each test pins one of the four fixed bugs:

1. ``Cache.load_state`` after a JSON round-trip left ``pending`` (and
   ``dirty``) keyed by *strings*, so integer probes never matched and
   restored pending faults could neither propagate nor be masked.
2. Write-allocate misses propagated ``write=True`` down the hierarchy,
   marking the L2 copy of an L1 write-miss dirty — a later L2 eviction
   then wrote back (propagated) a fault that a clean eviction should
   have masked.
3. ``CacheHierarchy.stats()`` never exported L2 counters; the fix
   exports them exactly once (per-hierarchy for a private L2, at the
   SoC level for a shared one — never multiplied by core count).
4. ``CacheHierarchy.flush()`` left the L2 resident, leaking residency
   and pending-fault state across flush boundaries.

Plus guards for the restructured hot path: the single-entry last-line
fast path must never skip a pending-fault propagation or dirty marking.
"""

import json

from repro.memory.cache import Cache, CacheConfig
from repro.memory.hierarchy import CacheHierarchy
from repro.soc.multicore import build_system

#: Tiny geometry: 1 set x 2 ways at L1, 1 set x 4 ways at L2 — evictions
#: are two accesses away, which keeps the write-back scenarios short.
L1 = CacheConfig("l1", 128, 2, 64, hit_latency=1, miss_penalty=10)
L2 = CacheConfig("l2", 256, 4, 64, hit_latency=12, miss_penalty=80)


def _sink_recorder(cache):
    hits = []
    cache.fault_sink = lambda line, byte, bit: hits.append((line, byte, bit))
    return hits


class TestLoadStateJsonRoundTrip:
    def _populated(self):
        cache = Cache(L1)
        cache.access(0x000)
        cache.access(0x040, write=True)  # dirty
        assert cache.inject_resident_fault(0, 5) is not None  # pending on line 0
        return cache

    def test_round_trip_preserves_state_exactly(self):
        cache = self._populated()
        reloaded = Cache(L1)
        reloaded.load_state(json.loads(json.dumps(cache.dump_state())))
        assert reloaded.dump_state() == cache.dump_state()

    def test_restored_pending_fault_propagates_on_hit(self):
        # Before the int-coercion fix the JSON string keys meant the
        # ``line in self._pending`` probe never matched: the restored
        # fault was silently dropped instead of propagating.
        cache = self._populated()
        reloaded = Cache(L1)
        reloaded.load_state(json.loads(json.dumps(cache.dump_state())))
        hits = _sink_recorder(reloaded)
        reloaded.access(0x000)  # hit on the corrupted line consumes the fault
        assert hits == [(0, 0, 5)]
        assert reloaded.dump_state()["pending"] == {}

    def test_restored_dirty_line_writes_back_on_eviction(self):
        cache = Cache(L1)
        cache.access(0x040, write=True)
        assert cache.inject_resident_fault(0, 3) is not None
        reloaded = Cache(L1)
        reloaded.load_state(json.loads(json.dumps(cache.dump_state())))
        hits = _sink_recorder(reloaded)
        reloaded.access(0x000)
        reloaded.access(0x080)  # evicts dirty line 1 -> write-back propagates
        assert hits == [(1, 0, 3)]

    def test_restored_clean_line_masks_on_eviction(self):
        cache = Cache(L1)
        cache.access(0x040)  # clean
        assert cache.inject_resident_fault(0, 3) is not None
        reloaded = Cache(L1)
        reloaded.load_state(json.loads(json.dumps(cache.dump_state())))
        hits = _sink_recorder(reloaded)
        reloaded.access(0x000)
        reloaded.access(0x080)  # evicts clean line 1 -> fault masked
        assert hits == []
        assert reloaded.dump_state()["pending"] == {}


class TestWriteAllocateFillsCleanBelow:
    def test_l1_write_miss_leaves_l2_copy_clean(self):
        l2 = Cache(L2)
        l1 = Cache(L1, next_level=l2)
        l1.access(0x100, write=True)  # L1 write miss -> L1 dirty, L2 fill
        assert l1.is_dirty(0x100)
        assert l2.contains(0x100)
        assert not l2.is_dirty(0x100)  # only the absorbing level is dirty

    def test_l2_clean_eviction_masks_fault_after_l1_write_miss(self):
        # The observable bug: a pending L2 fault on a line filled by an
        # L1 *write* miss used to write back on L2 eviction (the fill
        # had wrongly marked it dirty), turning a masked outcome into a
        # propagated one.
        l2 = Cache(L2)
        l1 = Cache(L1, next_level=l2)
        hits = _sink_recorder(l2)
        l1.access(0x000, write=True)
        line = 0x000 >> 6
        l2._pending.setdefault(line, []).append((0, 7))
        l2._last_line = -1
        # Conflict-fill L2's only set until line 0 is evicted.
        for address in (0x040, 0x080, 0x0C0, 0x100):
            l2.access(address)
        assert not l2.contains(0x000)
        assert hits == []  # clean eviction: the fault is masked
        assert l2.dump_state()["pending"] == {}

    def test_fill_counts_as_read_at_the_next_level(self):
        l2 = Cache(L2)
        l1 = Cache(L1, next_level=l2)
        l1.access(0x100, write=True)
        assert l2.stats.read_accesses == 1
        assert l2.stats.write_accesses == 0


class TestL2StatsExport:
    def test_private_hierarchy_exports_l2(self):
        hierarchy = CacheHierarchy.build()
        hierarchy.fetch(0x100)
        stats = hierarchy.stats()
        assert stats["l2_accesses"] == 1  # the L1i miss filled from L2
        assert "l2_misses" in stats and "l2_hits" in stats

    def test_shared_hierarchies_do_not_multiply_l2(self):
        shared = Cache(L2)
        a = CacheHierarchy.build(shared_l2=shared)
        b = CacheHierarchy.build(shared_l2=shared)
        a.data_access(0x8000, write=False)
        b.data_access(0x8000, write=False)
        # neither per-core view exports the shared L2: summing them at
        # the SoC level must not multiply L2 counters by the core count
        assert not any(key.startswith("l2_") for key in a.stats())
        assert not any(key.startswith("l2_") for key in b.stats())

    def test_soc_exports_shared_l2_exactly_once(self):
        system = build_system("armv8", cores=2, model_caches=True)
        for core in system.cores:
            core.caches.data_access(0x9000, write=False)
        stats = system.cache_stats()
        assert stats["l2_accesses"] == system.shared_l2.stats.accesses == 2
        assert stats["l2_hits"] == 1
        # per-core keys carry no L2 counters (that's the double count)
        assert not any("_l2_" in key for key in stats)


class TestFlushCompleteness:
    def test_private_hierarchy_flush_covers_l2(self):
        hierarchy = CacheHierarchy.build()
        hierarchy.fetch(0x100)
        hierarchy.data_access(0x200, write=True)
        assert hierarchy.l2.resident_lines()
        hierarchy.flush()
        assert not hierarchy.l1i.resident_lines()
        assert not hierarchy.l1d.resident_lines()
        assert not hierarchy.l2.resident_lines()  # used to leak residency

    def test_shared_hierarchy_flush_leaves_l2_for_the_soc(self):
        shared = Cache(L2)
        a = CacheHierarchy.build(shared_l2=shared)
        b = CacheHierarchy.build(shared_l2=shared)
        a.data_access(0x8000, write=False)
        a.flush()  # per-core flush: the shared L2 belongs to the SoC
        assert not a.l1d.resident_lines()
        assert shared.resident_lines()
        b.data_access(0x8000, write=False)
        assert shared.stats.hits == 1  # still resident for the other core

    def test_soc_flush_caches_flushes_shared_l2_once(self):
        system = build_system("armv8", cores=2, model_caches=True)
        for core in system.cores:
            core.caches.fetch(0x100)
            core.caches.data_access(0x200, write=True)
        assert system.shared_l2.resident_lines()
        system.shared_l2._pending[999] = [(0, 0)]
        system.flush_caches()
        for core in system.cores:
            assert not core.caches.l1i.resident_lines()
            assert not core.caches.l1d.resident_lines()
        assert not system.shared_l2.resident_lines()
        assert system.shared_l2.dump_state()["pending"] == {}


class TestLastLineFastPath:
    def test_repeated_access_stays_exact(self):
        cache = Cache(L1)
        cache.access(0x000)
        for _ in range(3):
            cache.access(0x020)  # same line: fast path
        assert cache.stats.hits == 3
        assert cache.stats.misses == 1
        assert cache.stats.read_accesses == 4

    def test_fast_path_write_marks_dirty(self):
        cache = Cache(L1)
        cache.access(0x000)
        cache.access(0x000, write=True)  # fast path must still set dirty
        assert cache.is_dirty(0x000)
        assert cache.stats.write_accesses == 1

    def test_fast_path_never_skips_pending_propagation(self):
        # inject_resident_fault must reset the last-line guarantee:
        # otherwise the very next access to the same line would take the
        # fast path and skip consuming the pending fault.
        cache = Cache(L1)
        hits = _sink_recorder(cache)
        cache.access(0x000)
        assert cache.inject_resident_fault(0, 4) is not None
        cache.access(0x000)
        assert hits == [(0, 0, 4)]

    def test_dump_state_keeps_lru_order(self):
        cache = Cache(L1)  # one set, two ways
        cache.access(0x000)
        cache.access(0x040)
        cache.access(0x000)  # re-reference: line 0 becomes MRU
        assert cache.dump_state()["sets"][0] == [1, 0]  # LRU first
        cache.access(0x080)  # evicts line 1, the true LRU
        assert not cache.contains(0x040)
        assert cache.contains(0x000)
