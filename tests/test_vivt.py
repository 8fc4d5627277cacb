"""Tests for the VIVT L1 comparator and its synonym handling."""

import pytest

from repro.cache.vivt import VivtL1Cache
from repro.mem.address import PageSize
from repro.sim.config import SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.suite import build_trace, get_workload

#: two virtual aliases of one physical line (a synonym pair).
VA_A = 0x10_0000
VA_B = 0x55_0000
PA = 0x9_0040


def make_cache():
    return VivtL1Cache(32 * 1024, ways=4, hit_cycles=1)


class TestBasic:
    def test_unconstrained_geometry(self):
        cache = VivtL1Cache(128 * 1024, ways=4, hit_cycles=2)
        assert cache.store.num_sets == 512     # beyond the VIPT limit

    def test_hit_by_virtual_address_without_translation(self):
        cache = make_cache()
        cache.fill(VA_A, PA, PageSize.BASE_4KB)
        hit, latency, *_ = cache.access_raw(VA_A, PA, PageSize.BASE_4KB)
        assert hit
        assert latency == 1                    # no TLB on the hit path

    def test_miss_for_unmapped(self):
        cache = make_cache()
        assert not cache.access_raw(VA_A, PA, PageSize.BASE_4KB)[0]


class TestSynonyms:
    def test_two_aliases_can_coexist(self):
        cache = make_cache()
        cache.fill(VA_A, PA, PageSize.BASE_4KB)
        cache.fill(VA_B, PA, PageSize.BASE_4KB)
        assert cache.access_raw(VA_A, PA, PageSize.BASE_4KB)[0]
        assert cache.access_raw(VA_B, PA, PageSize.BASE_4KB)[0]

    def test_store_invalidates_other_alias(self):
        """The synonym problem: a store through one alias must kill the
        other cached copy or a later load reads stale data."""
        cache = make_cache()
        cache.fill(VA_A, PA, PageSize.BASE_4KB)
        cache.fill(VA_B, PA, PageSize.BASE_4KB)
        hit, _, ways_probed, *_ = cache.access_raw(
            VA_A, PA, PageSize.BASE_4KB, is_write=True)
        assert hit
        # One alias fixed up: one extra set probe charged.
        assert ways_probed == 2 * cache.ways
        assert not cache.access_raw(VA_B, PA, PageSize.BASE_4KB)[0]

    def test_store_without_aliases_is_cheap(self):
        cache = make_cache()
        cache.fill(VA_A, PA, PageSize.BASE_4KB)
        _, _, ways_probed, *_ = cache.access_raw(
            VA_A, PA, PageSize.BASE_4KB, is_write=True)
        assert ways_probed == cache.ways


class TestCoherence:
    def test_probe_finds_line_through_reverse_map(self):
        cache = make_cache()
        cache.fill(VA_A, PA, PageSize.BASE_4KB, dirty=True)
        result = cache.coherence_probe(PA)
        assert result.present and result.dirty

    def test_invalidating_probe_kills_all_aliases(self):
        cache = make_cache()
        cache.fill(VA_A, PA, PageSize.BASE_4KB)
        cache.fill(VA_B, PA, PageSize.BASE_4KB)
        result = cache.coherence_probe(PA, invalidate=True)
        assert result.present
        assert not cache.access_raw(VA_A, PA, PageSize.BASE_4KB)[0]
        assert not cache.access_raw(VA_B, PA, PageSize.BASE_4KB)[0]

    def test_probe_cost_scales_with_alias_count(self):
        cache = make_cache()
        cache.fill(VA_A, PA, PageSize.BASE_4KB)
        cache.fill(VA_B, PA, PageSize.BASE_4KB)
        result = cache.coherence_probe(PA)
        assert result.ways_probed == 2 * cache.ways

    def test_probe_absent_line(self):
        cache = make_cache()
        result = cache.coherence_probe(PA)
        assert not result.present


class TestFlush:
    def test_context_switch_flush_drops_everything(self):
        cache = make_cache()
        cache.fill(VA_A, PA, PageSize.BASE_4KB)
        cache.fill(VA_B + 64, PA + 4096, PageSize.BASE_4KB)
        dropped = cache.flush()
        assert dropped == 2
        assert cache.store.valid_lines() == 0
        assert not cache.coherence_probe(PA).present


class TestEvictionConsistency:
    def test_reverse_map_cleaned_on_conflict_eviction(self):
        cache = VivtL1Cache(32 * 1024, ways=1, hit_cycles=1)
        stride = cache.store.num_sets * 64
        cache.fill(VA_A, PA, PageSize.BASE_4KB)
        # Same set, different virtual line: evicts VA_A's line.
        conflict_va = VA_A + stride
        cache.fill(conflict_va, PA + 8192, PageSize.BASE_4KB)
        cache._drop_mapping(cache.store.line_address(VA_A))
        result = cache.coherence_probe(PA)
        assert not result.present or result.ways_probed >= cache.ways

    def test_fill_returns_the_victims_physical_line(self):
        """The store evicts a virtual line; the LLC and the fabric must
        hear of the physical line it cached."""
        cache = VivtL1Cache(32 * 1024, ways=1, hit_cycles=1)
        stride = cache.store.num_sets * 64
        assert cache.fill(VA_A, PA, PageSize.BASE_4KB, dirty=True) is None
        victim = cache.fill(VA_A + stride, PA + 8192, PageSize.BASE_4KB)
        assert victim == (PA & ~63, True)
        assert not cache.coherence_probe(PA).present

    def test_multicore_run_writes_back_and_evicts_physical_lines(self):
        trace = build_trace(get_workload("g500"), length=20_000, seed=42)
        sim = SystemSimulator(SystemConfig(l1_design="vivt", seed=42),
                              trace)
        assert sim.num_cores > 1
        written, evicted = [], []
        writeback, evict = sim.hierarchy.writeback, sim.fabric.evict

        def record_writeback(line):
            written.append(line)
            writeback(line)

        def record_evict(core, line):
            evicted.append(line)
            evict(core, line)

        sim.hierarchy.writeback = record_writeback
        sim.fabric.evict = record_evict
        sim.run()
        assert written and evicted
        limit = sim.physical.total_bytes
        assert max(written) < limit and max(evicted) < limit
