"""Tests for the baseline VIPT and PIPT L1 frontends."""

import pytest

from repro.cache.pipt import PiptL1Cache
from repro.cache.vipt import L1Timing, ViptL1Cache
from repro.mem.address import PageSize


class TestViptGeometry:
    def test_vipt_constraint_fixes_64_sets(self, timing_32kb):
        # Paper §I: 12-bit offset, 64B lines -> at most 64 sets; capacity
        # grows only through associativity.
        for size_kb, ways in [(32, 8), (64, 16), (128, 32)]:
            cache = ViptL1Cache(size_kb * 1024, timing_32kb)
            assert cache.store.num_sets == 64
            assert cache.ways == ways

    def test_too_small_rejected(self, timing_32kb):
        with pytest.raises(ValueError):
            ViptL1Cache(2048, timing_32kb)


class TestViptAccess:
    def test_all_ways_probed_every_access(self, timing_32kb):
        cache = ViptL1Cache(32 * 1024, timing_32kb)
        hit, latency, ways_probed, *_ = cache.access_raw(
            0x1000, 0x1000, PageSize.BASE_4KB)
        assert ways_probed == 8
        assert latency == 2
        assert not hit

    def test_hit_after_fill(self, timing_32kb):
        cache = ViptL1Cache(32 * 1024, timing_32kb)
        cache.fill(0x9000, PageSize.BASE_4KB)
        hit, *_ = cache.access_raw(0x1000, 0x9000, PageSize.BASE_4KB)
        assert hit

    def test_latency_identical_for_all_page_sizes(self, timing_32kb):
        # Baseline VIPT cannot exploit superpages.
        cache = ViptL1Cache(32 * 1024, timing_32kb)
        _, base, *_ = cache.access_raw(0x1000, 0x1000, PageSize.BASE_4KB)
        _, superpage, *_ = cache.access_raw(0x40000000, 0x200000,
                                            PageSize.SUPER_2MB)
        assert base == superpage

    def test_miss_detect_at_tag_path(self, timing_32kb):
        cache = ViptL1Cache(32 * 1024, timing_32kb)
        *_, miss_detect = cache.access_raw(0x1000, 0x1000, PageSize.BASE_4KB)
        assert miss_detect == timing_32kb.miss_detect_cycles()
        assert 1 <= miss_detect <= timing_32kb.base_hit_cycles


class TestViptCoherence:
    def test_coherence_probe_pays_full_associativity(self, timing_32kb):
        cache = ViptL1Cache(32 * 1024, timing_32kb)
        cache.fill(0x9000, PageSize.BASE_4KB, dirty=True)
        result = cache.coherence_probe(0x9000)
        assert result.present and result.dirty
        assert result.ways_probed == 8

    def test_coherence_invalidation(self, timing_32kb):
        cache = ViptL1Cache(32 * 1024, timing_32kb)
        cache.fill(0x9000, PageSize.BASE_4KB)
        result = cache.coherence_probe(0x9000, invalidate=True)
        assert result.present
        assert not cache.coherence_probe(0x9000).present

    def test_probe_absent_line(self, timing_32kb):
        cache = ViptL1Cache(32 * 1024, timing_32kb)
        assert not cache.coherence_probe(0x9000).present


class TestPipt:
    def test_free_choice_of_ways(self):
        cache = PiptL1Cache(128 * 1024, ways=4, hit_cycles=3)
        assert cache.ways == 4
        assert cache.store.num_sets == 512   # beyond the VIPT limit

    def test_tlb_latency_serialized(self):
        cache = PiptL1Cache(32 * 1024, ways=4, hit_cycles=2, tlb_latency=2)
        _, latency, *_, miss_detect = cache.access_raw(
            0x1000, 0x1000, PageSize.BASE_4KB)
        assert latency == 4
        # Miss detection waits for the serialized TLB plus the tag path.
        assert miss_detect == 2 + cache.timing.miss_detect_cycles()

    def test_hit_after_fill(self):
        cache = PiptL1Cache(32 * 1024, ways=4, hit_cycles=2)
        cache.fill(0x9000, PageSize.BASE_4KB)
        assert cache.access_raw(0x0, 0x9000, PageSize.BASE_4KB)[0]

    def test_coherence_probe(self):
        cache = PiptL1Cache(32 * 1024, ways=4, hit_cycles=2)
        cache.fill(0x9000, PageSize.BASE_4KB, dirty=True)
        result = cache.coherence_probe(0x9000, invalidate=True)
        assert result.present and result.dirty
        assert result.ways_probed == 4
        assert not cache.store.contains(0x9000)
