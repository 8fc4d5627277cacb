"""Tests for the TLB structure."""

import pytest

from repro.mem.address import PageSize
from repro.tlb.tlb import TLB


def fill_va(tlb, va, pa, size=PageSize.BASE_4KB):
    """Helper: fill a TLB from byte addresses."""
    return tlb.fill(va >> size.offset_bits, pa >> size.offset_bits, size)


class TestConstruction:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TLB(entries=0, ways=1, page_sizes=[PageSize.BASE_4KB])
        with pytest.raises(ValueError):
            TLB(entries=10, ways=4, page_sizes=[PageSize.BASE_4KB])
        with pytest.raises(ValueError):
            TLB(entries=16, ways=4, page_sizes=[])

    def test_fully_associative_when_ways_equal_entries(self):
        tlb = TLB(entries=8, ways=8, page_sizes=[PageSize.BASE_4KB])
        assert tlb.num_sets == 1


class TestLookup:
    def test_hit_after_fill(self):
        tlb = TLB(16, 4, [PageSize.BASE_4KB])
        fill_va(tlb, 0x1000, 0x9000)
        entry = tlb.lookup(0x1FFF)
        assert entry is not None
        assert entry.physical_base() == 0x9000
        assert tlb.stats.hits == 1

    def test_miss_records_stats(self):
        tlb = TLB(16, 4, [PageSize.BASE_4KB])
        assert tlb.lookup(0x1000) is None
        assert tlb.stats.misses == 1

    def test_multi_size_tlb_finds_superpage(self):
        tlb = TLB(16, 16, [PageSize.BASE_4KB, PageSize.SUPER_2MB])
        fill_va(tlb, 0x40000000, 0x200000, PageSize.SUPER_2MB)
        entry = tlb.lookup(0x40000000 + 12345)
        assert entry is not None
        assert entry.page_size is PageSize.SUPER_2MB

    def test_probe_has_no_side_effects(self):
        tlb = TLB(16, 4, [PageSize.BASE_4KB])
        fill_va(tlb, 0x1000, 0x9000)
        tlb.probe(0x1000)
        tlb.probe(0x555000)
        assert tlb.stats.hits == 0 and tlb.stats.misses == 0

    def test_contains(self):
        tlb = TLB(16, 4, [PageSize.BASE_4KB])
        fill_va(tlb, 0x1000, 0x9000)
        assert 0x1000 in tlb
        assert 0x2000 not in tlb

    def test_fill_rejects_unsupported_size(self):
        tlb = TLB(16, 4, [PageSize.BASE_4KB])
        with pytest.raises(ValueError):
            tlb.fill(0x200, 0x100, PageSize.SUPER_2MB)


class TestReplacement:
    def test_lru_eviction_within_set(self):
        tlb = TLB(entries=4, ways=4, page_sizes=[PageSize.BASE_4KB])
        for vpn in range(4):
            tlb.fill(vpn, 100 + vpn, PageSize.BASE_4KB)
        # Touch vpn 0 so it is MRU; fill a 5th entry -> vpn 1 evicted.
        tlb.lookup(0)
        victim = tlb.fill(10, 200, PageSize.BASE_4KB)
        assert victim is not None and victim.virtual_page == 1
        assert tlb.probe(0) is not None

    def test_refill_updates_in_place(self):
        tlb = TLB(4, 4, [PageSize.BASE_4KB])
        tlb.fill(1, 10, PageSize.BASE_4KB)
        victim = tlb.fill(1, 20, PageSize.BASE_4KB)
        assert victim is None
        assert tlb.probe(0x1000).physical_page == 20
        assert tlb.valid_entry_count() == 1


class TestInvalidation:
    def test_invalidate_specific_page(self):
        tlb = TLB(16, 4, [PageSize.SUPER_2MB])
        fill_va(tlb, 0x40000000, 0x200000, PageSize.SUPER_2MB)
        assert tlb.invalidate(0x40000000, PageSize.SUPER_2MB)
        assert tlb.probe(0x40000000) is None
        assert not tlb.invalidate(0x40000000, PageSize.SUPER_2MB)

    def test_flush_all(self):
        tlb = TLB(16, 4, [PageSize.BASE_4KB])
        for vpn in range(8):
            tlb.fill(vpn, vpn, PageSize.BASE_4KB)
        removed = tlb.flush()
        assert removed == 8
        assert tlb.valid_entry_count() == 0


class TestValidCounters:
    def test_valid_entry_count_tracks_fills_and_evictions(self):
        """The O(1) counter drives the scheduler scarcity check (§IV-B3)."""
        tlb = TLB(entries=4, ways=4, page_sizes=[PageSize.SUPER_2MB])
        assert tlb.valid_entry_count(PageSize.SUPER_2MB) == 0
        for vpn in range(6):  # 2 evictions
            tlb.fill(vpn, vpn, PageSize.SUPER_2MB)
        assert tlb.valid_entry_count(PageSize.SUPER_2MB) == 4

    def test_counter_matches_slow_scan(self):
        tlb = TLB(16, 4, [PageSize.BASE_4KB])
        for vpn in range(11):
            tlb.fill(vpn, vpn, PageSize.BASE_4KB)
        tlb.invalidate(3 << 12, PageSize.BASE_4KB)
        scan = sum(len(entries) for entries in tlb._sets)
        assert tlb.valid_entry_count() == scan

    def test_hit_rate_stat(self):
        tlb = TLB(8, 4, [PageSize.BASE_4KB])
        tlb.fill(0, 0, PageSize.BASE_4KB)
        tlb.lookup(0)
        tlb.lookup(0x10000)
        assert tlb.stats.hit_rate == pytest.approx(0.5)
