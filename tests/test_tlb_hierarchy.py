"""Tests for the split TLB hierarchy and page walker."""

import pytest

from repro.core.tft import TranslationFilterTable
from repro.mem.address import PAGE_SIZE_2MB, PageSize
from repro.mem.page_table import PageTable, TranslationFault
from repro.tlb.hierarchy import SplitTLBHierarchy
from repro.tlb.walker import PageWalker

VA_4KB = 0x1000
VA_2MB = 0x4000_0000


@pytest.fixture
def mapped_table(page_table):
    page_table.map(VA_4KB, 0x9000, PageSize.BASE_4KB)
    page_table.map(VA_2MB, 0x20_0000, PageSize.SUPER_2MB)
    return page_table


class TestPageWalker:
    def test_walk_cost_scales_with_levels(self, mapped_table):
        walker = PageWalker(mapped_table, cycles_per_reference=10)
        base = walker.walk(VA_4KB)
        superpage = walker.walk(VA_2MB)
        assert base.latency_cycles == 40
        assert superpage.latency_cycles == 30
        assert base.mapping.page_size is PageSize.BASE_4KB
        assert superpage.mapping.page_size is PageSize.SUPER_2MB

    def test_walk_unmapped_faults(self, page_table):
        walker = PageWalker(page_table)
        with pytest.raises(TranslationFault):
            walker.walk(0xDEAD000)


class TestSplitHierarchy:
    def make(self, table, l2_entries=0):
        return SplitTLBHierarchy(table, l1_4kb_entries=16, l1_2mb_entries=8,
                                 l2_entries=l2_entries)

    def test_first_translation_walks(self, mapped_table):
        tlbs = self.make(mapped_table)
        pa, page_size, latency = tlbs.translate_raw(VA_4KB + 5)
        # An L1 TLB miss, then a four-level walk.
        assert latency == (SplitTLBHierarchy.L1_LATENCY
                           + tlbs.walker.walk(VA_4KB).latency_cycles)
        assert pa == 0x9005
        assert page_size is PageSize.BASE_4KB

    def test_second_translation_hits_l1(self, mapped_table):
        tlbs = self.make(mapped_table)
        tlbs.translate_raw(VA_4KB)
        _, _, latency = tlbs.translate_raw(VA_4KB + 100)
        assert latency == SplitTLBHierarchy.L1_LATENCY

    def test_superpage_goes_to_2mb_tlb(self, mapped_table):
        tlbs = self.make(mapped_table)
        tlbs.translate_raw(VA_2MB + 123)
        assert tlbs.l1_2mb.valid_entry_count() == 1
        assert tlbs.l1_4kb.valid_entry_count() == 0
        _, page_size, latency = tlbs.translate_raw(
            VA_2MB + PAGE_SIZE_2MB - 1)
        assert latency == SplitTLBHierarchy.L1_LATENCY
        assert page_size.is_superpage

    def test_l2_tlb_catches_l1_evictions(self, mapped_table):
        # Map enough base pages to overflow the 16-entry L1.
        for i in range(2, 40):
            mapped_table.map(i << 12, (1000 + i) << 12, PageSize.BASE_4KB)
        tlbs = self.make(mapped_table, l2_entries=512)
        for i in range(2, 40):
            tlbs.translate_raw(i << 12)
        # Page 2 long evicted from L1 but still in the big L2.
        _, _, latency = tlbs.translate_raw(2 << 12)
        assert latency == (SplitTLBHierarchy.L1_LATENCY
                           + SplitTLBHierarchy.L2_LATENCY)

    def test_fill_hook_fires_on_l1_fills(self, mapped_table):
        """Only 2MB L1 fills reach the hierarchy's TFT."""
        tft = TranslationFilterTable()
        tlbs = SplitTLBHierarchy(mapped_table, l1_4kb_entries=16,
                                 l1_2mb_entries=8, tft=tft)
        tlbs.translate_raw(VA_2MB)
        tlbs.translate_raw(VA_4KB)
        assert tft.probe(VA_2MB) and tft.occupancy() == 1

    def test_invalidate_reaches_all_levels(self, mapped_table):
        tlbs = self.make(mapped_table, l2_entries=64)
        tlbs.translate_raw(VA_2MB)
        tlbs.invalidate(VA_2MB, PageSize.SUPER_2MB)
        assert tlbs.l1_2mb.probe(VA_2MB) is None
        assert tlbs.l2_tlb.probe(VA_2MB) is None

    def test_superpage_counters(self, mapped_table):
        """The scheduler's scarcity inputs: the 2MB L1 TLB's capacity and
        its O(1) resident count."""
        tlbs = self.make(mapped_table)
        assert tlbs.l1_2mb.entries == 8
        assert tlbs.l1_2mb._resident == 0
        tlbs.translate_raw(VA_2MB)
        assert tlbs.l1_2mb._resident == 1

    def test_translation_latency_accumulates_on_miss_path(self, mapped_table):
        tlbs = self.make(mapped_table, l2_entries=64)
        _, _, latency = tlbs.translate_raw(VA_4KB)
        # L1 miss + L2 miss + walk.
        assert latency > (SplitTLBHierarchy.L1_LATENCY
                          + SplitTLBHierarchy.L2_LATENCY)

