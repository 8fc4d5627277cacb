"""Tests for the Translation Filter Table."""

import pytest

from repro.core.tft import TranslationFilterTable
from repro.mem.address import PAGE_SIZE_2MB


def region_va(region: int, offset: int = 0) -> int:
    return region * PAGE_SIZE_2MB + offset


class TestStructure:
    def test_paper_sizing_16_entries_86_bytes(self):
        tft = TranslationFilterTable(entries=16)
        assert tft.TAG_BITS == 43
        assert tft.storage_bytes == 86.0   # paper §IV-A2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TranslationFilterTable(entries=0)


class TestLookupFill:
    def test_miss_before_fill_hit_after(self):
        tft = TranslationFilterTable(16)
        va = region_va(5, 0x1234)
        assert not tft.lookup(va)
        tft.fill(va)
        assert tft.lookup(region_va(5, 0x9999))
        assert tft.stats.hits == 1 and tft.stats.misses == 1

    def test_never_false_positive_across_regions(self):
        tft = TranslationFilterTable(16)
        tft.fill(region_va(5))
        # Region 21 hashes to the same slot (21 mod 16 = 5) but must miss.
        assert not tft.lookup(region_va(21))

    def test_direct_mapped_conflict_eviction(self):
        tft = TranslationFilterTable(16)
        tft.fill(region_va(5))
        tft.fill(region_va(21))      # same slot: evicts region 5
        assert not tft.probe(region_va(5))
        assert tft.probe(region_va(21))

    def test_slot_is_region_mod_entries_for_12_entries(self):
        """Fig. 13's 12-entry point: not a power of two, so the slot is a
        true modulus, not a bit mask."""
        tft = TranslationFilterTable(12)
        tft.fill(region_va(5))
        tft.fill(region_va(21))      # 21 mod 12 = 9: no conflict
        assert tft.probe(region_va(5)) and tft.probe(region_va(21))
        tft.fill(region_va(17))      # 17 mod 12 = 5: evicts region 5
        assert not tft.probe(region_va(5))
        assert tft.probe(region_va(17)) and tft.probe(region_va(21))

    def test_16_consecutive_regions_coexist(self):
        """Contiguous heaps do not self-conflict under the mod hash."""
        tft = TranslationFilterTable(16)
        for region in range(100, 116):
            tft.fill(region_va(region))
        assert all(tft.probe(region_va(r)) for r in range(100, 116))

    def test_probe_has_no_stats_side_effect(self):
        tft = TranslationFilterTable(16)
        tft.probe(region_va(1))
        assert tft.stats.lookups == 0


class TestInvalidation:
    def test_invalidate_on_splinter(self):
        tft = TranslationFilterTable(16)
        tft.fill(region_va(7))
        assert tft.invalidate(region_va(7, 123))
        assert not tft.probe(region_va(7))

    def test_invalidate_wrong_region_is_noop(self):
        tft = TranslationFilterTable(16)
        tft.fill(region_va(7))
        assert not tft.invalidate(region_va(8))
        assert tft.probe(region_va(7))

    def test_flush_on_context_switch(self):
        tft = TranslationFilterTable(16)
        for region in range(4):
            tft.fill(region_va(region))
        tft.flush()
        assert tft.occupancy() == 0
        assert not any(tft.probe(region_va(region)) for region in range(4))


class TestOccupancy:
    def test_occupancy_counts_valid_slots(self):
        tft = TranslationFilterTable(16)
        tft.fill(region_va(0))
        tft.fill(region_va(1))
        tft.fill(region_va(16))   # conflicts with region 0: still 2 valid
        assert tft.occupancy() == 2

    def test_hit_rate(self):
        tft = TranslationFilterTable(16)
        tft.fill(region_va(3))
        tft.lookup(region_va(3))
        tft.lookup(region_va(4))
        assert tft.stats.hit_rate == pytest.approx(0.5)
