"""Tests for the transparent-huge-page OS policy layer."""

import pytest

from repro.mem.address import PAGE_SIZE_2MB, PAGE_SIZE_4KB, PageSize
from repro.mem.fragmentation import fragment_memory
from repro.mem.os_policy import MemoryManager, THPPolicy
from repro.mem.physical import PhysicalMemory

VA = 0x4000_0000  # 2MB aligned


class Recorder:
    """Stands in for a TLB hierarchy (``invalidate``) and a swept L1
    (``on_region_promoted``), logging each call's arguments."""

    def __init__(self):
        self.invalidated = []
        self.promoted = []

    def invalidate(self, virtual_base, page_size):
        self.invalidated.append((virtual_base, page_size))

    def on_region_promoted(self, virtual_base, old_physical_bases):
        self.promoted.append((virtual_base, len(old_physical_bases)))


class TestTouch:
    def test_first_touch_allocates_superpage_under_thp_always(
            self, memory_manager):
        mapping = memory_manager.touch(VA + 123)
        assert mapping.page_size is PageSize.SUPER_2MB
        assert memory_manager.page_table.page_size_of(VA) \
            is PageSize.SUPER_2MB

    def test_touch_is_idempotent(self, memory_manager):
        first = memory_manager.touch(VA)
        second = memory_manager.touch(VA + 999)
        assert first == second
        assert len(memory_manager.page_table) == 1

    def test_thp_never_uses_base_pages(self, physical_memory):
        manager = MemoryManager(physical_memory, thp_policy=THPPolicy.NEVER)
        mapping = manager.touch(VA)
        assert mapping.page_size is PageSize.BASE_4KB
        assert manager.page_table.page_size_of(VA) is PageSize.BASE_4KB
        assert not manager.page_table.is_mapped(VA + PAGE_SIZE_4KB)

    def test_fallback_to_base_page_when_fragmented(self):
        memory = PhysicalMemory(32 * 1024 * 1024)
        fragment_memory(memory, 0.6, seed=3)
        manager = MemoryManager(memory, thp_policy=THPPolicy.ALWAYS)
        # Touch more regions than there are free 2MB blocks: once they run
        # out, the OS falls back to base pages (the Fig. 3 mechanism).
        free_blocks = memory.allocator.available_blocks_at_or_above(9)
        mappings = [manager.touch(VA + i * PAGE_SIZE_2MB)
                    for i in range(free_blocks + 3)]
        assert any(m.page_size is PageSize.BASE_4KB for m in mappings)
        assert any(m.page_size is PageSize.SUPER_2MB for m in mappings)
        sizes = [manager.page_table.page_size_of(VA + i * PAGE_SIZE_2MB)
                 for i in range(free_blocks + 3)]
        assert sizes.count(PageSize.SUPER_2MB) <= free_blocks
        assert PageSize.BASE_4KB in sizes

    def test_region_with_existing_base_page_never_gets_superpage(
            self, memory_manager):
        # Force a base page into the region first.
        memory_manager.thp_policy = THPPolicy.NEVER
        memory_manager.touch(VA)
        memory_manager.thp_policy = THPPolicy.ALWAYS
        mapping = memory_manager.touch(VA + PAGE_SIZE_4KB)
        assert mapping.page_size is PageSize.BASE_4KB


def superpage_fraction(manager) -> float:
    """Fraction of the mapped bytes backed by 2MB superpages."""
    sizes = [(int(m.page_size), m.is_superpage)
             for m in manager.page_table.mappings()]
    total = sum(size for size, _ in sizes)
    return (sum(size for size, is_super in sizes if is_super) / total
            if total else 0.0)


class TestFootprintFraction:
    def test_all_superpages_gives_fraction_one(self, memory_manager):
        for i in range(4):
            memory_manager.touch(VA + i * PAGE_SIZE_2MB)
        assert superpage_fraction(memory_manager) == 1.0

    def test_mixed_fraction(self, memory_manager):
        memory_manager.touch(VA)  # superpage
        memory_manager.thp_policy = THPPolicy.NEVER
        memory_manager.touch(VA + PAGE_SIZE_2MB)  # one base page
        fraction = superpage_fraction(memory_manager)
        expected = PAGE_SIZE_2MB / (PAGE_SIZE_2MB + PAGE_SIZE_4KB)
        assert fraction == pytest.approx(expected)

    def test_empty_footprint_is_zero(self, memory_manager):
        assert superpage_fraction(memory_manager) == 0.0


class TestSplinterAndPromotion:
    def test_splinter_fires_invalidation_hook(self, memory_manager):
        tlbs = Recorder()
        memory_manager.tlbs = [tlbs]
        memory_manager.touch(VA)
        memory_manager.splinter_superpage(VA)
        assert (VA, PageSize.SUPER_2MB) in tlbs.invalidated
        assert memory_manager.page_table.page_size_of(VA) is PageSize.BASE_4KB

    def test_splinter_preserves_translation(self, memory_manager):
        memory_manager.touch(VA)
        pa_before = memory_manager.page_table.translate(VA + 777)
        memory_manager.splinter_superpage(VA)
        assert memory_manager.page_table.translate(VA + 777) == pa_before

    def test_promote_region_after_splinter(self, memory_manager):
        memory_manager.touch(VA)
        memory_manager.splinter_superpage(VA)
        mapping = memory_manager.promote_region(VA)
        assert mapping is not None
        assert mapping.page_size is PageSize.SUPER_2MB
        assert memory_manager.page_table.page_size_of(VA) \
            is PageSize.SUPER_2MB

    def test_promote_fires_promotion_hook_with_old_frames(
            self, memory_manager):
        cache = Recorder()
        memory_manager.swept_caches = [cache]
        memory_manager.touch(VA)
        memory_manager.splinter_superpage(VA)
        memory_manager.promote_region(VA)
        assert cache.promoted == [(VA, 512)]

    def test_promote_fires_invalidations_for_base_pages(self, memory_manager):
        memory_manager.touch(VA)
        memory_manager.splinter_superpage(VA)
        tlbs = [Recorder(), Recorder()]
        memory_manager.tlbs = tlbs
        memory_manager.promote_region(VA)
        for recorder in tlbs:
            sizes = [size for _, size in recorder.invalidated]
            assert sizes.count(PageSize.BASE_4KB) == 512

    def test_promote_non_resident_region_returns_none(self, memory_manager):
        assert memory_manager.promote_region(VA) is None

    def test_promote_already_superpage_returns_none(self, memory_manager):
        memory_manager.touch(VA)
        assert memory_manager.promote_region(VA) is None

    def test_promote_frees_old_frames(self, memory_manager):
        free_before = memory_manager.physical.free_bytes
        memory_manager.touch(VA)
        memory_manager.splinter_superpage(VA)
        memory_manager.promote_region(VA)
        # One 2MB page resident; 512 old frames freed.
        assert (free_before - memory_manager.physical.free_bytes
                == PAGE_SIZE_2MB)

    def test_region_can_get_superpage_again_after_promotion(
            self, memory_manager):
        """Promotion must clear the 'broken region' fast-path marker."""
        memory_manager.thp_policy = THPPolicy.NEVER
        for offset in range(0, PAGE_SIZE_2MB, PAGE_SIZE_4KB):
            memory_manager.touch(VA + offset)
        memory_manager.thp_policy = THPPolicy.ALWAYS
        assert memory_manager.promote_region(VA) is not None
        table = memory_manager.page_table
        assert table.page_size_of(VA) is PageSize.SUPER_2MB
