"""Tests for the buddy allocator and physical memory."""

import pytest

from repro.mem.address import PAGE_SIZE_2MB, PAGE_SIZE_4KB, PageSize
from repro.mem.physical import (
    ORDER_2MB,
    BuddyAllocator,
    OutOfMemoryError,
    PhysicalMemory,
    order_for_page_size,
)


class TestOrders:
    def test_order_for_page_sizes(self):
        assert order_for_page_size(PageSize.BASE_4KB) == 0
        assert order_for_page_size(PageSize.SUPER_2MB) == 9
        assert order_for_page_size(PageSize.SUPER_1GB) == 18

    def test_order_2mb_constant(self):
        assert 1 << ORDER_2MB == PAGE_SIZE_2MB // PAGE_SIZE_4KB


class TestBuddyAllocator:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            BuddyAllocator(0)
        with pytest.raises(ValueError):
            BuddyAllocator(PAGE_SIZE_4KB + 1)

    def test_allocation_is_aligned_to_order(self):
        buddy = BuddyAllocator(16 * 1024 * 1024)
        for order in (0, 3, 9):
            frame = buddy.allocate(order)
            assert frame % (1 << order) == 0
            buddy.free(frame)

    def test_allocate_free_round_trip_restores_capacity(self):
        buddy = BuddyAllocator(4 * 1024 * 1024)
        before = buddy.free_frames()
        frames = [buddy.allocate(0) for _ in range(100)]
        assert buddy.free_frames() == before - 100
        for frame in frames:
            buddy.free(frame)
        assert buddy.free_frames() == before

    def test_coalescing_rebuilds_large_blocks(self):
        buddy = BuddyAllocator(2 * PAGE_SIZE_2MB)
        frames = [buddy.allocate(0) for _ in range(1024)]
        assert buddy.available_blocks_at_or_above(ORDER_2MB) == 0
        for frame in frames:
            buddy.free(frame)
        assert buddy.available_blocks_at_or_above(ORDER_2MB) == 2

    def test_exhaustion_raises(self):
        buddy = BuddyAllocator(4 * PAGE_SIZE_4KB)
        for _ in range(4):
            buddy.allocate(0)
        with pytest.raises(OutOfMemoryError):
            buddy.allocate(0)
        assert buddy.free_frames() == 0

    def test_try_allocate_returns_none_instead(self):
        buddy = BuddyAllocator(PAGE_SIZE_4KB)
        assert buddy.try_allocate(0) is not None
        assert buddy.try_allocate(0) is None

    def test_double_free_detected(self):
        buddy = BuddyAllocator(1024 * 1024)
        frame = buddy.allocate(0)
        buddy.free(frame)
        with pytest.raises(ValueError):
            buddy.free(frame)

    def test_free_of_unallocated_frame_rejected(self):
        buddy = BuddyAllocator(1024 * 1024)
        with pytest.raises(ValueError):
            buddy.free(7)

    def test_split_counts_recorded(self):
        """One frame from a lone 2MB block splits it all the way down,
        leaving a free buddy at every lower order."""
        buddy = BuddyAllocator(PAGE_SIZE_2MB)
        buddy.allocate(0)
        assert buddy.free_frames() == 511
        assert buddy.largest_free_order() == ORDER_2MB - 1
        assert buddy.available_blocks_at_or_above(ORDER_2MB - 1) == 1

    def test_pinned_small_block_prevents_2mb_coalescing(self):
        """The fragmentation mechanism behind Fig. 3: one resident 4KB
        allocation poisons its entire 2MB region."""
        buddy = BuddyAllocator(PAGE_SIZE_2MB)
        frames = [buddy.allocate(0) for _ in range(512)]
        keeper = frames.pop(256)
        for frame in frames:
            buddy.free(frame)
        assert buddy.available_blocks_at_or_above(ORDER_2MB) == 0
        buddy.free(keeper)
        assert buddy.available_blocks_at_or_above(ORDER_2MB) == 1

    def test_fragmentation_index(self):
        buddy = BuddyAllocator(2 * PAGE_SIZE_2MB)
        assert buddy.fragmentation_index() == 0.0
        frames = [buddy.allocate(0) for _ in range(1024)]
        for frame in frames[1::2]:
            buddy.free(frame)
        # Half the memory is free but none of it usable at 2MB granularity.
        assert buddy.fragmentation_index() == pytest.approx(1.0)

    def test_largest_free_order(self):
        buddy = BuddyAllocator(PAGE_SIZE_2MB)
        assert buddy.largest_free_order() == ORDER_2MB
        frames = [buddy.allocate(0) for _ in range(512)]
        assert buddy.largest_free_order() == -1
        buddy.free(frames[0])
        assert buddy.largest_free_order() == 0


class TestPhysicalMemory:
    def test_allocate_page_returns_aligned_base(self):
        memory = PhysicalMemory(16 * 1024 * 1024)
        base = memory.allocate_page(PageSize.SUPER_2MB)
        assert base is not None and base % PAGE_SIZE_2MB == 0

    def test_allocate_page_none_when_fragmented(self):
        memory = PhysicalMemory(PAGE_SIZE_2MB)
        bases = []
        while True:
            base = memory.allocate_page(PageSize.BASE_4KB)
            if base is None:
                break
            bases.append(base)
        assert memory.allocate_page(PageSize.SUPER_2MB) is None
        # Free all but one base page: still no superpage possible.
        for base in bases[:-1]:
            memory.free_page(base)
        assert memory.allocate_page(PageSize.SUPER_2MB) is None

    def test_free_page_rejects_misaligned(self):
        memory = PhysicalMemory(1024 * 1024)
        with pytest.raises(ValueError):
            memory.free_page(123)

    def test_free_bytes_and_can_allocate_superpage(self):
        memory = PhysicalMemory(4 * 1024 * 1024)
        assert memory.free_bytes == 4 * 1024 * 1024
        assert memory.can_allocate_superpage()
        memory.allocate_page(PageSize.SUPER_2MB)
        memory.allocate_page(PageSize.SUPER_2MB)
        assert not memory.can_allocate_superpage()
