"""Physical memory modeled as a buddy allocator over 4KB frames.

The OS's ability to create 2MB superpages depends on finding 2MB of
*physically contiguous, aligned* free memory.  A binary buddy allocator is
how Linux actually manages frames, and it reproduces the fragmentation
behaviour the paper measures in Fig. 3: random small allocations split
high-order blocks, and once enough order-9 (2MB) blocks are gone the OS can
no longer back new regions with superpages.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.mem.address import PAGE_SIZE_4KB, PAGE_SIZE_2MB, PageSize, is_aligned


class OutOfMemoryError(Exception):
    """Raised when an allocation cannot be satisfied at any order."""


#: Buddy order of a 4KB frame.
ORDER_4KB = 0
#: Buddy order of a 2MB block (2MB / 4KB = 512 frames = 2^9).
ORDER_2MB = 9
#: Buddy order of a 1GB block.
ORDER_1GB = 18
#: Highest order the allocator manages (4MB blocks keep free lists small
#: while still letting 2MB allocations coalesce naturally).
MAX_ORDER = ORDER_1GB


def order_for_page_size(page_size: PageSize) -> int:
    """Return the buddy order whose block size equals ``page_size``."""
    return page_size.offset_bits - PageSize.BASE_4KB.offset_bits


class BuddyAllocator:
    """Binary buddy allocator over a contiguous physical address range.

    Frames are identified by frame number (physical address / 4KB).  An
    allocation of order ``k`` returns a block of ``2^k`` frames aligned to
    ``2^k`` frames — exactly the alignment guarantee superpages need.
    """

    def __init__(self, total_bytes: int) -> None:
        if total_bytes <= 0 or total_bytes % PAGE_SIZE_4KB:
            raise ValueError("total_bytes must be a positive multiple of 4KB")
        self.total_frames = total_bytes // PAGE_SIZE_4KB
        # free_lists[order] -> set of first-frame-numbers of free blocks
        self._free_lists: List[Set[int]] = [set() for _ in range(MAX_ORDER + 1)]
        # allocated block -> order (so free() knows the size)
        self._allocated: Dict[int, int] = {}
        self._seed_free_lists()

    def _seed_free_lists(self) -> None:
        """Carve the frame range into maximal aligned power-of-two blocks."""
        frame = 0
        remaining = self.total_frames
        while remaining:
            order = min(MAX_ORDER, remaining.bit_length() - 1)
            # Respect alignment: a block of order k must start at a multiple
            # of 2^k frames.
            while order > 0 and frame & ((1 << order) - 1):
                order -= 1
            self._free_lists[order].add(frame)
            frame += 1 << order
            remaining -= 1 << order

    # ------------------------------------------------------------------ API

    def allocate(self, order: int) -> int:
        """Allocate a block of ``2^order`` frames; return its first frame number.

        Raises:
            OutOfMemoryError: if no block of ``order`` or above is free.
        """
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in [0, {MAX_ORDER}]")
        source = order
        while source <= MAX_ORDER and not self._free_lists[source]:
            source += 1
        if source > MAX_ORDER:
            raise OutOfMemoryError(f"no free block of order >= {order}")
        # Any free block at this order is equally good; set iteration order
        # is deterministic for a fixed operation history, so runs reproduce.
        frame = next(iter(self._free_lists[source]))
        self._free_lists[source].discard(frame)
        # Split down to the requested order, returning buddies to free lists.
        while source > order:
            source -= 1
            buddy = frame + (1 << source)
            self._free_lists[source].add(buddy)
        self._allocated[frame] = order
        return frame

    def try_allocate(self, order: int) -> Optional[int]:
        """Like :meth:`allocate` but returns ``None`` instead of raising."""
        try:
            return self.allocate(order)
        except OutOfMemoryError:
            return None

    def split_allocated(self, frame: int, target_order: int = 0) -> None:
        """Split an allocated block into ``2^(order-target)`` allocations.

        Models the kernel splitting a compound page: after a superpage is
        splintered, each constituent base frame becomes an independently
        freeable allocation.  The memory stays allocated throughout.

        Raises:
            ValueError: if ``frame`` is not an allocation or is already at
                or below ``target_order``.
        """
        if frame not in self._allocated:
            raise ValueError(f"frame {frame} is not the start of an allocation")
        order = self._allocated[frame]
        if order < target_order:
            raise ValueError(
                f"block order {order} below target order {target_order}")
        if order == target_order:
            return
        del self._allocated[frame]
        step = 1 << target_order
        for sub in range(frame, frame + (1 << order), step):
            self._allocated[sub] = target_order

    def free(self, frame: int) -> None:
        """Free a previously allocated block, coalescing with free buddies."""
        if frame not in self._allocated:
            raise ValueError(f"frame {frame} is not the start of an allocation")
        order = self._allocated.pop(frame)
        while order < MAX_ORDER:
            buddy = frame ^ (1 << order)
            if buddy not in self._free_lists[order]:
                break
            self._free_lists[order].discard(buddy)
            frame = min(frame, buddy)
            order += 1
        self._free_lists[order].add(frame)

    # ------------------------------------------------------------ inspection

    def free_frames(self) -> int:
        """Total number of free 4KB frames."""
        return sum(len(blocks) << order
                   for order, blocks in enumerate(self._free_lists))

    def available_blocks_at_or_above(self, order: int) -> int:
        """How many order-``order`` allocations could currently succeed."""
        count = 0
        for src in range(order, MAX_ORDER + 1):
            count += len(self._free_lists[src]) << (src - order)
        return count

    def fragmentation_index(self, order: int = ORDER_2MB) -> float:
        """Fraction of free memory *not* usable at ``order`` (0 = unfragmented)."""
        free = self.free_frames()
        if free == 0:
            return 0.0
        usable = self.available_blocks_at_or_above(order) << order
        return 1.0 - usable / free

    def largest_free_order(self) -> int:
        """Largest order with at least one free block (-1 if memory is full)."""
        for order in range(MAX_ORDER, -1, -1):
            if self._free_lists[order]:
                return order
        return -1


class PhysicalMemory:
    """Physical memory: a buddy allocator plus page-size-aware helpers.

    This is the layer :class:`repro.mem.os_policy.MemoryManager` allocates
    frames from.  Addresses are byte addresses; frames are 4KB.
    """

    def __init__(self, total_bytes: int) -> None:
        self.total_bytes = total_bytes
        self.allocator = BuddyAllocator(total_bytes)

    def allocate_page(self, page_size: PageSize) -> Optional[int]:
        """Allocate a naturally aligned physical page; return its base address.

        Returns ``None`` when no suitably sized contiguous block exists —
        this is the signal the THP policy uses to fall back to base pages.
        """
        frame = self.allocator.try_allocate(order_for_page_size(page_size))
        if frame is None:
            return None
        base = frame * PAGE_SIZE_4KB
        assert is_aligned(base, int(page_size))
        return base

    def free_page(self, base_address: int) -> None:
        """Free a page previously returned by :meth:`allocate_page`."""
        if base_address % PAGE_SIZE_4KB:
            raise ValueError("page base must be 4KB aligned")
        self.allocator.free(base_address // PAGE_SIZE_4KB)

    def split_superpage(self, base_address: int) -> None:
        """Split an allocated 2MB page into 512 independent 4KB frames.

        Called when the OS splinters a superpage mapping, so that the
        constituent frames can later be freed (or promoted) one by one.
        """
        if base_address % PAGE_SIZE_2MB:
            raise ValueError("superpage base must be 2MB aligned")
        self.allocator.split_allocated(base_address // PAGE_SIZE_4KB,
                                       target_order=0)

    @property
    def free_bytes(self) -> int:
        """Bytes currently free."""
        return self.allocator.free_frames() * PAGE_SIZE_4KB

    def can_allocate_superpage(self) -> bool:
        """True if a 2MB allocation would currently succeed."""
        return self.allocator.available_blocks_at_or_above(ORDER_2MB) > 0
