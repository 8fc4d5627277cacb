"""OS memory-management policy: transparent huge pages over the buddy allocator.

This layer stands in for the Linux behaviour the paper measures in §III-C
and Fig. 3: when an application touches anonymous heap memory, the OS tries
to back each 2MB-aligned virtual region with a 2MB superpage; when physical
memory is too fragmented for an order-9 allocation, it falls back to 4KB
base pages.  It also implements the two page-table transitions SEESAW must
survive (paper §IV-C2): splintering a superpage into base pages and
promoting 512 base pages into a superpage, with the associated TLB/TFT
invalidation hooks.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Set

from repro.mem.address import PageSize, page_base
from repro.mem.page_table import Mapping, PageTable, TranslationFault
from repro.mem.physical import PhysicalMemory

#: Callback invoked when a virtual page's translation is invalidated
#: (splinter / promotion / unmap).  Receives (virtual_base, page_size).
#: The TLB hierarchy and the TFT both register one of these — this models
#: the ``invlpg`` instruction SEESAW bootstraps from.
InvalidationHook = Callable[[int, PageSize], None]

#: Callback invoked when base pages are promoted into a superpage.  SEESAW
#: sweeps the L1 cache in response (paper §IV-C2).  Receives the new 2MB
#: virtual base and the physical bases of the 512 retired base pages (whose
#: cached lines must be evicted).
PromotionHook = Callable[[int, List[int]], None]


class THPPolicy(enum.Enum):
    """Transparent-huge-page policy, mirroring Linux's sysfs knob."""

    ALWAYS = "always"    # try 2MB first for every eligible region
    NEVER = "never"      # only 4KB base pages


class MemoryManager:
    """Per-system OS memory manager with transparent superpage support.

    Demand paging: the first touch to an unmapped virtual page triggers
    :meth:`touch`, which installs a mapping according to the THP policy.
    The manager owns the one address space's page table.
    """

    def __init__(self, physical_memory: PhysicalMemory,
                 thp_policy: THPPolicy = THPPolicy.ALWAYS) -> None:
        self.physical = physical_memory
        self.thp_policy = thp_policy
        self.page_table = PageTable()
        # 2MB region numbers that already fell back to base pages;
        # skipping them keeps demand faulting O(1) per touch.
        self._broken_regions: Set[int] = set()
        self._invalidation_hooks: List[InvalidationHook] = []
        self._promotion_hooks: List[PromotionHook] = []

    # ------------------------------------------------------------- pickling

    def __getstate__(self) -> dict:
        """Drop both hook lists when pickling: the TLB shootdown and
        promotion-sweep callbacks close over per-core structures and are
        re-registered after a snapshot restore
        (``SystemSimulator._wire``)."""
        state = self.__dict__.copy()
        state["_invalidation_hooks"] = []
        state["_promotion_hooks"] = []
        return state

    # ---------------------------------------------------------------- hooks

    def register_invalidation_hook(self, hook: InvalidationHook) -> None:
        """Register a TLB/TFT invalidation callback (``invlpg`` model)."""
        self._invalidation_hooks.append(hook)

    def register_promotion_hook(self, hook: PromotionHook) -> None:
        """Register a callback fired when base pages collapse to a superpage."""
        self._promotion_hooks.append(hook)

    def _fire_invalidation(self, virtual_base: int, page_size: PageSize) -> None:
        for hook in self._invalidation_hooks:
            hook(virtual_base, page_size)

    # ----------------------------------------------------------------- touch

    def touch(self, virtual_address: int) -> Mapping:
        """Ensure ``virtual_address`` is mapped; return its mapping.

        First touch of a region attempts a 2MB superpage under the ALWAYS
        policy.  If the buddy allocator cannot produce an aligned 2MB
        block (fragmentation), falls back to a single 4KB page — the
        mechanism behind Fig. 3's coverage collapse under memhog.
        """
        table = self.page_table
        try:
            return table.lookup(virtual_address)
        except TranslationFault:
            pass
        base = page_base(virtual_address, PageSize.SUPER_2MB)
        region = base >> PageSize.SUPER_2MB.offset_bits
        if (self.thp_policy is THPPolicy.ALWAYS
                and region not in self._broken_regions):
            if self._region_is_free(table, base):
                physical = self.physical.allocate_page(PageSize.SUPER_2MB)
                if physical is not None:
                    return table.map(base, physical, PageSize.SUPER_2MB)
            self._broken_regions.add(region)
        physical = self.physical.allocate_page(PageSize.BASE_4KB)
        if physical is None:
            raise MemoryError("physical memory exhausted")
        base = page_base(virtual_address, PageSize.BASE_4KB)
        return table.map(base, physical, PageSize.BASE_4KB)

    @staticmethod
    def _region_is_free(table: PageTable, region_base: int) -> bool:
        """True if no base page inside the 2MB region is already mapped.

        A region that already has 4KB mappings (from an earlier fragmented
        period) cannot be superpage-backed without promotion, so first-touch
        superpage allocation only applies to virgin regions.
        """
        return not table.region_has_mappings(region_base)

    # --------------------------------------------------- splinter / promote

    def splinter_superpage(self, virtual_base: int) -> None:
        """Split a 2MB mapping into base pages, firing invalidations.

        Paper §IV-C2: the OS executes ``invlpg`` for the stale superpage
        translation; our hook model invalidates TLB entries *and* the TFT
        entry tagged with this virtual page number.
        """
        table = self.page_table
        mapping = table.lookup(virtual_base)
        table.splinter(virtual_base)
        # Split the compound physical allocation too, so the new base
        # frames are independently freeable.
        self.physical.split_superpage(mapping.physical_base)
        self._fire_invalidation(virtual_base, PageSize.SUPER_2MB)

    def promote_region(self, virtual_base: int,
                       fault_in_missing: bool = False) -> Optional[Mapping]:
        """Collapse 512 resident base pages into one 2MB superpage.

        Allocates a fresh aligned 2MB physical block (as khugepaged does),
        retires the old frames, and fires both the invalidation hooks (for
        the 512 stale base-page translations) and the promotion hooks (the
        L1 sweep SEESAW requires for correctness).

        Args:
            fault_in_missing: zero-fill-fault absent base pages before
                collapsing, as khugepaged does under ``max_ptes_none`` —
                required when promoting partially resident regions.

        Returns the new mapping, or ``None`` if physical memory is too
        fragmented to provide a 2MB block or the region is not promotable.
        """
        table = self.page_table
        step = int(PageSize.BASE_4KB)
        count = int(PageSize.SUPER_2MB) // step
        old_mappings = []
        for i in range(count):
            va = virtual_base + i * step
            try:
                mapping = table.lookup(va)
            except TranslationFault:
                if not fault_in_missing:
                    return None  # region not fully resident
                physical = self.physical.allocate_page(PageSize.BASE_4KB)
                if physical is None:
                    return None
                mapping = table.map(va, physical, PageSize.BASE_4KB)
            if mapping.page_size is not PageSize.BASE_4KB:
                return None  # already a superpage
            old_mappings.append(mapping)
        physical = self.physical.allocate_page(PageSize.SUPER_2MB)
        if physical is None:
            return None
        mapping = table.promote(virtual_base, physical)
        old_physical_bases = []
        for old in old_mappings:
            self.physical.free_page(old.physical_base)
            self._fire_invalidation(old.virtual_base, PageSize.BASE_4KB)
            old_physical_bases.append(old.physical_base)
        for hook in self._promotion_hooks:
            hook(virtual_base, old_physical_bases)
        self._broken_regions.discard(
            virtual_base >> PageSize.SUPER_2MB.offset_bits)
        return mapping
