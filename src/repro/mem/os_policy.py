"""OS memory-management policy: transparent huge pages over the buddy allocator.

This layer stands in for the Linux behaviour the paper measures in §III-C
and Fig. 3: when an application touches anonymous heap memory, the OS tries
to back each 2MB-aligned virtual region with a 2MB superpage; when physical
memory is too fragmented for an order-9 allocation, it falls back to 4KB
base pages.  It also implements the two page-table transitions SEESAW must
survive (paper §IV-C2): splintering a superpage into base pages and
promoting 512 base pages into a superpage, with the TLB shootdowns
(``invlpg``, which also reaches SEESAW's TFT) and the L1 sweep they need.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Set

from repro.mem.address import PageSize, page_base
from repro.mem.page_table import Mapping, PageTable, TranslationFault
from repro.mem.physical import PhysicalMemory


class THPPolicy(enum.Enum):
    """Transparent-huge-page policy, mirroring Linux's sysfs knob."""

    ALWAYS = "always"    # try 2MB first for every eligible region
    NEVER = "never"      # only 4KB base pages


class MemoryManager:
    """Per-system OS memory manager with transparent superpage support.

    Demand paging: the first touch to an unmapped virtual page triggers
    :meth:`touch`, which installs a mapping according to the THP policy.
    The manager owns the one address space's page table.

    The simulator sets two lists once it has built the cores: ``tlbs``,
    every core's TLB hierarchy, which a splinter or promotion shoots down
    through ``invalidate(virtual_base, page_size)`` (the ``invlpg``
    SEESAW bootstraps from); and ``swept_caches``, the SEESAW L1s whose
    ``on_region_promoted(virtual_base, old_physical_bases)`` sweeps the
    retired frames' lines after a promotion (paper §IV-C2).
    """

    def __init__(self, physical_memory: PhysicalMemory,
                 thp_policy: THPPolicy = THPPolicy.ALWAYS) -> None:
        self.physical = physical_memory
        self.thp_policy = thp_policy
        self.page_table = PageTable()
        # 2MB region numbers that already fell back to base pages;
        # skipping them keeps demand faulting O(1) per touch.
        self._broken_regions: Set[int] = set()
        self.tlbs: List = []
        self.swept_caches: List = []

    def _shoot_down(self, virtual_base: int, page_size: PageSize) -> None:
        for tlb in self.tlbs:
            tlb.invalidate(virtual_base, page_size)

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
        """Split a 2MB mapping into base pages and shoot it down.

        Paper §IV-C2: the OS executes ``invlpg`` for the stale superpage
        translation, which drops every core's TLB entries *and* the TFT
        entry tagged with this virtual page number.
        """
        table = self.page_table
        mapping = table.lookup(virtual_base)
        table.splinter(virtual_base)
        # Split the compound physical allocation too, so the new base
        # frames are independently freeable.
        self.physical.split_superpage(mapping.physical_base)
        self._shoot_down(virtual_base, PageSize.SUPER_2MB)

    def promote_region(self, virtual_base: int,
                       fault_in_missing: bool = False) -> Optional[Mapping]:
        """Collapse 512 resident base pages into one 2MB superpage.

        Allocates a fresh aligned 2MB physical block (as khugepaged does),
        retires the old frames, shoots down the 512 stale base-page
        translations and then sweeps ``swept_caches`` (the L1 sweep SEESAW
        requires for correctness).

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
            self._shoot_down(old.virtual_base, PageSize.BASE_4KB)
            old_physical_bases.append(old.physical_base)
        for cache in self.swept_caches:
            cache.on_region_promoted(virtual_base, old_physical_bases)
        self._broken_regions.discard(
            virtual_base >> PageSize.SUPER_2MB.offset_bits)
        return mapping
