"""Multi-page-size page table, modeled after x86-64 4-level radix paging.

The simulator needs three things from the page table:

1. correct VA→PA translation for 4KB, 2MB, and 1GB mappings,
2. the page size of each translation (what the TLB / TFT fill paths consume),
3. a realistic *walk cost* (number of memory references a hardware page walk
   performs: 4 levels for a 4KB leaf, 3 for a 2MB leaf, 2 for a 1GB leaf).

Internally we keep a radix tree keyed on the 9-bit indices x86-64 uses
(PML4/PDPT/PD/PT) so that superpage leaves occupy interior levels exactly as
they do in hardware — splintering and promotion then become structural edits,
which is what the OS-policy layer exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.mem.address import (
    PageSize,
    is_aligned,
    page_base,
    page_offset,
)


class TranslationFault(Exception):
    """Raised when a virtual address has no valid mapping (page fault)."""

    def __init__(self, virtual_address: int) -> None:
        super().__init__(f"no mapping for VA {virtual_address:#x}")
        self.virtual_address = virtual_address


@dataclass(frozen=True)
class Mapping:
    """One leaf translation: a virtual page mapped to a physical page."""

    virtual_base: int
    physical_base: int
    page_size: PageSize

    def translate(self, virtual_address: int) -> int:
        """Translate an address inside this mapping's virtual page."""
        offset = virtual_address - self.virtual_base
        if not 0 <= offset < int(self.page_size):
            raise ValueError(
                f"VA {virtual_address:#x} outside mapping at {self.virtual_base:#x}"
            )
        return self.physical_base + offset

    @property
    def is_superpage(self) -> bool:
        """True if this mapping uses a superpage."""
        return self.page_size.is_superpage


#: Bits of virtual address consumed by each radix level, leaf-most first.
_LEVEL_BITS = 9
#: Levels of the radix tree: PT (4KB leaves), PD (2MB leaves), PDPT (1GB
#: leaves), PML4.
_LEAF_LEVEL_FOR_SIZE = {
    PageSize.BASE_4KB: 0,
    PageSize.SUPER_2MB: 1,
    PageSize.SUPER_1GB: 2,
}
#: Memory references a hardware walk performs to reach each leaf level
#: (4-level x86-64 walk; superpage leaves terminate the walk early).
WALK_REFERENCES = {
    PageSize.BASE_4KB: 4,
    PageSize.SUPER_2MB: 3,
    PageSize.SUPER_1GB: 2,
}


class _Node:
    """Interior radix node: 9-bit index -> child node or Mapping leaf."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: Dict[int, object] = {}


class PageTable:
    """An address space's page table supporting 4KB/2MB/1GB leaves."""

    def __init__(self) -> None:
        self._root = _Node()
        self._mapping_count = 0

    # --------------------------------------------------------------- helpers

    @staticmethod
    def _indices(virtual_address: int) -> Tuple[int, int, int, int]:
        """Split a VA into (pml4, pdpt, pd, pt) 9-bit indices."""
        vpn = virtual_address >> PageSize.BASE_4KB.offset_bits
        pt = vpn & 0x1FF
        pd = (vpn >> 9) & 0x1FF
        pdpt = (vpn >> 18) & 0x1FF
        pml4 = (vpn >> 27) & 0x1FF
        return pml4, pdpt, pd, pt

    def _walk_to_level(self, virtual_address: int, leaf_level: int,
                       create: bool) -> Optional[Tuple[_Node, int]]:
        """Descend to the node holding the leaf entry for ``leaf_level``.

        Returns the (node, index) pair where the leaf lives, or ``None`` when
        an intermediate node is missing and ``create`` is false.  Raises if
        the descent runs into an existing leaf at a higher level (a mapping
        conflict the OS layer must resolve first).
        """
        pml4, pdpt, pd, pt = self._indices(virtual_address)
        path = [pml4, pdpt, pd, pt]
        # Levels numbered leaf-most = 0: level 3 is PML4.
        node = self._root
        for depth, index in enumerate(path):
            level = 3 - depth
            if level == leaf_level:
                return node, index
            entry = node.entries.get(index)
            if entry is None:
                if not create:
                    return None
                entry = _Node()
                node.entries[index] = entry
            if isinstance(entry, Mapping):
                raise ValueError(
                    f"VA {virtual_address:#x} already covered by a "
                    f"{entry.page_size.name} mapping at a higher level"
                )
            node = entry
        raise AssertionError("unreachable: leaf_level outside [0, 3]")

    # ------------------------------------------------------------------- API

    def map(self, virtual_base: int, physical_base: int,
            page_size: PageSize) -> Mapping:
        """Install a leaf mapping. Bases must be naturally aligned.

        Raises:
            ValueError: on misalignment, an existing conflicting mapping, or
                an attempt to map over a populated subtree (the OS must unmap
                base pages before promoting to a superpage).
        """
        if not is_aligned(virtual_base, int(page_size)):
            raise ValueError(f"virtual base {virtual_base:#x} not aligned")
        if not is_aligned(physical_base, int(page_size)):
            raise ValueError(f"physical base {physical_base:#x} not aligned")
        leaf_level = _LEAF_LEVEL_FOR_SIZE[page_size]
        node, index = self._walk_to_level(virtual_base, leaf_level, create=True)
        existing = node.entries.get(index)
        if isinstance(existing, Mapping):
            raise ValueError(f"VA {virtual_base:#x} already mapped")
        if isinstance(existing, _Node):
            if existing.entries:
                raise ValueError(
                    f"VA {virtual_base:#x}: subtree populated with smaller "
                    "pages; unmap them before installing a superpage"
                )
            # An emptied subtree (all smaller pages unmapped, e.g. during
            # promotion) can be reclaimed and replaced by a superpage leaf.
            del node.entries[index]
        mapping = Mapping(virtual_base, physical_base, page_size)
        node.entries[index] = mapping
        self._mapping_count += 1
        return mapping

    def unmap(self, virtual_base: int, page_size: PageSize) -> Mapping:
        """Remove a leaf mapping and return it.

        Raises:
            TranslationFault: if no such mapping exists.
        """
        leaf_level = _LEAF_LEVEL_FOR_SIZE[page_size]
        located = self._walk_to_level(virtual_base, leaf_level, create=False)
        if located is None:
            raise TranslationFault(virtual_base)
        node, index = located
        entry = node.entries.get(index)
        if not isinstance(entry, Mapping):
            raise TranslationFault(virtual_base)
        del node.entries[index]
        self._mapping_count -= 1
        return entry

    def lookup(self, virtual_address: int) -> Mapping:
        """Find the leaf mapping covering ``virtual_address``.

        Raises:
            TranslationFault: if the address is unmapped.
        """
        node = self._root
        for depth, index in enumerate(self._indices(virtual_address)):
            entry = node.entries.get(index)
            if entry is None:
                raise TranslationFault(virtual_address)
            if isinstance(entry, Mapping):
                return entry
            node = entry
        raise TranslationFault(virtual_address)

    def translate(self, virtual_address: int) -> int:
        """VA → PA. Raises :class:`TranslationFault` if unmapped."""
        return self.lookup(virtual_address).translate(virtual_address)

    def walk(self, virtual_address: int) -> Tuple[Mapping, int]:
        """Perform a hardware-style walk: (mapping, memory references used)."""
        mapping = self.lookup(virtual_address)
        return mapping, WALK_REFERENCES[mapping.page_size]

    def page_size_of(self, virtual_address: int) -> PageSize:
        """Page size backing ``virtual_address``."""
        return self.lookup(virtual_address).page_size

    def is_mapped(self, virtual_address: int) -> bool:
        """True if ``virtual_address`` has a valid translation."""
        try:
            self.lookup(virtual_address)
            return True
        except TranslationFault:
            return False

    def region_has_mappings(self, region_base: int) -> bool:
        """True if any translation covers part of the 2MB region.

        Equivalent to probing :meth:`is_mapped` for all 512 base pages, but
        the whole region lives under a single PD entry, so three dict hops
        answer it.  Keeps first-touch superpage allocation (which must
        check region virginity on every new region) off the O(512) path.
        """
        pml4, pdpt, pd, _ = self._indices(region_base)
        entry = self._root.entries.get(pml4)
        if entry is None:
            return False
        if isinstance(entry, Mapping):
            return True
        entry = entry.entries.get(pdpt)
        if entry is None:
            return False
        if isinstance(entry, Mapping):   # 1GB leaf covers the region
            return True
        entry = entry.entries.get(pd)
        if entry is None:
            return False
        if isinstance(entry, Mapping):   # 2MB leaf
            return True
        # A PT node: mapped iff any 4KB leaf survives under it (a subtree
        # emptied by unmaps leaves the node behind but holds no mappings).
        return bool(entry.entries)

    def __len__(self) -> int:
        return self._mapping_count

    def mappings(self) -> Iterator[Mapping]:
        """Iterate over all leaf mappings (no particular order)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.entries.values():
                if isinstance(entry, Mapping):
                    yield entry
                else:
                    stack.append(entry)

    # ------------------------------------------------- promotion/splintering

    def splinter(self, virtual_base: int) -> Tuple[Mapping, ...]:
        """Break a 2MB superpage into 512 base-page mappings (same frames).

        Models the OS splitting a huge page (paper §IV-C2).  The physical
        frames do not move; only the page-table structure changes.

        Returns the new base-page mappings.
        """
        old = self.unmap(virtual_base, PageSize.SUPER_2MB)
        pieces = []
        step = int(PageSize.BASE_4KB)
        for i in range(int(PageSize.SUPER_2MB) // step):
            pieces.append(self.map(old.virtual_base + i * step,
                                   old.physical_base + i * step,
                                   PageSize.BASE_4KB))
        return tuple(pieces)

    def promote(self, virtual_base: int, physical_base: int) -> Mapping:
        """Replace 512 contiguous base pages with one 2MB superpage mapping.

        The OS must supply the (already populated) 2MB-aligned physical
        target; this method only edits the tree.  All 512 base mappings must
        exist.  Models huge-page promotion (khugepaged-style collapse).
        """
        if not is_aligned(virtual_base, int(PageSize.SUPER_2MB)):
            raise ValueError("promotion target must be 2MB aligned")
        step = int(PageSize.BASE_4KB)
        count = int(PageSize.SUPER_2MB) // step
        for i in range(count):
            self.unmap(virtual_base + i * step, PageSize.BASE_4KB)
        return self.map(virtual_base, physical_base, PageSize.SUPER_2MB)

    def covering_superpage_region(self, virtual_address: int) -> Optional[int]:
        """If the VA is superpage-backed, return its 2MB region number."""
        try:
            mapping = self.lookup(virtual_address)
        except TranslationFault:
            return None
        if mapping.page_size is PageSize.SUPER_2MB:
            return mapping.virtual_base >> PageSize.SUPER_2MB.offset_bits
        return None
