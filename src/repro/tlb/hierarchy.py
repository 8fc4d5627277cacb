"""The TLB hierarchy: Intel-style split L1 TLBs backed by an optional
unified L2 TLB and a page walker.

The hierarchy is where the Translation Filter Table is kept in sync
(paper Fig. 5): TFT fills happen on page-walk completions for 2MB leaves
and on any fill into the 2MB L1 TLB (including L2 TLB hits), and
``invlpg`` of a 2MB page drops it from the TFT too.  The hierarchy
therefore holds its core's TFT, when the core's L1 has one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.devtools import sanitize as _sanitize
from repro.mem.address import PageSize
from repro.mem.page_table import PageTable
from repro.tlb.tlb import TLB, TLBEntry
from repro.tlb.walker import PageWalker

if TYPE_CHECKING:
    from repro.core.tft import TranslationFilterTable


class SplitTLBHierarchy:
    """Intel-style hierarchy (Table II): split set-associative L1 TLBs for
    the 4KB and 2MB pages the OS maps, an optional unified L2 TLB, and a
    page walker.

    Args:
        l1_4kb_entries / l1_2mb_entries: sizes of the split L1 TLBs
            (Table II: Sandybridge 128/16, Atom 64/32).
        l2_entries: unified L2 TLB size (0 disables; Atom uses 512,
            Sandybridge in the paper's Table II has no L2).
        tft: the core's TFT (a SEESAW L1's), or None.  Every 2MB
            translation entering the L1 TLB level fills it, and
            invalidating a 2MB page drops it.
    """

    #: cycles an L1 TLB lookup takes, and an L2 TLB lookup adds.
    L1_LATENCY = 1
    L2_LATENCY = 7

    def __init__(self, page_table: PageTable,
                 l1_4kb_entries: int = 128, l1_4kb_ways: int = 4,
                 l1_2mb_entries: int = 16, l1_2mb_ways: int = 4,
                 l2_entries: int = 0, l2_ways: int = 8,
                 tft: Optional[TranslationFilterTable] = None,
                 sanitize: bool = False) -> None:
        self.l1_4kb = TLB(l1_4kb_entries, min(l1_4kb_ways, l1_4kb_entries),
                          (PageSize.BASE_4KB,), name="l1-4kb")
        self.l1_2mb = TLB(l1_2mb_entries, min(l1_2mb_ways, l1_2mb_entries),
                          (PageSize.SUPER_2MB,), name="l1-2mb")
        self.l2_tlb = None
        if l2_entries:
            self.l2_tlb = TLB(l2_entries, l2_ways,
                              (PageSize.BASE_4KB, PageSize.SUPER_2MB),
                              name="l2")
        self.walker = PageWalker(page_table)
        #: the two L1 TLBs in probe order: the one that hit last first.
        self._probe_order = (self.l1_4kb, self.l1_2mb)
        #: the L1 TLB that holds each page size.
        self._l1_by_size: Dict[PageSize, TLB] = {
            PageSize.BASE_4KB: self.l1_4kb,
            PageSize.SUPER_2MB: self.l1_2mb}
        self.tft = tft
        self._sanitize = bool(sanitize) or _sanitize.enabled()

    def _fill_l1(self, entry: TLBEntry) -> None:
        """Fill ``entry`` into the L1 TLB for its page size; a 2MB entry
        also fills the TFT (paper Fig. 5 step 8)."""
        size = entry.page_size
        self._l1_by_size[size].fill(entry.virtual_page, entry.physical_page,
                                    size)
        if size is PageSize.SUPER_2MB and self.tft is not None:
            self.tft.fill(entry.virtual_page << size.offset_bits)

    # ------------------------------------------------------------ translation

    def translate_raw(self, virtual_address: int) -> "tuple":
        """Translate a VA through L1 TLBs → L2 TLB → page walk.

        Returns the plain tuple ``(physical_address, page_size,
        latency_cycles)``, so the per-reference path allocates no result
        object.  The latency says where the translation was found: only
        an L1 TLB hit takes ``L1_LATENCY``, an L2 TLB hit adds
        ``L2_LATENCY`` and a walk its own cost.  Misses at each level
        fill the levels above, and 2MB L1 fills fill the TFT so it stays
        in sync (paper Fig. 5 steps 6-8).
        """
        # Hardware probes both L1 TLBs in parallel, and each one counts
        # its hit or miss.  At most one can hit: promotions and splinters
        # shoot a page out of the other page size's TLB.  So the TLB that
        # hit last is probed first, and when it hits the other one only
        # counts its miss (its LRU order moves on hits alone).
        first, second = self._probe_order
        hit = first.lookup(virtual_address)
        if hit is not None:
            second.stats.misses += 1
            if self._sanitize and second.probe(virtual_address) is not None:
                raise _sanitize.SanitizerError(
                    f"{first.name} and {second.name} both hold "
                    f"va={virtual_address:#x} — a shootdown was dropped")
        else:
            hit = second.lookup(virtual_address)
            if hit is not None:
                self._probe_order = second, first
        latency = self.L1_LATENCY
        if hit is None and self.l2_tlb is not None:
            latency += self.L2_LATENCY
            hit = self.l2_tlb.lookup(virtual_address)
            if hit is not None:
                self._fill_l1(hit)
        if hit is None:
            walk = self.walker.walk(virtual_address)
            mapping = walk.mapping
            size = mapping.page_size
            entry = TLBEntry(mapping.virtual_base >> size.offset_bits,
                             mapping.physical_base >> size.offset_bits,
                             size)
            if self.l2_tlb is not None:
                self.l2_tlb.fill(entry.virtual_page, entry.physical_page,
                                 size)
            self._fill_l1(entry)
            return (mapping.translate(virtual_address), size,
                    latency + walk.latency_cycles)
        size = hit.page_size
        pa = ((hit.physical_page << size.offset_bits)
              | (virtual_address & size.offset_mask))
        if self._sanitize:
            _sanitize.check_translation(
                self.walker.page_table, virtual_address, pa,
                level="l1" if latency == self.L1_LATENCY else "l2")
        return pa, size, latency

    # ------------------------------------------------------------ management

    def invalidate(self, virtual_base: int, page_size: PageSize) -> None:
        """``invlpg``: drop the translation from every level that may hold
        it, and a splintered superpage from the TFT (SEESAW's ``invlpg``
        extension, paper §IV-C2)."""
        self._l1_by_size[page_size].invalidate(virtual_base, page_size)
        if self.l2_tlb is not None:
            self.l2_tlb.invalidate(virtual_base, page_size)
        if page_size is PageSize.SUPER_2MB and self.tft is not None:
            self.tft.invalidate(virtual_base)
