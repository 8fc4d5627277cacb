"""A single TLB structure: set-associative or fully associative, one or more
page sizes, LRU replacement.

A TLB caches virtual-page-number → physical-page-number translations.  The
set index is taken from the low bits of the VPN for the entry's page size,
so a set-associative TLB serving one page size (Intel-style split L1 TLBs)
and a fully associative one (``ways == entries``) holding any mix of sizes
share one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.mem.address import PageSize


class TLBEntry(NamedTuple):
    """One cached translation.  Immutable: a refill replaces the entry."""

    virtual_page: int       # VPN for this entry's page size
    physical_page: int      # PPN
    page_size: PageSize

    def physical_base(self) -> int:
        """Physical base address of the mapped page."""
        return self.physical_page << self.page_size.offset_bits


#: A distinct two-bit code per page size: a TLB set keys an entry by the
#: int ``virtual_page << 2 | code``, so a 4KB and a 2MB page with one
#: virtual page number never share a key.
SIZE_CODES = {size: code for code, size in enumerate(PageSize)}


def tlb_key(virtual_page: int, page_size: PageSize) -> int:
    """The set key of ``page_size``'s page ``virtual_page``."""
    return virtual_page << 2 | SIZE_CODES[page_size]


@dataclass
class TLBStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class TLB:
    """Set-associative TLB with true-LRU replacement.

    Each set is a dict from :func:`tlb_key` (the virtual page number and
    its size's code, one int) to its :class:`TLBEntry`, in recency order
    (least recent first): a hit or a refill re-inserts its key at the
    end, and an eviction drops the first key.  Keying on the page size
    gives single- and multi-size TLBs one code path — a lookup tries each
    supported size's key in that size's set, smallest size first.

    Args:
        entries: total entry count.
        ways: associativity.  ``ways == entries`` gives fully associative.
        page_sizes: page sizes this TLB may hold.  Split TLBs pass exactly
            one size; unified/fully-associative TLBs pass several.
        name: label used in stats reporting.
    """

    def __init__(self, entries: int, ways: int,
                 page_sizes: Iterable[PageSize],
                 name: str = "tlb") -> None:
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ValueError("entries must be a positive multiple of ways")
        self.name = name
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self.page_sizes: Tuple[PageSize, ...] = tuple(sorted(page_sizes))
        if not self.page_sizes:
            raise ValueError("TLB must support at least one page size")
        #: ``(size code, offset bits)`` per supported size, in probe order.
        self._size_shifts = tuple((SIZE_CODES[size], size.offset_bits)
                                  for size in self.page_sizes)
        self.stats = TLBStats()
        self._sets: List[Dict[int, TLBEntry]] = [
            {} for _ in range(self.num_sets)]
        # Running count of resident entries, so the scheduler's per-access
        # scarcity check (paper §IV-B3) is O(1).
        self._resident = 0
        self._set_mask = self.num_sets - 1

    # ------------------------------------------------------------------- API

    def lookup(self, virtual_address: int) -> Optional[TLBEntry]:
        """Probe for the translation covering ``virtual_address``.

        Updates LRU order and hit/miss stats.  Returns the entry on hit,
        ``None`` on miss.
        """
        sets = self._sets
        for code, shift in self._size_shifts:
            vpn = virtual_address >> shift
            entries = sets[vpn & self._set_mask]
            key = vpn << 2 | code               # tlb_key, inlined
            entry = entries.pop(key, None)
            if entry is not None:
                entries[key] = entry
                self.stats.hits += 1
                return entry
        self.stats.misses += 1
        return None

    def probe(self, virtual_address: int) -> Optional[TLBEntry]:
        """Like :meth:`lookup` but with no stats or LRU side effects."""
        for code, shift in self._size_shifts:
            vpn = virtual_address >> shift
            entry = self._sets[vpn & self._set_mask].get(
                vpn << 2 | code)                # tlb_key, inlined
            if entry is not None:
                return entry
        return None

    def fill(self, virtual_page: int, physical_page: int,
             page_size: PageSize) -> Optional[TLBEntry]:
        """Insert a translation, evicting LRU if the set is full.

        A resident translation is replaced and made most recent instead of
        duplicated.  Returns the evicted entry, if any.

        Raises:
            ValueError: if ``page_size`` is not supported by this TLB.
        """
        if page_size not in self.page_sizes:
            raise ValueError(f"{self.name} does not hold {page_size.name} pages")
        entries = self._sets[virtual_page & self._set_mask]
        key = virtual_page << 2 | SIZE_CODES[page_size]   # tlb_key, inlined
        victim = None
        if entries.pop(key, None) is None:
            if len(entries) >= self.ways:
                # The LRU entry makes room: the resident count holds.
                victim = entries.pop(next(iter(entries)))
            else:
                self._resident += 1
        entries[key] = TLBEntry(virtual_page, physical_page, page_size)
        return victim

    def invalidate(self, virtual_base: int, page_size: PageSize) -> bool:
        """Invalidate the entry for a virtual page (``invlpg`` model).

        Returns True if an entry was removed.
        """
        vpn = virtual_base >> page_size.offset_bits
        if self._sets[vpn & self._set_mask].pop(
                tlb_key(vpn, page_size), None) is None:
            return False
        self._resident -= 1
        return True

    def flush(self) -> int:
        """Flush all entries. Returns the count removed."""
        removed = 0
        for entries in self._sets:
            removed += len(entries)
            entries.clear()
        self._resident -= removed
        return removed

    def valid_entry_count(self, page_size: Optional[PageSize] = None) -> int:
        """Count valid entries, optionally restricted to one page size.

        SEESAW's scheduler optimization (paper §IV-B3) reads the superpage
        TLB's valid-entry counter to decide whether to speculate fast hits.
        """
        if page_size is None or self.page_sizes == (page_size,):
            # All resident entries match: O(1) counter path.
            return self._resident
        return sum(1 for entries in self._sets
                   for entry in entries.values()
                   if entry.page_size is page_size)

    def __contains__(self, virtual_address: int) -> bool:
        return self.probe(virtual_address) is not None
