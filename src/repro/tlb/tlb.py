"""A single TLB structure: set-associative or fully associative, one or more
page sizes, LRU replacement, ASID tags.

A TLB caches virtual-page-number → physical-page-number translations.  For
set-associative TLBs serving a single page size (Intel-style split L1 TLBs),
the set index is taken from the low bits of the VPN for that page size.  A
fully-associative TLB (``ways == entries``) can hold any mix of page sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.mem.address import PageSize


class TLBEntry:
    """One cached translation.

    A slotted plain class rather than a dataclass: entries are compared,
    created and field-read on the translation fast path, and ``__slots__``
    keeps both allocation and attribute access cheap.
    """

    __slots__ = ("virtual_page", "physical_page", "page_size", "asid",
                 "valid")

    def __init__(self, virtual_page: int, physical_page: int,
                 page_size: PageSize, asid: int = 0,
                 valid: bool = True) -> None:
        self.virtual_page = virtual_page      # VPN for this entry's page size
        self.physical_page = physical_page    # PPN
        self.page_size = page_size
        self.asid = asid
        self.valid = valid

    def __repr__(self) -> str:
        return (f"TLBEntry(virtual_page={self.virtual_page!r}, "
                f"physical_page={self.physical_page!r}, "
                f"page_size={self.page_size!r}, asid={self.asid!r}, "
                f"valid={self.valid!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TLBEntry):
            return NotImplemented
        return (self.virtual_page == other.virtual_page
                and self.physical_page == other.physical_page
                and self.page_size is other.page_size
                and self.asid == other.asid
                and self.valid == other.valid)

    def physical_base(self) -> int:
        """Physical base address of the mapped page."""
        return self.physical_page << self.page_size.offset_bits


@dataclass
class TLBStats:
    """Hit/miss/fill counters."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    invalidations: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class TLB:
    """Set-associative TLB with true-LRU replacement.

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
        self.stats = TLBStats()
        # Each set is an LRU-ordered list, most recent last.
        self._sets: List[List[TLBEntry]] = [[] for _ in range(self.num_sets)]
        # Running count of resident entries, so the scheduler's per-access
        # scarcity check (paper §IV-B3) is O(1).
        self._resident = 0
        self._set_mask = self.num_sets - 1
        # Split (single-size) TLBs are the per-reference common case; their
        # lookups skip the per-size probe loop entirely.
        self._single_offset = (self.page_sizes[0].offset_bits
                               if len(self.page_sizes) == 1 else None)

    # --------------------------------------------------------------- indexing

    def _set_index(self, virtual_page: int) -> int:
        return virtual_page & self._set_mask

    # ------------------------------------------------------------------- API

    def lookup(self, virtual_address: int, asid: int = 0) -> Optional[TLBEntry]:
        """Probe for the translation covering ``virtual_address``.

        Updates LRU order and hit/miss stats.  Returns the entry on hit,
        ``None`` on miss.
        """
        single_offset = self._single_offset
        if single_offset is not None:
            # Single-size TLB: one set to probe, no page-size check needed
            # (fills reject foreign sizes).
            vpn = virtual_address >> single_offset
            entries = self._sets[vpn & self._set_mask]
            for position, entry in enumerate(entries):
                if (entry.virtual_page == vpn and entry.asid == asid
                        and entry.valid):
                    entries.append(entries.pop(position))
                    self.stats.hits += 1
                    return entry
        else:
            for size in self.page_sizes:
                vpn = virtual_address >> size.offset_bits
                entries = self._sets[vpn & self._set_mask]
                for position, entry in enumerate(entries):
                    if (entry.valid and entry.page_size is size
                            and entry.virtual_page == vpn
                            and entry.asid == asid):
                        entries.append(entries.pop(position))
                        self.stats.hits += 1
                        return entry
        self.stats.misses += 1
        return None

    def probe(self, virtual_address: int, asid: int = 0) -> Optional[TLBEntry]:
        """Like :meth:`lookup` but with no stats or LRU side effects."""
        for size in self.page_sizes:
            vpn = virtual_address >> size.offset_bits
            for entry in self._sets[vpn & self._set_mask]:
                if (entry.valid and entry.page_size is size
                        and entry.virtual_page == vpn
                        and entry.asid == asid):
                    return entry
        return None

    def fill(self, virtual_page: int, physical_page: int,
             page_size: PageSize, asid: int = 0) -> Optional[TLBEntry]:
        """Insert a translation, evicting LRU if the set is full.

        Returns the evicted entry, if any.

        Raises:
            ValueError: if ``page_size`` is not supported by this TLB.
        """
        if page_size not in self.page_sizes:
            raise ValueError(f"{self.name} does not hold {page_size.name} pages")
        set_index = self._set_index(virtual_page)
        entries = self._sets[set_index]
        # Refresh an existing entry in place instead of duplicating it.
        for position, entry in enumerate(entries):
            if (entry.page_size is page_size
                    and entry.virtual_page == virtual_page
                    and entry.asid == asid):
                entry.physical_page = physical_page
                entry.valid = True
                entries.append(entries.pop(position))
                return None
        victim = None
        if len(entries) >= self.ways:
            victim = entries.pop(0)
            self.stats.evictions += 1
            self._resident -= 1
        entries.append(TLBEntry(virtual_page, physical_page, page_size, asid))
        self._resident += 1
        self.stats.fills += 1
        return victim

    def invalidate(self, virtual_base: int, page_size: PageSize,
                   asid: int = 0) -> bool:
        """Invalidate the entry for a virtual page (``invlpg`` model).

        Returns True if an entry was removed.
        """
        vpn = virtual_base >> page_size.offset_bits
        entries = self._sets[self._set_index(vpn)]
        for position, entry in enumerate(entries):
            if (entry.page_size is page_size and entry.virtual_page == vpn
                    and entry.asid == asid):
                entries.pop(position)
                self._resident -= 1
                self.stats.invalidations += 1
                return True
        return False

    def flush(self, asid: Optional[int] = None) -> int:
        """Flush all entries (or all entries of one ASID). Returns count."""
        removed = 0
        for entries in self._sets:
            if asid is None:
                removed += len(entries)
                entries.clear()
            else:
                keep = [e for e in entries if e.asid != asid]
                removed += len(entries) - len(keep)
                entries[:] = keep
        self._resident -= removed
        self.stats.flushes += 1
        return removed

    def valid_entry_count(self, page_size: Optional[PageSize] = None) -> int:
        """Count valid entries, optionally restricted to one page size.

        SEESAW's scheduler optimization (paper §IV-B3) reads the superpage
        TLB's valid-entry counter to decide whether to speculate fast hits.
        """
        if page_size is None or self.page_sizes == (page_size,):
            # All resident entries match: O(1) counter path.
            return self._resident
        count = 0
        for entries in self._sets:
            for entry in entries:
                if entry.valid and (page_size is None
                                    or entry.page_size is page_size):
                    count += 1
        return count

    def occupancy(self) -> float:
        """Fraction of capacity holding valid entries."""
        return self.valid_entry_count() / self.entries

    def __contains__(self, virtual_address: int) -> bool:
        return self.probe(virtual_address) is not None
