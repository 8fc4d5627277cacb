"""Translation Filter Table (TFT): SEESAW's page-size predictor (paper Fig. 5).

The TFT is a small table of 2MB virtual-address regions known to be backed
by 2MB superpages.  It is looked up in parallel with the L1 TLBs by hashing
VA[63:21]; a hit *guarantees* the access targets a superpage (the TFT is
filled only from confirmed superpage translations, so it never
false-positives), while a miss means "unknown" and forces the conservative
full-set lookup.

Sizing (paper §IV-A2 and Fig. 13): 16 entries ≈ 86 bytes per core keeps the
missed-superpage-access rate under 10%.  The table is the paper's design:
direct-mapped, and without ASID tags (§IV-C3: doubling the area was not
worth <1% performance), so a context switch flushes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.mem.address import PageSize, region_2mb

#: shift applied per lookup; folded to a module constant so the hot path
#: avoids the enum attribute chain.
_REGION_SHIFT = PageSize.SUPER_2MB.offset_bits


@dataclass
class TFTStats:
    """Lookup counters."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class TranslationFilterTable:
    """Direct-mapped table of superpage-backed 2MB virtual regions.

    ``slots[region % entries]`` (the paper's hash, VA[63:21] MOD the
    entry count) holds the last region filled there, or None; a fill
    simply displaces the slot's occupant.

    Args:
        entries: slot count (paper default 16).
    """

    #: bits of a 64-bit VA above the 2MB offset — the stored tag width the
    #: paper quotes (43 bits).
    TAG_BITS = 64 - PageSize.SUPER_2MB.offset_bits

    def __init__(self, entries: int = 16) -> None:
        if entries <= 0:
            raise ValueError("TFT must have at least one entry")
        self.entries = entries
        self.stats = TFTStats()
        self.slots: List[Optional[int]] = [None] * entries

    # ------------------------------------------------------------------- API

    def lookup(self, virtual_address: int) -> bool:
        """True iff the address's 2MB region is known superpage-backed."""
        region = virtual_address >> _REGION_SHIFT
        if self.slots[region % self.entries] == region:
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def probe(self, virtual_address: int) -> bool:
        """Side-effect-free :meth:`lookup` (no stats)."""
        region = region_2mb(virtual_address)
        return self.slots[region % self.entries] == region

    def fill(self, virtual_address: int) -> None:
        """Mark the 2MB region of ``virtual_address`` as superpage-backed.

        Called on page-walk completion for 2MB leaves and on fills into the
        2MB L1 TLB (paper Fig. 5 step 8); evicts the slot's occupant.
        """
        region = region_2mb(virtual_address)
        self.slots[region % self.entries] = region

    def invalidate(self, virtual_address: int) -> bool:
        """Drop the region entry (superpage splintered: SEESAW's
        ``invlpg`` extension, which the TLB hierarchy applies).

        Returns True if an entry was removed.
        """
        region = region_2mb(virtual_address)
        slot = region % self.entries
        if self.slots[slot] != region:
            return False
        self.slots[slot] = None
        return True

    def flush(self) -> None:
        """Clear the table (every context switch, paper §IV-C3)."""
        self.slots = [None] * self.entries

    def occupancy(self) -> int:
        """Number of valid entries."""
        return self.entries - self.slots.count(None)

    @property
    def storage_bytes(self) -> float:
        """Approximate storage: 43-bit tags (16 entries -> 86B, the
        paper's number)."""
        return self.entries * self.TAG_BITS / 8
