"""Virtually-indexed, virtually-tagged (VIVT) L1 — the §VII alternative.

VIVT caches decouple the L1 from the TLB entirely: both index and tag come
from the virtual address, so no translation is needed before a hit.  The
cost is the machinery the paper's related-work section describes:

* **synonyms** — two virtual addresses mapping to one physical line may be
  cached twice; stores must find and fix every alias.  We model the
  standard solution, a reverse-map *synonym filter* that tracks, per
  physical line, the virtual tags cached for it, and charges extra probes
  whenever a store or coherence request touches an aliased line.
* **coherence** — probes carry physical addresses, so every probe consults
  the reverse map before it can find the line.
* **context switches** — without ASID tags the whole cache is flushed.

This design exists here as a comparator: it beats VIPT on hit latency
(no TLB on the hit path at all) but pays synonym-management energy and
flush costs — the trade-off that keeps VIPT "more commonly used in
real-world products" (paper §I).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Set, Tuple

from repro.mem.address import CACHE_LINE_SIZE, PageSize
from repro.cache.basic import SetAssociativeCache
from repro.cache.vipt import CoherenceProbeResult, L1Timing


class VivtL1Cache:
    """VIVT L1 with a reverse-map synonym filter.

    Args:
        size_bytes: capacity; sets/ways are unconstrained (the VIVT
            advantage — index bits need not fit the page offset).
        ways: associativity.
        hit_cycles: array lookup latency (no TLB serialization at all).
    """

    #: The store is searched by *virtual* address; the runtime sanitizer's
    #: physical-address holder checks must skip this design.
    physically_indexed = False

    def __init__(self, size_bytes: int, ways: int, hit_cycles: int,
                 name: str = "vivt-l1") -> None:
        self.timing = L1Timing(base_hit_cycles=hit_cycles,
                               super_hit_cycles=hit_cycles)
        self.name = name
        self.store = SetAssociativeCache(size_bytes, ways, name=name)
        # Per-access constants, folded once (see ViptL1Cache).
        self._hit_cycles = hit_cycles
        self._miss_detect = self.timing.miss_detect_cycles()
        # physical line -> set of cached *virtual* line addresses.
        self._reverse: Dict[int, Set[int]] = defaultdict(set)
        # virtual line -> physical line (so evictions clean the map).
        self._forward: Dict[int, int] = {}

    @property
    def ways(self) -> int:
        return self.store.ways

    @property
    def size_bytes(self) -> int:
        return self.store.size_bytes

    @property
    def stats(self):
        return self.store.stats

    # ------------------------------------------------------------------- API

    def access_raw(self, virtual_address: int, physical_address: int,
                   page_size: PageSize, is_write: bool = False) -> "tuple":
        """CPU lookup by virtual address — no translation on the hit
        path — returning :meth:`ViptL1Cache.access_raw`'s tuple.

        Stores to aliased physical lines must invalidate the other virtual
        copies (the synonym problem); each fixup costs extra probes, which
        is charged through ``ways_probed``.
        """
        hit = self.store.probe(virtual_address, is_write=is_write)
        ways_probed = self.store.ways
        if is_write and hit:
            ways_probed += self._fix_synonyms(virtual_address,
                                              physical_address)
        return hit, self._hit_cycles, ways_probed, self._miss_detect

    def _fix_synonyms(self, virtual_address: int,
                      physical_address: int) -> int:
        """Invalidate other virtual aliases of the written physical line.

        Returns extra ways probed (one set probe per alias).
        """
        vline = self.store.line_address(virtual_address)
        pline = physical_address & ~(CACHE_LINE_SIZE - 1)
        aliases = self._reverse.get(pline, set()) - {vline}
        extra = 0
        for alias in sorted(aliases):
            self.store.invalidate_line(alias)
            self._drop_mapping(alias)
            extra += self.ways
        return extra

    def fill(self, virtual_address: int, physical_address: int,
             page_size: PageSize,
             dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install a line under its *virtual* address, tracking the alias
        in the reverse map; returns the evicted ``(physical line,
        dirty)``, or None.  The store names a conflict victim by its
        virtual line; the LLC and the coherence fabric know it by the
        physical line the synonym filter maps it to, and it leaves the
        filter before the new line enters."""
        vline = self.store.line_address(virtual_address)
        pline = physical_address & ~(CACHE_LINE_SIZE - 1)
        victim = self.store.fill(virtual_address, dirty=dirty)
        if victim is not None:
            victim = self._drop_mapping(victim[0]), victim[1]
        self._reverse[pline].add(vline)
        self._forward[vline] = pline
        return victim

    def _drop_mapping(self, vline: int) -> Optional[int]:
        """Forget a virtual line; returns the physical line it mapped."""
        pline = self._forward.pop(vline, None)
        if pline is not None:
            aliases = self._reverse.get(pline)
            if aliases is not None:
                aliases.discard(vline)
                if not aliases:
                    del self._reverse[pline]
        return pline

    def coherence_probe(self, physical_address: int,
                        invalidate: bool = False) -> CoherenceProbeResult:
        """Coherence by physical address must go through the reverse map —
        one cache probe per cached virtual alias."""
        pline = physical_address & ~(CACHE_LINE_SIZE - 1)
        aliases = sorted(self._reverse.get(pline, ()))
        present = False
        dirty = False
        ways_probed = max(self.ways, self.ways * len(aliases))
        self.store.stats.ways_probed += ways_probed
        for alias in aliases:
            found = self.store.locate(alias)
            if found is None:
                continue
            cache_set, way = found
            present = True
            dirty = dirty or cache_set.dirty[way]
            if invalidate:
                cache_set.invalidate(way)
                self._drop_mapping(alias)
        return CoherenceProbeResult(present=present, ways_probed=ways_probed,
                                    dirty=dirty)

    def flush(self) -> int:
        """Context-switch flush (no ASID tags). Returns lines dropped."""
        dropped = self.store.valid_lines()
        for index, way, _ in self.store.iter_valid_lines():
            self.store.set_at(index).invalidate(way)
        self._reverse.clear()
        self._forward.clear()
        return dropped
