"""Physically-indexed, physically-tagged (PIPT) L1 alternative.

The paper's Fig. 14 compares SEESAW against "other approaches" at large
cache sizes: converting the L1 to PIPT frees the set count from the page
offset (any associativity becomes possible, so lookup can be fast again) but
serializes the TLB before the cache — every access pays the translation
latency up front (paper Fig. 1a).
"""

from __future__ import annotations

from repro.mem.address import PageSize
from repro.cache.basic import SetAssociativeCache
from repro.cache.vipt import L1Timing, ViptL1Cache


class PiptL1Cache:
    """PIPT L1: free choice of sets/ways, TLB serialized before lookup.

    Args:
        size_bytes: capacity.
        ways: associativity (unconstrained — the PIPT advantage).
        hit_cycles: cache-array lookup latency for this (size, ways) point.
        tlb_latency: added to *every* access since translation must finish
            before indexing (the PIPT penalty).
    """

    def __init__(self, size_bytes: int, ways: int, hit_cycles: int,
                 tlb_latency: int = 1, name: str = "pipt-l1") -> None:
        self.timing = L1Timing(base_hit_cycles=hit_cycles,
                               super_hit_cycles=hit_cycles)
        self.name = name
        self.store = SetAssociativeCache(size_bytes, ways, name=name)
        # Per-access constants, folded once (see ViptL1Cache).
        self._hit_cycles = tlb_latency + hit_cycles
        self._miss_detect = tlb_latency + self.timing.miss_detect_cycles()

    @property
    def ways(self) -> int:
        return self.store.ways

    @property
    def size_bytes(self) -> int:
        return self.store.size_bytes

    @property
    def stats(self):
        return self.store.stats

    def access_raw(self, virtual_address: int, physical_address: int,
                   page_size: PageSize, is_write: bool = False) -> "tuple":
        """CPU lookup, returning :meth:`ViptL1Cache.access_raw`'s tuple.
        Translation latency is serialized before the array, so both
        latencies include the TLB: a miss is declared a tag path after
        translation finishes."""
        hit = self.store.probe(physical_address, is_write=is_write)
        return hit, self._hit_cycles, self.store.ways, self._miss_detect

    # Installs and coherence probes index with the PA, as in VIPT.
    fill = ViptL1Cache.fill
    coherence_probe = ViptL1Cache.coherence_probe
