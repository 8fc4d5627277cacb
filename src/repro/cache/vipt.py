"""Baseline virtually-indexed, physically-tagged (VIPT) L1 data cache.

The baseline the paper compares against (Fig. 1c): the set index must fit in
the 4KB page offset, so with 64B lines the cache has at most 64 sets and is
grown by adding ways (32KB→8w, 64KB→16w, 128KB→32w).  Because the index bits
lie inside the page offset, the virtual and physical index are identical and
the cache can be modeled as physically addressed; the *tags* are physical.

Every lookup probes all ways of the selected set — the latency and energy
cost SEESAW attacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.devtools import sanitize as _sanitize
from repro.mem.address import PAGE_SIZE_4KB, CACHE_LINE_SIZE, PageSize
from repro.cache.basic import SetAssociativeCache


@dataclass
class CoherenceProbeResult:
    """Outcome of a coherence (physical-address) probe into the L1."""

    present: bool
    ways_probed: int
    dirty: bool = False


@dataclass
class L1Timing:
    """Hit latencies for an L1 configuration (paper Table III row).

    ``base_hit_cycles`` is the full-associativity lookup (all ways);
    ``super_hit_cycles`` is the partitioned lookup SEESAW achieves for
    TFT-confirmed superpage accesses.  Baseline designs use only the former.
    """

    base_hit_cycles: int
    super_hit_cycles: int
    tft_cycles: int = 1

    #: fraction of the load-to-use latency at which the tag comparison —
    #: and hence miss detection — completes (the rest is data mux/align).
    TAG_PATH_FRACTION = 0.55

    def miss_detect_cycles(self, lookup_cycles: int = None) -> int:
        """Cycles until a miss is declared for a lookup of the given
        load-to-use latency (defaults to the full base lookup)."""
        lookup = (self.base_hit_cycles if lookup_cycles is None
                  else lookup_cycles)
        return max(1, round(lookup * self.TAG_PATH_FRACTION))


class ViptL1Cache:
    """Baseline VIPT L1: index from page-offset bits, probe all ways.

    Args:
        size_bytes: capacity; with 64B lines the set count is fixed at
            ``4096 / 64 = 64`` by the VIPT constraint, so associativity is
            ``size_bytes / 4096``.
        timing: hit latencies (Table III).
        name: reporting label.
    """

    #: VIPT constraint: index + byte-offset bits must fit in the 4KB offset.
    MAX_SETS = PAGE_SIZE_4KB // CACHE_LINE_SIZE

    def __init__(self, size_bytes: int, timing: L1Timing,
                 name: str = "vipt-l1", sanitize: bool = False) -> None:
        ways = size_bytes // (self.MAX_SETS * CACHE_LINE_SIZE)
        if ways < 1:
            raise ValueError("cache smaller than one way per VIPT set")
        self.timing = timing
        self.name = name
        self.store = SetAssociativeCache(size_bytes, ways, name=name)
        self._sanitize = bool(sanitize) or _sanitize.enabled()
        # Per-access constants, folded once (timing objects are immutable
        # in practice; tests that mutate them construct fresh caches).
        self._ways = self.store.ways
        self._base_hit_cycles = timing.base_hit_cycles
        self._miss_detect = timing.miss_detect_cycles()

    # ------------------------------------------------------------- properties

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
        """CPU-side lookup.  All ways of the indexed set are probed.

        Every L1 design returns the same plain tuple, so the
        per-reference path allocates no result object: ``(hit,
        latency_cycles, ways_probed, miss_detect_cycles)``.
        ``miss_detect_cycles`` is the cycles until a miss is declared and
        the next level can be probed: tag comparison finishes before the
        data mux and aligners, so it is a fraction of the load-to-use
        latency (:meth:`L1Timing.miss_detect_cycles`).
        """
        if self._sanitize:
            _sanitize.check_vipt_index(self.store, virtual_address,
                                       physical_address, self.name)
        hit = self.store.probe(physical_address, is_write)
        return hit, self._base_hit_cycles, self._ways, self._miss_detect

    def fill(self, physical_address: int, page_size: PageSize,
             dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install a line after a miss is serviced by the next level;
        returns the evicted ``(physical line, dirty)``, or None.  Every L1
        design's ``fill`` takes the page size; only SEESAW's placement
        depends on it."""
        return self.store.fill(physical_address, dirty=dirty)

    def coherence_probe(self, physical_address: int,
                        invalidate: bool = False) -> CoherenceProbeResult:
        """Coherence lookup by physical address: probes all ways (baseline)."""
        self.store.stats.ways_probed += self.ways
        found = self.store.locate(physical_address)
        if found is None:
            return CoherenceProbeResult(present=False, ways_probed=self.ways)
        cache_set, way = found
        dirty = cache_set.dirty[way]
        if invalidate:
            cache_set.invalidate(way)
        return CoherenceProbeResult(present=True, ways_probed=self.ways,
                                    dirty=dirty)
