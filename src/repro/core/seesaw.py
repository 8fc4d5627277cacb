"""The SEESAW L1 data cache (paper §IV).

SEESAW keeps the VIPT structure (64 sets indexed from page-offset bits,
physical tags) but way-partitions every set and adds a Translation Filter
Table.  Lookup proceeds speculating a superpage access:

* **TFT hit** — the address is definitely in a 2MB superpage, so the
  partition named by the VA's partition bits is the only place the line can
  be; probe just those ways.  Hit: fast latency.  Miss: normal miss, with
  the lookup-energy saving intact (paper Table I, rows 1-2).
* **TFT miss** — unknown page size; the speculative partition is probed in
  cycle 1 and the remaining partitions in cycle 2, matching baseline VIPT
  latency and energy (Table I, rows 3-4).

Fills use the ``4way`` insertion policy by default: the victim comes from
the partition the *physical* address names, which also lets every coherence
probe (base page or superpage) touch a single partition (paper §IV-C1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.devtools import sanitize as _sanitize
from repro.mem.address import CACHE_LINE_SIZE, PageSize
from repro.cache.basic import SetAssociativeCache
from repro.cache.vipt import CoherenceProbeResult, L1Timing
from repro.cache.way_predictor import MRUWayPredictor
from repro.core.adaptive_wp import WayPredictionGate
from repro.core.insertion import InsertionPolicy
from repro.core.partition import WayPartitioning
from repro.core.tft import TranslationFilterTable


@dataclass
class SeesawStats:
    """SEESAW-specific counters layered over the store's CacheStats.

    The superpage and TFT-missed counters drive Fig. 13: of all accesses
    to superpage-backed data, how many did the TFT fail to identify, split
    by whether the L1 lookup ultimately hit or missed.
    """

    superpage_accesses: int = 0
    fast_hits: int = 0              # TFT hit + partition tag match
    tft_missed_superpage_l1_hits: int = 0
    tft_missed_superpage_l1_misses: int = 0
    coherence_probes: int = 0
    coherence_ways_probed: int = 0
    promotion_sweep_cycles: int = 0

    @property
    def tft_missed_superpage_accesses(self) -> int:
        return (self.tft_missed_superpage_l1_hits
                + self.tft_missed_superpage_l1_misses)

    def tft_superpage_miss_fraction(self) -> float:
        """Fraction of superpage accesses the TFT failed to identify."""
        if not self.superpage_accesses:
            return 0.0
        return self.tft_missed_superpage_accesses / self.superpage_accesses


class SeesawL1Cache:
    """Way-partitioned, TFT-guided VIPT L1 data cache.

    Args:
        size_bytes: capacity (32KB-128KB in the paper).  Sets are fixed at
            64 by the VIPT constraint, so associativity is size/4KB.
        timing: base/superpage hit latencies for this (size, frequency)
            point (paper Table III).
        partition_ways: ways per partition (paper: 4, i.e. 16KB partitions).
        insertion: victim-selection policy (paper default ``4way``).
        tft_entries: TFT size (paper default 16).  The TLB hierarchy of
            the cache's core holds the same ``tft`` and fills and
            invalidates it (``SplitTLBHierarchy(tft=...)``).
        way_predictor: optional MRU predictor for the WP+SEESAW design
            point of Fig. 15.
        wp_gate: optional confidence gate that dynamically disables the
            way predictor during poor-locality phases (the paper's §VI-F
            future-work scheme).

    A way misprediction on a present line costs a second lookup of the
    probed scope: the whole set on the TFT-miss path, but only the
    partition on the TFT-hit path — SEESAW "reduce[s] the way-predictor's
    misprediction penalty for superpage accesses" (paper §IV-B2).
    """

    MAX_SETS = ViptMaxSets = 64

    #: cycles charged per promotion-triggered cache sweep (paper: 150-200;
    #: hidden under the TLB-shootdown window).
    PROMOTION_SWEEP_CYCLES = 175

    def __init__(self, size_bytes: int, timing: L1Timing,
                 partition_ways: int = 4,
                 insertion: InsertionPolicy = InsertionPolicy.FOUR_WAY,
                 tft_entries: int = 16,
                 way_predictor: Optional[MRUWayPredictor] = None,
                 wp_gate: Optional[WayPredictionGate] = None,
                 name: str = "seesaw-l1", sanitize: bool = False) -> None:
        num_sets = self.MAX_SETS
        ways = size_bytes // (num_sets * CACHE_LINE_SIZE)
        if ways < partition_ways:
            # Small caches degenerate to a single partition.
            partition_ways = ways
        self.timing = timing
        self.name = name
        self.insertion = insertion
        self.partitioning = WayPartitioning(total_ways=ways,
                                            partition_ways=partition_ways,
                                            num_sets=num_sets)
        self.tft = TranslationFilterTable(entries=tft_entries)
        self.way_predictor = way_predictor
        self.wp_gate = wp_gate
        self.store = SetAssociativeCache(size_bytes, ways, name=name)
        self.seesaw_stats = SeesawStats()
        self._sanitize = bool(sanitize) or _sanitize.enabled()
        # Per-access constants folded once (see ViptL1Cache): timing, the
        # store's set and tag split, and the partition geometry.
        self._super_hit_cycles = timing.super_hit_cycles
        self._base_hit_cycles = timing.base_hit_cycles
        self._miss_detect = timing.miss_detect_cycles()
        self._set_shift = self.store.offset_bits
        self._set_mask = self.store._index_mask
        self._tag_shift = self.store._tag_shift
        partitioning = self.partitioning
        self._partition_low_bit = partitioning._low_bit
        self._partition_mask = partitioning._partition_mask
        self._partition_way_ranges = partitioning._partition_way_ranges
        self._partition_ways = partitioning.partition_ways
        self._total_ways = partitioning.total_ways
        self._single_partition_probes = \
            insertion.coherence_probes_single_partition
        # The insertion policy's candidate ways depend only on whether the
        # fill is a superpage's and on its PA's partition: one table,
        # indexed ``[is_superpage][partition]``.
        self._fill_candidates = tuple(
            tuple(insertion.candidate_ways(
                partitioning, partition << self._partition_low_bit, size)
                  for partition in range(partitioning.num_partitions))
            for size in (PageSize.BASE_4KB, PageSize.SUPER_2MB))

    # ------------------------------------------------------------ properties

    @property
    def ways(self) -> int:
        return self.store.ways

    @property
    def size_bytes(self) -> int:
        return self.store.size_bytes

    @property
    def stats(self):
        return self.store.stats

    # ------------------------------------------------------------ OS events

    def on_region_promoted(self, virtual_base: int,
                           old_physical_bases: Sequence[int]) -> None:
        """Promotion sweep (paper §IV-C2).

        Lines cached under the retired base-page frames could sit in a
        partition the post-promotion lookup will never probe, so they are
        evicted wholesale.  The sweep cost rides the 150-200-cycle TLB
        invalidation instruction and is charged to
        ``seesaw_stats.promotion_sweep_cycles``.
        """
        for physical_base in old_physical_bases:
            for offset in range(0, int(PageSize.BASE_4KB), CACHE_LINE_SIZE):
                self.store.invalidate_line(physical_base + offset)
        self.seesaw_stats.promotion_sweep_cycles += \
            self.PROMOTION_SWEEP_CYCLES
        if self._sanitize:
            # A promotion rearranges the region's partition mapping; verify
            # every surviving line still sits where its PA says it must.
            _sanitize.check_partition_residency(self)

    def on_context_switch(self) -> None:
        """The TFT carries no ASIDs, so it flushes on context switches."""
        self.tft.flush()

    # ------------------------------------------------------------------- API

    def access_raw(self, virtual_address: int, physical_address: int,
                   page_size: PageSize, is_write: bool = False) -> "tuple":
        """CPU-side lookup (paper Table I), returning
        :meth:`ViptL1Cache.access_raw`'s tuple.

        The physical address (used for the tag compare) arrives from the
        parallel TLB lookup, exactly as in baseline VIPT; the TFT outcome
        decides how many ways were probed and the resulting latency.  A
        TFT-hit miss saves energy, not latency: miss detection completes
        at the design's full tag path.
        """
        if self._sanitize:
            _sanitize.check_vipt_index(self.store, virtual_address,
                                       physical_address, self.name)
            _sanitize.check_partition_consistency(
                self.partitioning, virtual_address, physical_address,
                page_size, self.name)
        store = self.store
        stats = store.stats
        seesaw_stats = self.seesaw_stats
        set_index = (physical_address >> self._set_shift) & self._set_mask
        cache_set = store._sets.get(set_index)
        if cache_set is None:
            cache_set = store.set_at(set_index)
        # A set holds a tag at most once, so one scan finds its way; the
        # probed partitions then decide whether this lookup sees it.
        tags = cache_set.tags
        tag = physical_address >> self._tag_shift
        way = tags.index(tag) if tag in tags else None
        tft_hit = self.tft.lookup(virtual_address)
        is_super = page_size.is_superpage
        if is_super:
            seesaw_stats.superpage_accesses += 1
        elif tft_hit and self._sanitize:
            raise _sanitize.SanitizerError(
                f"{self.name}: TFT hit for a base-page access at "
                f"va={virtual_address:#x} — a corrupted TFT entry "
                f"breaks the no-false-positive guarantee (paper §IV-A)")

        predict_this_access = self.way_predictor is not None and (
            self.wp_gate is None or self.wp_gate.should_predict())
        if tft_hit:
            # Rows 1-2 of Table I: only the partition the VA names is
            # probed.
            latency = self._super_hit_cycles
            ways_probed = self._partition_ways
            partition_ways = self._partition_way_ranges[
                (virtual_address >> self._partition_low_bit)
                & self._partition_mask]
            if way is not None and way not in partition_ways:
                way = None
            if predict_this_access:
                predicted = self.way_predictor.predict(
                    set_index, candidates=list(partition_ways))
                wp_correct = self.way_predictor.record_outcome(
                    set_index, way, predicted)
                if self.wp_gate is not None:
                    self.wp_gate.update(bool(wp_correct))
                if wp_correct:
                    ways_probed = 1
                elif way is not None:
                    # Second pass re-reads only this partition.
                    latency += self._super_hit_cycles
            hit = way is not None
            if hit:
                seesaw_stats.fast_hits += 1
        else:
            # Rows 3-4: speculative partition in cycle 1, rest in cycle 2.
            latency = self._base_hit_cycles
            ways_probed = self._total_ways
            if predict_this_access:
                # Without a TFT hit the predictor works over the whole set
                # (the plain way-prediction design of Fig. 15): a correct
                # prediction reads one way, a wrong one re-reads the set
                # and pays the replay penalty.
                predicted = self.way_predictor.predict(set_index)
                wp_correct = self.way_predictor.record_outcome(
                    set_index, way, predicted)
                if self.wp_gate is not None:
                    self.wp_gate.update(bool(wp_correct))
                if wp_correct:
                    ways_probed = 1
                elif way is not None:
                    # Second pass re-reads the whole set.
                    latency += self._base_hit_cycles
            hit = way is not None
            if is_super:
                if hit:
                    seesaw_stats.tft_missed_superpage_l1_hits += 1
                else:
                    seesaw_stats.tft_missed_superpage_l1_misses += 1

        stats.ways_probed += ways_probed
        if hit and self._sanitize and self._single_partition_probes:
            # Under 4way insertion a hit must land in the PA's partition;
            # anywhere else means the partition map desynchronized.
            expected = self.partitioning.partition_of(physical_address)
            actual = self.partitioning.partition_of_way(way)
            _sanitize.check(
                actual == expected,
                f"{self.name}: hit for pa={physical_address:#x} found in "
                f"partition {actual} (way {way}) but the physical address "
                f"names partition {expected} — partition map desynchronized")
        if hit:
            order = cache_set.order
            order.remove(way)
            order.append(way)
            if is_write:
                cache_set.dirty[way] = True
            stats.hits += 1
        else:
            stats.misses += 1
        # Table I: a TFT-hit miss saves energy, not latency — the miss is
        # declared (and L2 probed) at the same tag-path point as the
        # baseline.
        return hit, latency, ways_probed, self._miss_detect

    def fill(self, physical_address: int, page_size: PageSize,
             dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install a line; the victim scope follows the insertion policy.
        Returns the evicted ``(physical line, dirty)``, or None."""
        is_super = page_size.is_superpage
        candidates = self._fill_candidates[is_super][
            (physical_address >> self._partition_low_bit)
            & self._partition_mask]
        victim = self.store.fill(physical_address, dirty=dirty,
                                 candidate_ways=candidates)
        if self.way_predictor is not None:
            # The filled way is now its set's most recent one.
            set_index = (physical_address >> self._set_shift) & self._set_mask
            self.way_predictor.update_on_fill(
                set_index, self.store._sets[set_index].order[-1])
        return victim

    def coherence_probe(self, physical_address: int,
                        invalidate: bool = False) -> CoherenceProbeResult:
        """Coherence lookup (paper §IV-C1).

        Under the ``4way`` insertion policy the physical address pins the
        line to one partition, so only ``partition_ways`` ways are probed —
        for base pages and superpages alike.  Under ``4way-8way`` the whole
        set must be searched.
        """
        if self._single_partition_probes:
            ways: Sequence[int] = self._partition_way_ranges[
                (physical_address >> self._partition_low_bit)
                & self._partition_mask]
            ways_probed = self._partition_ways
        else:
            ways = range(self._total_ways)
            ways_probed = self._total_ways
        seesaw_stats = self.seesaw_stats
        seesaw_stats.coherence_probes += 1
        seesaw_stats.coherence_ways_probed += ways_probed
        self.store.stats.ways_probed += ways_probed
        found = self.store.locate(physical_address)
        if found is None or found[1] not in ways:
            return CoherenceProbeResult(present=False, ways_probed=ways_probed)
        cache_set, way = found
        dirty = cache_set.dirty[way]
        if invalidate:
            cache_set.invalidate(way)
        return CoherenceProbeResult(present=True, ways_probed=ways_probed,
                                    dirty=dirty)
