"""Property-based tests on cross-module invariants.

Where ``test_properties.py`` pins single data structures, these exercise
interactions: the OS layer against the page table and buddy allocator
under random splinter/promote churn, the VIVT synonym filter under random
fill/write/probe sequences, the coherence directory against the L1s it
tracks, and the sampled lane's fast warmer against translation replay.
"""

import dataclasses
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.cache.basic import SetAssociativeCache
from repro.cache.vipt import L1Timing, ViptL1Cache
from repro.cache.vivt import VivtL1Cache
from repro.coherence.directory import Directory
from repro.energy.accounting import EnergyAccountant
from repro.energy.sram import SRAMModel
from repro.mem.address import PAGE_SIZE_2MB, PAGE_SIZE_4KB, PageSize
from repro.mem.os_policy import MemoryManager, THPPolicy
from repro.mem.physical import PhysicalMemory
from repro.mem.page_table import PageTable, TranslationFault
from repro.sampling.runner import _fast_warmable, _warm_span
from repro.sim.config import SystemConfig
from repro.sim.system import SystemSimulator
from repro.tlb.hierarchy import SplitTLBHierarchy
from repro.workloads.suite import cached_trace
from tests.test_properties import _ReferenceTLB, _tlb_fields

TIMING = L1Timing(base_hit_cycles=2, super_hit_cycles=1)


def directory_over(caches):
    """A directory over 32KB 8-way L1s, charging an energy accountant."""
    return Directory(caches, EnergyAccountant(
        sram=SRAMModel(), l1_size_bytes=32 * 1024, l1_ways=8))


class TestOsChurnInvariants:
    @given(st.lists(st.tuples(st.sampled_from(["touch", "splinter",
                                               "promote"]),
                              st.integers(min_value=0, max_value=5)),
                    min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_translations_survive_arbitrary_churn(self, operations):
        """After any interleaving of touch/splinter/promote on a handful
        of regions, every previously touched address still translates and
        physical frame accounting stays consistent."""
        memory = PhysicalMemory(64 * 1024 * 1024)
        manager = MemoryManager(memory, thp_policy=THPPolicy.ALWAYS)
        table = manager.page_table
        touched = set()
        for op, region in operations:
            base = 0x4000_0000 + region * PAGE_SIZE_2MB
            if op == "touch":
                manager.touch(base + 123)
                touched.add(base + 123)
            elif op == "splinter":
                if (table.is_mapped(base)
                        and table.page_size_of(base)
                        is PageSize.SUPER_2MB):
                    manager.splinter_superpage(base)
            else:
                if (table.is_mapped(base)
                        and table.page_size_of(base) is PageSize.BASE_4KB):
                    manager.promote_region(base, fault_in_missing=True)
        for address in touched:
            assert table.is_mapped(address)
        # Frame accounting: free + allocated == total.
        allocator = memory.allocator
        allocated = sum(1 << order
                        for order in allocator._allocated.values())
        assert allocator.free_frames() + allocated == allocator.total_frames

    @given(st.integers(min_value=0, max_value=3),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_splinter_promote_cycles_preserve_size_semantics(self, region,
                                                             cycles):
        memory = PhysicalMemory(64 * 1024 * 1024)
        manager = MemoryManager(memory, thp_policy=THPPolicy.ALWAYS)
        base = 0x4000_0000 + region * PAGE_SIZE_2MB
        manager.touch(base)
        table = manager.page_table
        for _ in range(cycles):
            manager.splinter_superpage(base)
            assert table.page_size_of(base) is PageSize.BASE_4KB
            assert manager.promote_region(base,
                                          fault_in_missing=True) is not None
            assert table.page_size_of(base) is PageSize.SUPER_2MB


class TestVivtSynonymInvariants:
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=3),      # virtual alias index
        st.integers(min_value=0, max_value=15),     # physical line index
        st.booleans()),                              # write?
        min_size=1, max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_no_stale_synonym_after_writes(self, operations):
        """After any fill/write sequence, a write through one alias leaves
        no *other* valid alias of the same physical line (the VIVT
        correctness requirement)."""
        cache = VivtL1Cache(16 * 1024, ways=4, hit_cycles=1)
        alias_bases = [0x10_0000, 0x20_0000, 0x30_0000, 0x40_0000]
        for alias, pline, is_write in operations:
            va = alias_bases[alias] + pline * 64
            pa = 0x9_0000 + pline * 64
            cache.fill(va, pa, PageSize.BASE_4KB)
            if is_write:
                cache.access_raw(va, pa, PageSize.BASE_4KB, is_write=True)
                # No other alias of pa may remain cached.
                others = [alias_bases[a] + pline * 64 for a in range(4)
                          if a != alias]
                for other in others:
                    cache_set = cache.store.set_at(
                        cache.store.set_index(other))
                    way = cache_set.find(cache.store.tag_of(other))
                    assert way is None

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.integers(min_value=0, max_value=15)),
                    min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_coherence_probe_finds_any_cached_alias(self, fills):
        cache = VivtL1Cache(16 * 1024, ways=4, hit_cycles=1)
        alias_bases = [0x10_0000, 0x20_0000, 0x30_0000, 0x40_0000]
        for alias, pline in fills:
            va = alias_bases[alias] + pline * 64
            pa = 0x9_0000 + pline * 64
            cache.fill(va, pa, PageSize.BASE_4KB)
            assert cache.coherence_probe(pa).present


class TestDirectoryInvariants:
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=3),      # core
        st.integers(min_value=0, max_value=7),      # line
        st.sampled_from(["read", "write", "evict"])),
        min_size=1, max_size=80))
    @settings(max_examples=30, deadline=None)
    def test_single_writer_invariant(self, operations):
        """After any transaction sequence, a write leaves exactly one
        registered sharer for the line."""
        caches = [ViptL1Cache(32 * 1024, TIMING) for _ in range(4)]
        directory = directory_over(caches)
        for core, line_index, op in operations:
            address = 0x1000 + line_index * 64
            if op == "read":
                caches[core].fill(address, PageSize.BASE_4KB)
                directory.cpu_read(core, address)
            elif op == "write":
                caches[core].fill(address, PageSize.BASE_4KB, dirty=True)
                directory.cpu_write(core, address)
                assert directory.sharer_count(address) == 1
                # No other cache still holds the line.
                for other in range(4):
                    if other != core:
                        assert not caches[other].coherence_probe(
                            address).present
            else:
                # Evictions are driven by the L1: the line leaves the
                # cache *and* the directory is notified (as the system
                # simulator does with the victim an L1 fill returns).
                caches[core].store.invalidate_line(address)
                directory.evict(core, address)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                              st.integers(min_value=0, max_value=7)),
                    min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_sharer_count_never_exceeds_cores(self, reads):
        caches = [ViptL1Cache(32 * 1024, TIMING) for _ in range(4)]
        directory = directory_over(caches)
        for core, line_index in reads:
            address = 0x1000 + line_index * 64
            directory.cpu_read(core, address)
            assert 1 <= directory.sharer_count(address) <= 4


class TestAddressDecomposition:
    """Round-trip properties of the precomputed index/tag/line masks.

    The hot loop decomposes addresses with ``_index_mask`` /
    ``_tag_shift`` / ``_line_mask`` folded at construction; these
    properties pin that the decomposition is lossless and geometry-true
    for every cache shape the simulator instantiates.
    """

    GEOMETRIES = [(32 * 1024, 8, 64), (16 * 1024, 4, 64),
                  (4 * 1024, 1, 64), (2 * 1024 * 1024, 16, 64)]

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1),
           st.sampled_from(GEOMETRIES))
    def test_decompose_recompose_round_trip(self, address, geometry):
        size_bytes, ways, line_size = geometry
        store = SetAssociativeCache(size_bytes, ways, line_size=line_size)
        tag = store.tag_of(address)
        index = store.set_index(address)
        offset = address & (line_size - 1)
        assert 0 <= index < store.num_sets
        recomposed = ((tag << store._tag_shift)
                      | (index << store.offset_bits) | offset)
        assert recomposed == address
        assert store.line_address(address) == address - offset

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1),
           st.integers(min_value=0, max_value=63))
    def test_all_bytes_of_a_line_decompose_identically(self, address,
                                                       byte_offset):
        store = SetAssociativeCache(32 * 1024, 8)
        base = store.line_address(address)
        sibling = base + byte_offset
        assert store.set_index(sibling) == store.set_index(base)
        assert store.tag_of(sibling) == store.tag_of(base)
        assert store.line_address(sibling) == base


class TestOptimizedCachePathEquivalence:
    """The unconstrained ``fill`` path (``candidate_ways is None``) must
    be indistinguishable — stats, per-way contents, LRU order — from the
    constrained path given every way as a candidate."""

    @given(st.lists(st.tuples(st.sampled_from(["probe", "fill"]),
                              st.integers(min_value=0, max_value=255),
                              st.booleans()),
                    min_size=1, max_size=60))
    def test_fill_fast_path_matches_reference_composition(self, operations):
        fast = SetAssociativeCache(4 * 1024, 4)   # 16 sets: heavy conflicts
        reference = SetAssociativeCache(4 * 1024, 4)
        all_ways = list(range(4))
        for op, line_number, flag in operations:
            address = line_number * 64
            if op == "probe":
                assert (fast.probe(address, is_write=flag)
                        == reference.probe(address, is_write=flag))
            else:
                fast.fill(address, dirty=flag)
                reference.fill(address, dirty=flag,
                               candidate_ways=all_ways)
        assert fast.stats == reference.stats
        assert set(fast._sets) == set(reference._sets)
        for index, cache_set in fast._sets.items():
            twin = reference._sets[index]
            assert cache_set.order == twin.order
            assert cache_set.tags == twin.tags
            assert cache_set.dirty == twin.dirty

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=511),
                              st.booleans()),
                    min_size=1, max_size=80))
    def test_vipt_access_raw_matches_store_probe_for_base_pages(
            self, references):
        """For 4KB pages (no TFT involvement) the inlined probe inside
        ``access_raw`` must produce the exact hit stream and counters of
        the unit-tested ``SetAssociativeCache.probe``."""
        vipt = ViptL1Cache(32 * 1024, TIMING)
        reference = SetAssociativeCache(vipt.size_bytes, vipt.ways)
        page = PageSize.BASE_4KB
        for line_number, is_write in references:
            address = line_number * 64
            hit = vipt.access_raw(address, address, page, is_write)[0]
            assert hit == reference.probe(address, is_write=is_write)
            if not hit:
                vipt.fill(address, page, dirty=is_write)
                reference.fill(address, dirty=is_write)
        assert vipt.stats.hits == reference.stats.hits
        assert vipt.stats.misses == reference.stats.misses
        assert vipt.stats.ways_probed == reference.stats.ways_probed


class TestTranslateRawEquivalence:
    """``SplitTLBHierarchy.translate_raw`` against the page table and one
    :class:`_ReferenceTLB` per TLB: parallel L1 probes, an L2 hit filling
    its page size's L1, and a walk filling the L2 and the L1.  On any
    access pattern the raw tuple (its latency, which alone says where
    the translation was found, includes the walk's) and every TLB
    counter must match."""

    PAGES = ([(0x1000 * (i + 1), 0x9000 + i * 0x1000, PageSize.BASE_4KB)
              for i in range(4)]
             + [(0x4000_0000 + i * PAGE_SIZE_2MB,
                 0x20_0000 * (i + 1), PageSize.SUPER_2MB)
                for i in range(2)])

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                              st.integers(min_value=0, max_value=4095)),
                    min_size=1, max_size=60))
    def test_raw_tuple_matches_reference_model(self, accesses):
        table = PageTable()
        for virtual, physical, size in self.PAGES:
            table.map(virtual, physical, size)
        # Every level is smaller than the page set, so L1 hits, L2 hits
        # and walks all recur.
        tlbs = SplitTLBHierarchy(
            table, l1_4kb_entries=2, l1_4kb_ways=1,
            l1_2mb_entries=1, l1_2mb_ways=1, l2_entries=4, l2_ways=2)
        l1 = {PageSize.BASE_4KB: _ReferenceTLB(2, 1, [PageSize.BASE_4KB]),
              PageSize.SUPER_2MB: _ReferenceTLB(1, 1, [PageSize.SUPER_2MB])}
        l2 = _ReferenceTLB(2, 2, [PageSize.BASE_4KB, PageSize.SUPER_2MB])
        for page_index, offset in accesses:
            virtual = self.PAGES[page_index][0] + offset
            hits = [model.lookup(virtual) for model in l1.values()]
            hit = next((entry for entry in hits if entry is not None), None)
            latency = 1
            if hit is None:
                latency = 1 + 7
                hit = l2.lookup(virtual)
                if hit is not None:
                    l1[hit[1]].fill(hit[0], hit[2], hit[1])
            if hit is None:
                mapping, references = table.walk(virtual)
                size = mapping.page_size
                vpn = mapping.virtual_base >> size.offset_bits
                ppn = mapping.physical_base >> size.offset_bits
                l2.fill(vpn, ppn, size)
                l1[size].fill(vpn, ppn, size)
                latency += references * 15
                hit = (vpn, size, ppn)
            _, size, ppn = hit
            expected = ((ppn << size.offset_bits)
                        | (virtual & size.offset_mask), size, latency)
            assert tlbs.translate_raw(virtual) == expected
        for tlb, model in ((tlbs.l1_4kb, l1[PageSize.BASE_4KB]),
                           (tlbs.l1_2mb, l1[PageSize.SUPER_2MB]),
                           (tlbs.l2_tlb, l2)):
            assert dataclasses.asdict(tlb.stats) == model.stats


class TestL1ProbeOrder:
    """``translate_raw`` probes the L1 TLB that hit last first, and on a
    hit counts the other one's miss without probing it.  Against a
    reference that probes both L1 TLBs on every translation, over random
    accesses across splinters and promotions (which shoot a page out of
    the other size's TLB) and THP policy flips, every TLB's stats and
    each set's entries in LRU order stay equal, and the reference never
    sees both L1 TLBs hit.  Both return the same raw tuple, whose
    latency says where the translation was found."""

    REGIONS = 4

    @pytest.mark.parametrize("l2_entries", (0, 8))
    @given(st.lists(st.one_of(
        st.tuples(st.just("access"),
                  st.integers(min_value=0, max_value=REGIONS - 1),
                  st.integers(min_value=0, max_value=5),
                  st.integers(min_value=0, max_value=4095)),
        st.tuples(st.just("splinter"),
                  st.integers(min_value=0, max_value=REGIONS - 1)),
        st.tuples(st.just("promote"),
                  st.integers(min_value=0, max_value=REGIONS - 1)),
        st.tuples(st.just("thp"), st.booleans())),
        min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_one_probe_per_hit_matches_two_probes(self, l2_entries,
                                                  operations):
        manager = MemoryManager(PhysicalMemory(64 * 1024 * 1024))
        table = manager.page_table
        tlbs = SplitTLBHierarchy(table, l1_4kb_entries=4, l1_4kb_ways=2,
                                 l1_2mb_entries=2, l1_2mb_ways=2,
                                 l2_entries=l2_entries, l2_ways=2)
        l1 = {PageSize.BASE_4KB: _ReferenceTLB(2, 2, [PageSize.BASE_4KB]),
              PageSize.SUPER_2MB: _ReferenceTLB(1, 2, [PageSize.SUPER_2MB])}
        l2 = (_ReferenceTLB(l2_entries // 2, 2,
                            [PageSize.BASE_4KB, PageSize.SUPER_2MB])
              if l2_entries else None)

        def shootdown(virtual_base, page_size):
            tlbs.invalidate(virtual_base, page_size)
            l1[page_size].invalidate(virtual_base, page_size)
            if l2 is not None:
                l2.invalidate(virtual_base, page_size)

        manager.tlbs = [SimpleNamespace(invalidate=shootdown)]

        def reference_translate(virtual):
            hits = [model.lookup(virtual) for model in l1.values()]
            assert hits.count(None) >= 1
            hit = next((entry for entry in hits if entry is not None), None)
            latency = 1
            if hit is None and l2 is not None:
                latency = 1 + 7
                hit = l2.lookup(virtual)
                if hit is not None:
                    l1[hit[1]].fill(hit[0], hit[2], hit[1])
            if hit is None:
                mapping, references = table.walk(virtual)
                size = mapping.page_size
                vpn = mapping.virtual_base >> size.offset_bits
                ppn = mapping.physical_base >> size.offset_bits
                if l2 is not None:
                    l2.fill(vpn, ppn, size)
                l1[size].fill(vpn, ppn, size)
                latency += references * 15
                hit = (vpn, size, ppn)
            _, size, ppn = hit
            return ((ppn << size.offset_bits)
                    | (virtual & size.offset_mask), size, latency)

        for op, *args in operations:
            if op == "thp":
                manager.thp_policy = (THPPolicy.ALWAYS if args[0]
                                      else THPPolicy.NEVER)
                continue
            base = 0x4000_0000 + args[0] * PAGE_SIZE_2MB
            if op == "access":
                virtual = base + args[1] * PAGE_SIZE_4KB + args[2]
                if not table.is_mapped(virtual):
                    # The run loop's demand paging: a faulting pass, the
                    # touch, then the retry.
                    for translate in (tlbs.translate_raw,
                                      reference_translate):
                        with pytest.raises(TranslationFault):
                            translate(virtual)
                    manager.touch(virtual)
                assert (tlbs.translate_raw(virtual)
                        == reference_translate(virtual))
            elif table.is_mapped(base):
                if op == "splinter":
                    if table.page_size_of(base) is PageSize.SUPER_2MB:
                        manager.splinter_superpage(base)
                elif table.page_size_of(base) is PageSize.BASE_4KB:
                    manager.promote_region(base, fault_in_missing=True)
            pairs = [(tlbs.l1_4kb, l1[PageSize.BASE_4KB]),
                     (tlbs.l1_2mb, l1[PageSize.SUPER_2MB])]
            if l2 is not None:
                pairs.append((tlbs.l2_tlb, l2))
            for tlb, model in pairs:
                assert dataclasses.asdict(tlb.stats) == model.stats
                assert [[_tlb_fields(entry) for entry in entries.values()]
                        for entries in tlb._sets] == model.sets


class TestFastWarmerEquivalence:
    """The sampled lane's O(distinct pages) warmer (``_warm_span_fast``)
    claims to leave every L1 TLB's contents, LRU order and ``_resident``
    count, and the TFT's contents, bit-exact to the per-reference
    ``translate_raw`` replay of ``_warm_span``.  Twin simulators warm one
    random span after one random detailed prefix, one per path; stats
    counters are excluded because the fast path skips them.  The TFT's
    final state is installed from the 2MB fills, so its geometry is an
    input too: the default 16 entries, 12 (not a power of two, so a slot
    is a true modulus), and 4, which evict far more."""

    LENGTH = 3000

    @staticmethod
    def _translation_state(sim):
        state = []
        for hierarchy in sim.tlbs:
            for tlb in (hierarchy.l1_4kb, hierarchy.l1_2mb):
                state.append(tlb._resident)
                state.append([list(entries.values())
                              for entries in tlb._sets])
        for l1 in sim.l1s:
            if hasattr(l1, "tft"):
                state.append(list(l1.tft.slots))
        return state

    @pytest.mark.parametrize("design", ("vipt", "seesaw"))
    @pytest.mark.parametrize("workload", ("gups", "mcf", "g500"))
    @given(prefix=st.integers(min_value=0, max_value=1500),
           span=st.integers(min_value=1, max_value=1500),
           tft_entries=st.sampled_from((16, 12, 4)))
    @example(prefix=600, span=1500, tft_entries=4)
    @settings(max_examples=3, deadline=None)
    def test_fast_span_matches_translation_replay(self, workload, design,
                                                  prefix, span, tft_entries):
        trace = cached_trace(workload, self.LENGTH, seed=5)
        config = SystemConfig(l1_design=design, seed=5,
                              tft_entries=tft_entries)
        fast, reference = (SystemSimulator(config, trace) for _ in range(2))
        stop = min(prefix + span, self.LENGTH)
        for sim, path in ((fast, True), (reference, False)):
            sim.run_until(prefix)
            _warm_span(sim, prefix, stop, {"fast": path})
        assert _fast_warmable(fast)
        assert (self._translation_state(fast)
                == self._translation_state(reference))
