"""Property-based tests (hypothesis) on core data structures and invariants.

These pin down the algebraic properties the simulator's correctness rests
on: address-split round trips, buddy-allocator conservation, page-table
translation consistency across splinter/promote, TFT no-false-positive
guarantees, LRU behaviour, and the SEESAW invariant that a line is always
found where the insertion policy put it.
"""

import dataclasses
import pickle
from collections import OrderedDict

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.cache.basic import SetAssociativeCache
from repro.cache.replacement import lru_final_state
from repro.cache.vipt import L1Timing
from repro.core.partition import WayPartitioning
from repro.core.seesaw import SeesawL1Cache
from repro.core.tft import TranslationFilterTable
from repro.mem.address import (
    PAGE_SIZE_2MB,
    PageSize,
    page_base,
    page_number,
    page_offset,
)
from repro.mem.page_table import PageTable
from repro.mem.physical import BuddyAllocator, OutOfMemoryError
from repro.tlb.tlb import TLB

addresses = st.integers(min_value=0, max_value=(1 << 48) - 1)
page_sizes = st.sampled_from(list(PageSize))


class TestAddressProperties:
    @given(addresses, page_sizes)
    def test_split_recompose_round_trip(self, address, size):
        vpn = page_number(address, size)
        offset = page_offset(address, size)
        assert (vpn << size.offset_bits) | offset == address

    @given(addresses, page_sizes)
    def test_page_base_idempotent(self, address, size):
        base = page_base(address, size)
        assert page_base(base, size) == base
        assert base <= address < base + int(size)


class TestBuddyProperties:
    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                    max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_frame_conservation(self, orders):
        """allocated frames + free frames == total, always."""
        buddy = BuddyAllocator(8 * 1024 * 1024)
        total = buddy.total_frames
        held = []
        for order in orders:
            try:
                held.append((buddy.allocate(order), order))
            except OutOfMemoryError:
                pass
            allocated = sum(1 << o for _, o in held)
            assert buddy.free_frames() + allocated == total
        for frame, _ in held:
            buddy.free(frame)
        assert buddy.free_frames() == total

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_full_free_always_recoalesces(self, orders):
        buddy = BuddyAllocator(4 * 1024 * 1024)   # 2 x 2MB
        held = []
        for order in orders:
            frame = buddy.try_allocate(order)
            if frame is not None:
                held.append(frame)
        for frame in held:
            buddy.free(frame)
        assert buddy.available_blocks_at_or_above(9) == 2

    @given(st.integers(min_value=0, max_value=9))
    def test_allocation_alignment(self, order):
        buddy = BuddyAllocator(4 * 1024 * 1024)
        frame = buddy.allocate(order)
        assert frame % (1 << order) == 0


class TestPageTableProperties:
    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=0, max_value=200),
           st.integers(min_value=0, max_value=PAGE_SIZE_2MB - 1))
    @settings(max_examples=60, deadline=None)
    def test_translate_consistent_across_splinter(self, vregion, pregion,
                                                  offset):
        table = PageTable()
        vbase = vregion * PAGE_SIZE_2MB
        pbase = pregion * PAGE_SIZE_2MB
        table.map(vbase, pbase, PageSize.SUPER_2MB)
        before = table.translate(vbase + offset)
        table.splinter(vbase)
        assert table.translate(vbase + offset) == before

    @given(st.sets(st.integers(min_value=0, max_value=500), min_size=1,
                   max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_mapped_pages_all_translate(self, pages):
        table = PageTable()
        for page in pages:
            table.map(page << 12, (page + 1000) << 12, PageSize.BASE_4KB)
        for page in pages:
            assert table.translate(page << 12) == (page + 1000) << 12
        assert len(table) == len(pages)


class TestTFTProperties:
    @given(st.lists(st.integers(min_value=0, max_value=4000), min_size=1,
                    max_size=100),
           st.integers(min_value=0, max_value=4000))
    @settings(max_examples=60, deadline=None)
    def test_no_false_positives_ever(self, filled_regions, probe_region):
        """A TFT hit must imply the region was filled (and not evicted):
        the property SEESAW's correctness rests on."""
        tft = TranslationFilterTable(16)
        for region in filled_regions:
            tft.fill(region * PAGE_SIZE_2MB)
        if tft.probe(probe_region * PAGE_SIZE_2MB):
            assert probe_region in filled_regions

    @given(st.lists(st.integers(min_value=0, max_value=4000), max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_bounded_by_entries(self, regions):
        tft = TranslationFilterTable(16)
        for region in regions:
            tft.fill(region * PAGE_SIZE_2MB)
        assert 0 <= tft.occupancy() <= 16


def _touched_set(touches):
    """A one-set, 8-way cache whose line ``w`` sits in way ``w``, after a
    hit on the line of each way in ``touches``."""
    cache = SetAssociativeCache(8 * 64, 8)
    for way in range(8):
        cache.fill(way * 64)
    for way in touches:
        assert cache.probe(way * 64)
    return cache


class TestLRUProperties:
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                    max_size=100))
    def test_most_recent_touch_never_victim(self, touches):
        cache = _touched_set(touches)
        cache.fill(8 * 64)
        assert cache.locate(8 * 64)[1] != touches[-1]

    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=46),
           st.permutations(range(8)),
           st.lists(st.integers(min_value=0, max_value=7), max_size=46))
    def test_victim_is_oldest_distinct(self, prefix, every_way, suffix):
        touches = prefix + every_way + suffix
        cache = _touched_set(touches)
        last_seen = {way: i for i, way in enumerate(touches)}
        expected = min(last_seen, key=last_seen.get)
        assert cache.fill(8 * 64) == (expected * 64, False)
        assert cache.locate(8 * 64)[1] == expected


class TestLRUFinalState:
    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=300),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=1, max_value=16))
    def test_matches_per_set_ordered_dict_model(self, keys, set_bits, ways):
        mask = (1 << set_bits) - 1
        model = {}                 # insertion order == set first-touch order
        for key in keys:
            recency = model.setdefault(key & mask, OrderedDict())
            recency.pop(key, None)
            recency[key] = None    # most recent last
        expected = [(key, rank, len(recency))
                    for recency in model.values()
                    for rank, key in enumerate(recency)
                    if rank >= len(recency) - ways]
        array = np.array(keys, dtype=np.int64)
        survivors, rank, count = lru_final_state(array, array & mask, ways)
        assert list(zip(survivors.tolist(), rank.tolist(),
                        count.tolist())) == expected


def _cache_geometry():
    """(size_bytes, ways) with 1-32 sets and 1-16 ways."""
    return st.tuples(st.integers(min_value=0, max_value=5),
                     st.integers(min_value=1, max_value=16)).map(
        lambda g: ((1 << g[0]) * g[1] * 64, g[1]))


class TestCacheInstall:
    @given(_cache_geometry(),
           st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 14),
                              st.integers(min_value=0, max_value=63)),
                    max_size=300, unique_by=lambda t: t[0]))
    def test_install_equals_per_address_access(self, geometry, lines):
        size, ways = geometry
        addresses = [(line << 6) | offset for line, offset in lines]
        replayed = SetAssociativeCache(size, ways)
        for address in addresses:
            replayed.access(address)
        installed = SetAssociativeCache(size, ways)
        installed.install(addresses)
        # Contents, way positions, recency, stats and set creation order.
        assert pickle.dumps(installed) == pickle.dumps(replayed)

    @pytest.mark.parametrize("case", ["non-empty", "repeated line"])
    def test_install_refuses_states_without_a_closed_form(self, case):
        cache = SetAssociativeCache(4096, 4)
        addresses = [0, 64, 128]
        if case == "non-empty":
            cache.access(1 << 20)
        elif case == "repeated line":
            addresses.append(8)
        with pytest.raises(ValueError):
            cache.install(addresses)


class TestCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_access_twice_in_a_row_always_hits(self, raw_addresses):
        cache = SetAssociativeCache(32 * 1024, 8)
        for address in raw_addresses:
            cache.access(address)
            assert cache.access(address) is True

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_valid_lines_never_exceed_capacity(self, raw_addresses):
        cache = SetAssociativeCache(16 * 1024, 4)
        for address in raw_addresses:
            cache.access(address)
        assert cache.valid_lines() <= 16 * 1024 // 64

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20),
                    max_size=100),
           st.lists(st.integers(min_value=0, max_value=1 << 20),
                    min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_contains_leaves_the_cache_unchanged(self, filled, probed):
        cache = SetAssociativeCache(16 * 1024, 4)
        for address in filled:
            cache.access(address)
        before = pickle.dumps(cache)
        sets = list(cache._sets)
        resident = {address for _, _, address in cache.iter_valid_lines()}
        for address in probed:
            assert cache.contains(address) == (address & ~63 in resident)
        # No set materialised: a fresh cache stays installable.
        assert list(cache._sets) == sets
        assert pickle.dumps(cache) == before


class _ReferenceCache:
    """A readable model of an LRU :class:`SetAssociativeCache`.

    Per set: a way -> (tag, dirty) map of the valid ways and an explicit
    recency list, least recent first.  Sets start all-invalid with recency
    ``range(ways)``.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets, self.ways = num_sets, ways
        self.index_bits = num_sets.bit_length() - 1
        self.sets = {}
        self.stats = dict(hits=0, misses=0, ways_probed=0)

    def view(self, index):
        """(tag or None, dirty) per way, and the recency list."""
        lines, recency = self.sets.get(index, ({}, list(range(self.ways))))
        return ([lines.get(way, (None, False)) for way in range(self.ways)],
                recency)

    def _locate(self, address):
        index = (address >> 6) % self.num_sets
        tag = address >> (6 + self.index_bits)
        lines, recency = self.sets.setdefault(
            index, ({}, list(range(self.ways))))
        way = next((w for w, (t, _) in lines.items() if t == tag), None)
        return index, tag, lines, recency, way

    @staticmethod
    def _touch(recency, way):
        recency.remove(way)
        recency.append(way)

    def probe(self, address, is_write):
        _, _, lines, recency, way = self._locate(address)
        self.stats["ways_probed"] += self.ways
        if way is None:
            self.stats["misses"] += 1
            return False
        self._touch(recency, way)
        if is_write:
            lines[way] = (lines[way][0], True)
        self.stats["hits"] += 1
        return True

    def fill(self, address, dirty, candidates):
        """The way the line ends in, and the evicted (line, dirty) or
        None."""
        index, tag, lines, recency, way = self._locate(address)
        victim = None
        if way is not None:
            lines[way] = (tag, lines[way][1] or dirty)
        else:
            scope = range(self.ways) if candidates is None else candidates
            free = [w for w in scope if w not in lines]
            if free:
                way = free[0]
            else:
                way = next(w for w in recency if w in scope)
                old_tag, old_dirty = lines.pop(way)
                victim = ((((old_tag << self.index_bits) | index) << 6),
                          old_dirty)
            lines[way] = (tag, dirty)
        self._touch(recency, way)
        return way, victim

    def invalidate(self, address):
        _, _, lines, _, way = self._locate(address)
        return None if way is None else lines.pop(way)[1]

    def contains(self, address):
        return self._locate(address)[4] is not None


def _cache_view(cache, index):
    """A cache set in the model's terms (an absent set is all-invalid)."""
    cache_set = cache._sets.get(index)
    if cache_set is None:
        return [(None, False)] * cache.ways, list(range(cache.ways))
    return (list(zip(cache_set.tags, cache_set.dirty)),
            list(cache_set.order))


class TestCacheReferenceModel:
    """Every public cache operation against :class:`_ReferenceCache`:
    return values (each fill's victim), the way each fill lands in,
    stats, and each set's per-way tag, dirty flag and recency order after
    every step."""

    @given(st.integers(min_value=0, max_value=4),
           st.integers(min_value=1, max_value=8), st.data())
    def test_cache_matches_reference_model(self, set_bits, ways, data):
        num_sets = 1 << set_bits
        cache = SetAssociativeCache(num_sets * ways * 64, ways)
        model = _ReferenceCache(num_sets, ways)
        candidates = st.none() | st.lists(
            st.integers(min_value=0, max_value=ways - 1), min_size=1,
            unique=True)
        # A small pool of lines (up to ways + 2 tags per set) makes hits,
        # write hits, evictions and misses all frequent.
        pool = data.draw(st.lists(
            st.integers(min_value=0, max_value=num_sets * (ways + 2) - 1),
            min_size=1, max_size=2 * ways + 4, unique=True))
        operations = data.draw(st.lists(st.tuples(
            st.sampled_from(["probe", "fill", "invalidate", "contains"]),
            st.sampled_from(pool), st.integers(min_value=0, max_value=63),
            st.booleans(), candidates), min_size=30, max_size=100))
        for op, line, offset, flag, scope in operations:
            address = (line << 6) | offset
            if op == "probe":
                assert (cache.probe(address, is_write=flag)
                        == model.probe(address, flag))
            elif op == "fill":
                way, victim = model.fill(address, flag, scope)
                assert (cache.fill(address, dirty=flag, candidate_ways=scope)
                        == victim)
                assert cache.locate(address)[1] == way
            elif op == "invalidate":
                assert (cache.invalidate_line(address)
                        == model.invalidate(address))
            else:
                assert cache.contains(address) == model.contains(address)
            assert dataclasses.asdict(cache.stats) == model.stats
            for index in set(cache._sets) | set(model.sets):
                assert _cache_view(cache, index) == model.view(index)


class _ReferenceTLB:
    """A readable model of an LRU :class:`TLB`.

    Per set: a list of ``(vpn, size, ppn)`` tuples, least recent
    first.  A lookup tries each held page size, smallest first.
    """

    def __init__(self, num_sets: int, ways: int, page_sizes) -> None:
        self.num_sets, self.ways = num_sets, ways
        self.page_sizes = sorted(page_sizes)
        self.sets = [[] for _ in range(num_sets)]
        self.stats = dict(hits=0, misses=0)

    def _find(self, vpn, size):
        entries = self.sets[vpn % self.num_sets]
        for position, entry in enumerate(entries):
            if entry[:2] == (vpn, size):
                return entries, position
        return entries, None

    def probe(self, address):
        for size in self.page_sizes:
            entries, position = self._find(address >> size.offset_bits,
                                           size)
            if position is not None:
                return entries[position]
        return None

    def lookup(self, address):
        entry = self.probe(address)
        if entry is None:
            self.stats["misses"] += 1
            return None
        entries, position = self._find(*entry[:2])
        entries.append(entries.pop(position))
        self.stats["hits"] += 1
        return entry

    def fill(self, vpn, ppn, size):
        entries, position = self._find(vpn, size)
        victim = None
        if position is not None:
            entries.pop(position)
        else:
            if len(entries) == self.ways:
                victim = entries.pop(0)
        entries.append((vpn, size, ppn))
        return victim

    def invalidate(self, address, size):
        entries, position = self._find(address >> size.offset_bits, size)
        if position is None:
            return False
        entries.pop(position)
        return True

    def flush(self):
        removed = 0
        for entries in self.sets:
            removed += len(entries)
            entries.clear()
        return removed

    def valid_entry_count(self, size):
        return sum(1 for entries in self.sets for entry in entries
                   if size is None or entry[1] is size)


def _tlb_fields(entry):
    """A TLB entry (or None) in the model's tuple order."""
    if entry is None:
        return None
    return (entry.virtual_page, entry.page_size, entry.physical_page)


class TestTLBReferenceModel:
    """Every public TLB operation against :class:`_ReferenceTLB`: return
    values, stats, the resident count, and each set's entries in recency
    order after every step.  Addresses span three 2MB regions and eight
    4KB pages of region 0, so the 4KB and 2MB virtual page numbers
    overlap and a lookup that confused sizes would hit."""

    GEOMETRIES = {
        "4kb": (PageSize.BASE_4KB,),
        "2mb": (PageSize.SUPER_2MB,),
        "multi": (PageSize.BASE_4KB, PageSize.SUPER_2MB,
                  PageSize.SUPER_1GB),
    }

    @given(st.sampled_from(sorted(GEOMETRIES)),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=1, max_value=4), st.data())
    def test_tlb_matches_reference_model(self, kind, set_bits, ways, data):
        sizes = self.GEOMETRIES[kind]
        num_sets = 1 << set_bits
        tlb = TLB(num_sets * ways, ways, sizes)
        model = _ReferenceTLB(num_sets, ways, sizes)
        address = st.builds(
            lambda region, page, offset: (region << 21) | (page << 12)
            | offset,
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=4095))
        operations = data.draw(st.lists(st.one_of(
            st.tuples(st.just("lookup"), address),
            st.tuples(st.just("probe"), address),
            st.tuples(st.just("fill"), address, st.sampled_from(sizes),
                      st.integers(min_value=0, max_value=3)),
            st.tuples(st.just("invalidate"), address,
                      st.sampled_from(list(PageSize))),
            st.tuples(st.just("flush")),
            st.tuples(st.just("count"),
                      st.none() | st.sampled_from(list(PageSize)))),
            min_size=30, max_size=100))
        for op, *args in operations:
            if op == "lookup":
                assert (_tlb_fields(tlb.lookup(*args))
                        == model.lookup(*args))
            elif op == "probe":
                assert _tlb_fields(tlb.probe(*args)) == model.probe(*args)
            elif op == "fill":
                va, size, ppn = args
                vpn = va >> size.offset_bits
                assert (_tlb_fields(tlb.fill(vpn, ppn, size))
                        == model.fill(vpn, ppn, size))
            elif op == "invalidate":
                assert tlb.invalidate(*args) == model.invalidate(*args)
            elif op == "flush":
                assert tlb.flush(*args) == model.flush(*args)
            else:
                assert (tlb.valid_entry_count(*args)
                        == model.valid_entry_count(*args))
            assert dataclasses.asdict(tlb.stats) == model.stats
            assert tlb._resident == sum(map(len, model.sets))
            assert [[_tlb_fields(entry) for entry in entries.values()]
                    for entries in tlb._sets] == model.sets


class TestSeesawInvariants:
    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=(1 << 26) - 1),  # physical line
        st.booleans()), min_size=1, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_coherence_probe_always_finds_inserted_lines(self, fills):
        """Under 4way insertion, a single-partition coherence probe must
        find every line the cache currently holds — the correctness of the
        paper's §IV-C1 coherence optimization."""
        timing = L1Timing(base_hit_cycles=2, super_hit_cycles=1)
        cache = SeesawL1Cache(32 * 1024, timing)
        for raw, is_super in fills:
            pa = raw & ~63
            size = PageSize.SUPER_2MB if is_super else PageSize.BASE_4KB
            cache.fill(pa, size)
            result = cache.coherence_probe(pa)
            assert result.present
            assert result.ways_probed == 4

    @given(st.integers(min_value=0, max_value=(1 << 30) - 1))
    def test_partition_of_matches_ways(self, address):
        partitioning = WayPartitioning(total_ways=8, partition_ways=4)
        partition = partitioning.partition_of(address)
        ways = list(partitioning.ways_of_partition(partition))
        assert all(partitioning.partition_of_way(w) == partition
                   for w in ways)

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 26) - 1),
                    min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_superpage_access_after_fill_hits_fast(self, raw_lines):
        """TFT-known superpage lines are always found by the partitioned
        (4-way) lookup when VA and PA agree on the partition bits."""
        timing = L1Timing(base_hit_cycles=2, super_hit_cycles=1)
        cache = SeesawL1Cache(32 * 1024, timing)
        for raw in raw_lines:
            pa = raw & ~63
            va = (7 << 30) | (pa & (PAGE_SIZE_2MB - 1))  # same low 21 bits
            cache.tft.fill(va)
            cache.fill(pa, PageSize.SUPER_2MB)
            fast_hits = cache.seesaw_stats.fast_hits
            hit, _, ways_probed, _ = cache.access_raw(
                va, pa, PageSize.SUPER_2MB)
            assert hit and cache.seesaw_stats.fast_hits == fast_hits + 1
            assert ways_probed == 4


# ------------------------------------------------- sampling invariants

from repro.sampling import (  # noqa: E402  (grouped with its test class)
    cluster_signatures,
    extrapolate_totals,
    interval_signature,
    partition_intervals,
    profile_trace,
)


def _reference_signature(addresses, writes) -> np.ndarray:
    """One interval's signature computed directly, interval by interval:
    the reference model for :func:`profile_trace`'s one-pass matrix."""
    va = np.asarray(addresses, dtype=np.int64)
    wr = np.asarray(writes, dtype=bool)
    n = float(va.size)

    lines = va >> 6
    histogram = np.bincount((lines & 63).astype(np.intp),
                            minlength=64).astype(np.float64) / n

    unique_lines, line_counts = np.unique(lines, return_counts=True)
    unique_pages, page_counts = np.unique(va >> 12, return_counts=True)
    regions = np.unique(va >> 21).size

    def reuse_buckets(counts):
        """Fractions of references to items touched 1 / 2-3 / 4-7 / 8+
        times."""
        return (
            float(counts[counts == 1].sum()) / n,
            float(counts[(counts >= 2) & (counts <= 3)].sum()) / n,
            float(counts[(counts >= 4) & (counts <= 7)].sum()) / n,
            float(counts[counts >= 8].sum()) / n,
        )

    scalars = np.array([
        unique_pages.size / n,
        regions / n,
        unique_lines.size / n,
        float(wr.sum()) / n,
        *reuse_buckets(line_counts),
        *reuse_buckets(page_counts),
    ])
    return np.concatenate([histogram, scalars])


@st.composite
def _columns_and_intervals(draw):
    """Random address/write columns and an interval layout over them:
    one interval, contiguous, gapped, or length-1 intervals."""
    # Narrow spans repeat lines, pages and regions; the widest needs
    # nearly all 63 bits.
    span = draw(st.sampled_from([1 << 13, 1 << 24, 1 << 40, 1 << 63]))
    size = draw(st.integers(min_value=1, max_value=300))
    addresses = draw(st.lists(st.integers(min_value=0, max_value=span - 1),
                              min_size=size, max_size=size))
    writes = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    layout = draw(st.sampled_from(["single", "contiguous", "gapped",
                                   "length-1"]))
    if layout == "single":
        lo = draw(st.integers(min_value=0, max_value=size - 1))
        intervals = [(lo, draw(st.integers(min_value=lo + 1,
                                           max_value=size)))]
    elif layout == "length-1":
        starts = draw(st.sets(st.integers(min_value=0, max_value=size - 1),
                              min_size=1, max_size=40))
        intervals = [(lo, lo + 1) for lo in sorted(starts)]
    else:
        cuts = draw(st.sets(st.integers(min_value=1, max_value=size),
                            max_size=30)) if size > 1 else set()
        bounds = [0, *sorted(cuts - {size}), size]
        intervals = list(zip(bounds, bounds[1:]))
        if layout == "gapped":
            keep = draw(st.lists(st.booleans(), min_size=len(intervals),
                                 max_size=len(intervals)))
            intervals = ([interval for interval, kept
                          in zip(intervals, keep) if kept]
                         or intervals[-1:])
            # Trim some intervals' ends, leaving gaps inside the runs too.
            intervals = [(lo, draw(st.integers(min_value=lo + 1,
                                               max_value=hi)))
                         for lo, hi in intervals]
    return (np.array(addresses, dtype=np.int64), np.array(writes),
            intervals)


class TestSamplingProperties:
    @given(st.integers(min_value=0, max_value=50_000),
           st.integers(min_value=1, max_value=5_000),
           st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=100, deadline=None)
    def test_partition_covers_trace_exactly_once(self, total, size, start):
        """Every index in [start, total) lands in exactly one interval,
        intervals are in order, adjacent, and never empty."""
        intervals = partition_intervals(total, size, start=start)
        if start >= total:
            assert intervals == []
            return
        assert intervals[0][0] == start
        assert intervals[-1][1] == total
        for lo, hi in intervals:
            assert lo < hi  # never empty
            assert hi - lo <= size
        for (_, prev_hi), (lo, _) in zip(intervals, intervals[1:]):
            assert lo == prev_hi  # adjacent: no gap, no overlap

    @given(st.lists(st.tuples(st.integers(min_value=0,
                                          max_value=(1 << 40) - 1),
                              st.booleans()),
                    min_size=1, max_size=200),
           st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_signature_permutation_stable_and_deterministic(self, refs,
                                                            rng):
        """A signature is a set property of the interval: permuting the
        references changes nothing, and recomputing is bit-identical."""
        addresses = [a for a, _ in refs]
        writes = [w for _, w in refs]
        original = interval_signature(addresses, writes)
        assert interval_signature(addresses, writes).tolist() \
            == original.tolist()
        shuffled = list(refs)
        rng.shuffle(shuffled)
        permuted = interval_signature([a for a, _ in shuffled],
                                      [w for _, w in shuffled])
        assert permuted.tolist() == original.tolist()

    @given(_columns_and_intervals())
    @settings(max_examples=100, deadline=None)
    def test_profile_matches_per_interval_reference(self, case):
        """The one-pass signature matrix equals the per-interval
        reference model, row for row and bit for bit."""
        addresses, writes, intervals = case

        class Trace:
            @staticmethod
            def columns():
                return addresses, writes

        expected = np.stack([
            _reference_signature(addresses[lo:hi], writes[lo:hi])
            for lo, hi in intervals])
        assert np.array_equal(profile_trace(Trace, intervals), expected)
        lo, hi = intervals[0]
        assert np.array_equal(
            interval_signature(addresses[lo:hi], writes[lo:hi]),
            expected[0])

    @given(st.lists(st.lists(st.floats(min_value=-100.0, max_value=100.0,
                                       allow_nan=False),
                             min_size=4, max_size=4),
                    min_size=1, max_size=40),
           st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_cluster_weights_partition_intervals(self, signatures, k, seed):
        """Clusters partition the interval index set: weights sum to the
        interval count and every index appears in exactly one cluster."""
        clusters = cluster_signatures(signatures, k, seed=seed)
        assert sum(c.weight for c in clusters) == len(signatures)
        members = [m for c in clusters for m in c.members]
        assert sorted(members) == list(range(len(signatures)))
        for cluster in clusters:
            assert cluster.representative in cluster.members

    @given(st.lists(st.lists(st.floats(min_value=-10.0, max_value=10.0,
                                       allow_nan=False),
                             min_size=2, max_size=2),
                    min_size=1, max_size=20),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_clustering_deterministic_under_fixed_seed(self, signatures,
                                                       seed):
        assert cluster_signatures(signatures, 3, seed=seed) \
            == cluster_signatures(signatures, 3, seed=seed)

    @given(st.lists(st.dictionaries(
        st.sampled_from(["hits", "misses", "cycles", "energy"]),
        st.integers(min_value=0, max_value=10**9),
        min_size=1, max_size=4), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_extrapolation_exact_for_singleton_clusters(self, deltas):
        """With every cluster a singleton each ratio is 1.0, so the
        extrapolated totals equal the plain sum of the deltas — the
        degenerate lane's exactness rests on this identity."""
        totals = extrapolate_totals(deltas, [1.0] * len(deltas))
        for key in {k for d in deltas for k in d}:
            assert totals[key] == sum(d.get(key, 0) for d in deltas)
