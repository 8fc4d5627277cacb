"""Tests for the generic set-associative cache."""

import pytest

from repro.cache.basic import SetAssociativeCache


def make_cache(size=32 * 1024, ways=8, **kw):
    return SetAssociativeCache(size, ways, **kw)


class TestGeometry:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, 8)

    def test_set_and_tag_decomposition(self):
        cache = make_cache()       # 32KB 8-way: 64 sets
        assert cache.num_sets == 64
        address = (0xAB << 12) | (17 << 6) | 5
        assert cache.set_index(address) == 17
        assert cache.tag_of(address) == 0xAB
        assert cache.line_address(address) == address - 5

    def test_direct_mapped(self):
        cache = SetAssociativeCache(16 * 1024, 1)
        assert cache.ways == 1 and cache.num_sets == 256


class TestAccess:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_same_line_different_bytes_hit(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x103F) is True

    def test_adjacent_lines_do_not_alias(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x1040) is False

    def test_write_sets_dirty(self):
        cache = make_cache()
        cache.access(0x1000, is_write=True)
        index, way, _ = cache.iter_valid_lines()[0]
        assert cache.set_at(index).dirty[way]

    def test_conflict_eviction_at_associativity(self):
        cache = make_cache()       # 8 ways
        stride = cache.num_sets * cache.line_size
        for i in range(9):         # 9 lines mapping to set 0
            cache.access(i * stride)
        assert cache.valid_lines() == 8          # one line made room
        assert cache.access(0) is False          # LRU way 0 was evicted
        assert cache.access(8 * stride) is True  # newest still resident

    def test_lru_respected_on_eviction(self):
        cache = make_cache(ways=2)
        stride = cache.num_sets * cache.line_size
        cache.access(0)
        cache.access(stride)
        cache.access(0)             # 0 is MRU
        cache.access(2 * stride)    # evicts `stride`
        assert cache.access(0) is True
        assert cache.access(stride) is False


class TestFillAndInvalidate:
    def test_fill_with_candidate_ways_restricts_location(self):
        cache = make_cache()
        cache.fill(0x0, candidate_ways=[4, 5, 6, 7])
        cache_set = cache.set_at(0)
        occupied = [w for w in range(8) if cache_set.tags[w] is not None]
        assert occupied == [4]

    def test_fill_evicts_only_within_candidates(self):
        cache = make_cache(ways=4)
        stride = cache.num_sets * cache.line_size
        for i in range(4):
            cache.fill(i * stride)
        cache.fill(4 * stride, candidate_ways=[2, 3])
        assert not cache.contains(2 * stride)  # way-2 victim (LRU of {2,3})
        assert cache.contains(0)

    def test_eviction_hook_receives_writebacks(self):
        """A fill returns the line it evicted with its dirty flag."""
        cache = make_cache(ways=1)
        stride = cache.num_sets * cache.line_size
        assert cache.fill(0, dirty=True) is None
        assert cache.fill(stride) == (0, True)
        assert cache.locate(stride)[1] == 0
        assert cache.fill(2 * stride) == (stride, False)

    def test_invalidate_line(self):
        cache = make_cache()
        cache.fill(0x1000, dirty=True)
        evicted = cache.invalidate_line(0x1000)   # its dirty flag
        assert evicted is not None and evicted
        assert not cache.contains(0x1000)
        assert cache.invalidate_line(0x1000) is None

    def test_valid_lines_counter(self):
        cache = make_cache()
        for i in range(5):
            cache.fill(i * 64)
        assert cache.valid_lines() == 5


class TestStats:
    def test_ways_probed_counts_full_set(self):
        cache = make_cache()
        cache.probe(0x1000)
        assert cache.stats.ways_probed == 8

    def test_mpki(self):
        cache = make_cache()
        for i in range(10):
            cache.access(i * 64 * 64)   # all distinct sets -> 10 misses
        assert cache.stats.mpki(10_000) == pytest.approx(1.0)

    def test_hit_and_miss_rate(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.miss_rate == pytest.approx(0.5)
