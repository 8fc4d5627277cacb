"""Tests for true-LRU replacement in cache sets."""

import pytest

from repro.cache.basic import SetAssociativeCache


def one_set_cache(ways):
    """A single-set cache, so every line competes for the same ways."""
    return SetAssociativeCache(ways * 64, ways)


def line(tag):
    """The address of the 64B line with ``tag`` in a one-set cache."""
    return tag * 64


class TestLRU:
    def test_victim_is_least_recently_used(self):
        cache = one_set_cache(4)
        for tag in range(4):
            assert cache.fill(line(tag)) is None
            assert cache.locate(line(tag))[1] == tag
        assert cache.set_at(0).order[0] == 0
        assert cache.fill(line(4)) == (line(0), False)
        assert cache.locate(line(4))[1] == 0
        cache.probe(line(1))
        assert cache.fill(line(5)) == (line(2), False)
        assert cache.locate(line(5))[1] == 2

    def test_victim_restricted_to_candidates(self):
        """Partition-local LRU: the SEESAW 4way insertion policy."""
        cache = one_set_cache(8)
        for tag in range(8):
            cache.fill(line(tag))
        # Global LRU victim is 0, but candidates name partition 1 (ways 4-7).
        assert cache.fill(line(8), candidate_ways=range(4, 8)) == (line(4),
                                                                   False)
        assert cache.locate(line(8))[1] == 4
        assert cache.fill(line(9), candidate_ways=[4, 5, 6, 7]) == (line(5),
                                                                   False)
        assert cache.locate(line(9))[1] == 5

    def test_empty_candidates_rejected(self):
        cache = one_set_cache(4)
        for tag in range(4):
            cache.fill(line(tag))
        with pytest.raises(ValueError):
            cache.fill(line(4), candidate_ways=[])

    def test_recency_order_exposed(self):
        cache = one_set_cache(3)
        cache.fill(line(7), candidate_ways=[2])
        assert cache.set_at(0).order[-1] == 2
