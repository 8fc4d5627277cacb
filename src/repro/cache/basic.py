"""Generic physically-addressed set-associative cache.

This is the building block for the LLC and for the MPKI study in
Fig. 2a, where only hit/miss behaviour matters.  L1 frontends (VIPT, PIPT,
SEESAW) layer indexing/tagging semantics and timing on top of the same
structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mem.address import CACHE_LINE_SIZE
from repro.cache.replacement import lru_final_state

#: log2 of the cache line size; 64B lines -> 6 byte-offset bits.
LINE_OFFSET_BITS = CACHE_LINE_SIZE.bit_length() - 1


class CacheSet:
    """One true-LRU set as flat per-way lists.

    ``tags[way]`` is the way's tag, or None when the way is invalid;
    ``dirty[way]`` says whether its line must be written back, and
    ``order`` lists every way from least to most recently used.  No data
    payload or coherence state is modeled (the fabric tracks sharers and
    owners), and a line's address is recomputed from its tag and set
    index.  A set never holds one tag twice, so one C-level ``tag in
    tags`` / ``tags.index`` finds a line.
    """

    __slots__ = ("tags", "dirty", "order")

    def __init__(self, ways: int, tags: Sequence[int] = (),
                 order: Optional[List[int]] = None) -> None:
        """An empty set, or one whose first ways hold the clean lines
        ``tags``, with recency ``order`` (default: way order)."""
        self.tags: List[Optional[int]] = [*tags, *[None] * (ways - len(tags))]
        self.dirty = [False] * ways
        self.order = list(range(ways)) if order is None else order

    def find(self, tag: int) -> Optional[int]:
        """Return the way holding ``tag``, or None."""
        tags = self.tags
        return tags.index(tag) if tag in tags else None

    def invalidate(self, way: int) -> None:
        """Return ``way`` to the invalid state (recency order kept)."""
        self.tags[way] = None
        self.dirty[way] = False


@dataclass
class CacheStats:
    """Access counters common to every cache level."""

    hits: int = 0
    misses: int = 0
    #: total ways probed across all lookups — the quantity SEESAW reduces
    #: and the basis of dynamic lookup-energy accounting.
    ways_probed: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: int) -> float:
        """Misses per kilo-instruction given an instruction count."""
        return 1000.0 * self.misses / instructions if instructions else 0.0


class SetAssociativeCache:
    """Physically-addressed set-associative true-LRU cache.

    Addresses are byte addresses; lines are 64B.  Only metadata is tracked.

    Args:
        size_bytes: total capacity.
        ways: associativity (``1`` = direct-mapped).
        line_size: line size in bytes (default 64).
        name: label for reporting.
    """

    def __init__(self, size_bytes: int, ways: int,
                 line_size: int = CACHE_LINE_SIZE,
                 name: str = "cache") -> None:
        if size_bytes < ways * line_size:
            raise ValueError("size must hold at least one set of ways * "
                             "line_size bytes")
        if size_bytes % (ways * line_size):
            raise ValueError("size must be a multiple of ways * line_size")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.num_sets = size_bytes // (ways * line_size)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self.offset_bits = line_size.bit_length() - 1
        self.index_bits = self.num_sets.bit_length() - 1
        # Hot-path constants: probe() runs per reference, so the index
        # mask / tag shift are folded once here instead of per call.
        self._index_mask = self.num_sets - 1
        self._tag_shift = self.offset_bits + self.index_bits
        self._line_mask = ~(line_size - 1)
        self.stats = CacheStats()
        # Sets are materialized lazily: a 24MB LLC has ~25k sets and most
        # simulations touch a small fraction of them.
        self._sets: Dict[int, CacheSet] = {}

    def set_at(self, index: int) -> CacheSet:
        """The :class:`CacheSet` at ``index`` (created on first use)."""
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = CacheSet(self.ways)
        return cache_set

    # ------------------------------------------------------------- indexing

    def set_index(self, address: int) -> int:
        """Set index of a byte address."""
        return (address >> self.offset_bits) & self._index_mask

    def tag_of(self, address: int) -> int:
        """Tag of a byte address (all bits above the index)."""
        return address >> self._tag_shift

    def line_address(self, address: int) -> int:
        """Line-aligned address."""
        return address & self._line_mask

    # ------------------------------------------------------------------ API

    def access(self, address: int, is_write: bool = False) -> bool:
        """Look up ``address``; on miss, fill it. Returns True on hit.

        This is the simple interface used for MPKI studies and non-L1
        levels; timing-aware frontends use :meth:`probe` / :meth:`fill`.
        """
        hit = self.probe(address, is_write=is_write)
        if not hit:
            self.fill(address, dirty=is_write)
        return hit

    def probe(self, address: int, is_write: bool = False) -> bool:
        """Look up without filling. Returns True on hit; updates stats/LRU."""
        stats = self.stats
        set_index = (address >> self.offset_bits) & self._index_mask
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self.set_at(set_index)
        tag = address >> self._tag_shift
        stats.ways_probed += self.ways
        tags = cache_set.tags
        if tag in tags:
            way = tags.index(tag)
            order = cache_set.order
            order.remove(way)
            order.append(way)
            if is_write:
                cache_set.dirty[way] = True
            stats.hits += 1
            return True
        stats.misses += 1
        return False

    def fill(self, address: int, dirty: bool = False,
             candidate_ways: Optional[Sequence[int]] = None
             ) -> Optional[Tuple[int, bool]]:
        """Install ``address``, evicting if necessary.  Returns the evicted
        line as ``(line_address, dirty)``, or None when nothing left.

        Filling an address that is already resident refreshes the existing
        line in place — a cache never holds two copies of one tag.  A new
        line takes the first invalid way among ``candidate_ways`` (default:
        all, in way order), else the least recently used of them.  Either
        way the filled way ends most recent (``order[-1]``).  Placing a
        new line among empty ``candidate_ways`` raises ValueError.
        """
        set_index = (address >> self.offset_bits) & self._index_mask
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self.set_at(set_index)
        tag = address >> self._tag_shift
        tags = cache_set.tags
        order = cache_set.order
        victim = None
        if tag in tags:
            way = tags.index(tag)
            if dirty:
                cache_set.dirty[way] = True
        else:
            if candidate_ways is None:
                way = tags.index(None) if None in tags else None
            else:
                for way in candidate_ways:
                    if tags[way] is None:
                        break
                else:
                    way = None
            if way is None:
                if candidate_ways is None:
                    way = order[0]
                else:
                    for way in order:
                        if way in candidate_ways:
                            break
                    else:
                        raise ValueError(
                            f"{self.name}: no candidate ways supplied")
                # Every candidate way is valid here, so the victim is too.
                victim = ((tags[way] << self._tag_shift)
                          | (set_index << self.offset_bits),
                          cache_set.dirty[way])
            tags[way] = tag
            cache_set.dirty[way] = dirty
        order.remove(way)
        order.append(way)
        return victim

    def install(self, addresses) -> None:
        """Fill distinct clean ``addresses`` in order, as one :meth:`access`
        each would, from :func:`lru_final_state`: line *i* of a set sits in
        way *i* mod ``ways``, its recency list is ``range(ways)`` rotated
        left by its line count, and sets are created in first-touch order.
        Survivors are sorted into way order, so each set is built once,
        already holding its slice of tags.  Anything but an empty cache
        raises ValueError.
        """
        lines = np.asarray(addresses, dtype=np.int64) >> self.offset_bits
        ways, stats, sets = self.ways, self.stats, self._sets
        keys, rank, count = lru_final_state(
            lines, lines & self._index_mask, ways)
        # A survivor's position in its set's run of ``keys``; the run's
        # first survivor has rank ``count - ways`` (or 0).
        position = rank - np.maximum(count - ways, 0)
        first = position == 0
        per_set = count[first]
        if self._sets or per_set.sum() != lines.size:
            raise ValueError(f"{self.name}: install needs distinct lines "
                             f"and an empty cache")
        stats.misses += lines.size
        stats.ways_probed += lines.size * ways
        by_way = np.empty_like(keys)
        by_way[np.arange(keys.size) - position + rank % ways] = keys
        tags = (by_way >> self.index_bits).tolist()
        start = 0
        for index, total in zip((keys[first] & self._index_mask).tolist(),
                                per_set.tolist()):
            size = min(total, ways)
            shift = total % ways
            sets[index] = CacheSet(ways, tags[start:start + size],
                                   [*range(shift, ways), *range(shift)])
            start += size

    def contains(self, address: int) -> bool:
        """Non-perturbing presence check."""
        return self.locate(address) is not None

    def locate(self, address: int) -> Optional[Tuple[CacheSet, int]]:
        """``(set, way)`` holding ``address``, or None.  Non-perturbing:
        no set is materialised, no LRU touch, no stats."""
        cache_set = self._sets.get(
            (address >> self.offset_bits) & self._index_mask)
        if cache_set is None:
            return None
        tags = cache_set.tags
        tag = address >> self._tag_shift
        return (cache_set, tags.index(tag)) if tag in tags else None

    def invalidate_line(self, address: int) -> Optional[bool]:
        """Invalidate the line holding ``address`` (coherence/sweeps).

        Returns the line's dirty flag, or None when it was not resident.
        """
        found = self.locate(address)
        if found is None:
            return None
        cache_set, way = found
        dirty = cache_set.dirty[way]
        cache_set.invalidate(way)
        return dirty

    def valid_lines(self) -> int:
        """Number of valid lines (for occupancy checks in tests)."""
        return sum(self.ways - s.tags.count(None)
                   for s in self._sets.values())

    def iter_valid_lines(self) -> "list[Tuple[int, int, int]]":
        """List of (set index, way, line address) for every valid line."""
        return [(index, way, (tag << self._tag_shift)
                 | (index << self.offset_bits))
                for index, cache_set in sorted(self._sets.items())
                for way, tag in enumerate(cache_set.tags)
                if tag is not None]
