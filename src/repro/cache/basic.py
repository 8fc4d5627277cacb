"""Generic physically-addressed set-associative cache.

This is the building block for L2/LLC levels and for the MPKI study in
Fig. 2a, where only hit/miss behaviour matters.  L1 frontends (VIPT, PIPT,
SEESAW) layer indexing/tagging semantics and timing on top of the same
structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mem.address import CACHE_LINE_SIZE
from repro.cache.replacement import (LRUPolicy, ReplacementPolicy,
                                     lru_final_state, make_policy)

#: log2 of the cache line size; 64B lines -> 6 byte-offset bits.
LINE_OFFSET_BITS = CACHE_LINE_SIZE.bit_length() - 1


class CacheLine:
    """One cache line's bookkeeping (no data payload is modeled).

    Slotted plain class: lines are probed, filled and state-flipped on
    every reference, so attribute access cost dominates.
    """

    __slots__ = ("tag", "valid", "dirty", "state", "line_address",
                 "from_superpage")

    def __init__(self, tag: int = 0, valid: bool = False,
                 dirty: bool = False, state: str = "I",
                 line_address: int = 0,
                 from_superpage: bool = False) -> None:
        self.tag = tag
        self.valid = valid
        self.dirty = dirty
        #: coherence state, one of "M","O","E","S","I" (L1s under MOESI)
        self.state = state
        #: physical line address (tag + index recombined), kept for
        #: write-back and coherence bookkeeping.
        self.line_address = line_address
        #: for SEESAW: whether the fill came from a superpage mapping.
        self.from_superpage = from_superpage

    def __repr__(self) -> str:
        return (f"CacheLine(tag={self.tag!r}, valid={self.valid!r}, "
                f"dirty={self.dirty!r}, state={self.state!r}, "
                f"line_address={self.line_address!r}, "
                f"from_superpage={self.from_superpage!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheLine):
            return NotImplemented
        return (self.tag == other.tag and self.valid == other.valid
                and self.dirty == other.dirty and self.state == other.state
                and self.line_address == other.line_address
                and self.from_superpage == other.from_superpage)

    def reset(self) -> None:
        """Return the line to the invalid state."""
        self.valid = False
        self.dirty = False
        self.state = "I"
        self.tag = 0
        self.line_address = 0
        self.from_superpage = False


class CacheSet:
    """One set: ``ways`` lines plus a replacement policy instance."""

    __slots__ = ("lines", "policy")

    def __init__(self, ways: int, policy: ReplacementPolicy) -> None:
        # Sets are created lazily on first touch, which puts this
        # constructor on the miss path of every cold set; building the
        # lines via __new__ + direct slot stores skips ``ways`` __init__
        # calls (an LLC ``install`` creates thousands of sets).
        new = CacheLine.__new__
        lines = []
        append = lines.append
        for _ in range(ways):
            line = new(CacheLine)
            line.tag = 0
            line.valid = False
            line.dirty = False
            line.state = "I"
            line.line_address = 0
            line.from_superpage = False
            append(line)
        self.lines: List[CacheLine] = lines
        self.policy = policy

    def find(self, tag: int, ways: Optional[Sequence[int]] = None
             ) -> Optional[int]:
        """Return the way holding ``tag`` among ``ways`` (default: all)."""
        search = range(len(self.lines)) if ways is None else ways
        for way in search:
            line = self.lines[way]
            if line.valid and line.tag == tag:
                return way
        return None

    def first_invalid(self, ways: Optional[Sequence[int]] = None
                      ) -> Optional[int]:
        """Return the first invalid way among ``ways`` (default: all)."""
        search = range(len(self.lines)) if ways is None else ways
        for way in search:
            if not self.lines[way].valid:
                return way
        return None


@dataclass
class CacheStats:
    """Access counters common to every cache level."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0
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


#: Callback receiving (line_address, dirty) when a line leaves the cache.
EvictionHook = Callable[[int, bool], None]


class SetAssociativeCache:
    """Physically-addressed set-associative cache with configurable policy.

    Addresses are byte addresses; lines are 64B.  Only metadata is tracked.

    Args:
        size_bytes: total capacity.
        ways: associativity (``1`` = direct-mapped).
        line_size: line size in bytes (default 64).
        replacement: ``lru`` | ``plru`` | ``random``.
        name: label for reporting.
        seed: base seed for stochastic replacement (per-set streams are
            derived as ``seed + set_index``).
        rng: optional shared ``numpy.random.Generator``; when given, every
            set's stochastic policy draws from this single stream instead
            of a per-set one (the reproducibility seam — one RNG for the
            whole cache).
    """

    def __init__(self, size_bytes: int, ways: int,
                 line_size: int = CACHE_LINE_SIZE,
                 replacement: str = "lru", name: str = "cache",
                 seed: int = 0, rng=None) -> None:
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
        self.replacement = replacement
        self.seed = seed
        self.rng = rng
        # Sets are materialized lazily: a 24MB LLC has ~25k sets and most
        # simulations touch a small fraction of them.
        self._sets: Dict[int, CacheSet] = {}
        self._eviction_hooks: List[EvictionHook] = []

    def set_at(self, index: int) -> CacheSet:
        """The :class:`CacheSet` at ``index`` (created on first use)."""
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = CacheSet(
                self.ways,
                make_policy(self.replacement, self.ways,
                            seed=self.seed + index, rng=self.rng))
            self._sets[index] = cache_set
        return cache_set

    # ------------------------------------------------------------- pickling

    def __getstate__(self) -> dict:
        """Pickle everything except the eviction hooks.

        Hooks are closures over other live components (the simulator, the
        coherence fabric, a VIVT synonym filter); whoever registered them
        re-registers after a snapshot restore (see
        ``SystemSimulator._wire``).
        """
        state = self.__dict__.copy()
        state["_eviction_hooks"] = []
        return state

    # ---------------------------------------------------------------- hooks

    def register_eviction_hook(self, hook: EvictionHook) -> None:
        """Called with (line_address, dirty) whenever a valid line is evicted."""
        self._eviction_hooks.append(hook)

    def _fire_eviction(self, line: CacheLine) -> None:
        for hook in self._eviction_hooks:
            hook(line.line_address, line.dirty)

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
        for way, line in enumerate(cache_set.lines):
            if line.valid and line.tag == tag:
                policy = cache_set.policy
                if type(policy) is LRUPolicy:
                    # Inlined LRUPolicy.touch (the per-reference case).
                    order = policy._order
                    order.remove(way)
                    order.append(way)
                else:
                    policy.touch(way)
                if is_write:
                    line.dirty = True
                stats.hits += 1
                return True
        stats.misses += 1
        return False

    def fill(self, address: int, dirty: bool = False,
             from_superpage: bool = False,
             candidate_ways: Optional[Sequence[int]] = None) -> CacheLine:
        """Install ``address``, evicting if necessary. Returns the line.

        Filling an address that is already resident refreshes the existing
        line in place — a cache never holds two copies of one tag.

        Runs on every miss, so the common unconstrained path folds the
        resident check and invalid-way scan into one pass and inlines the
        LRU moves; the outcome matches the ``find`` / ``first_invalid`` /
        ``policy.victim`` composition exactly.
        """
        set_index = (address >> self.offset_bits) & self._index_mask
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self.set_at(set_index)
        tag = address >> self._tag_shift
        lines = cache_set.lines
        policy = cache_set.policy
        is_lru = type(policy) is LRUPolicy
        if candidate_ways is None:
            # One scan: the first valid tag match wins (as in ``find``);
            # otherwise the first invalid way is remembered (as in
            # ``first_invalid``).
            existing = invalid = None
            for way, line in enumerate(lines):
                if line.valid:
                    if line.tag == tag:
                        existing = way
                        break
                elif invalid is None:
                    invalid = way
        else:
            existing = cache_set.find(tag)
            invalid = cache_set.first_invalid(candidate_ways)
        if existing is not None:
            line = lines[existing]
            line.dirty = line.dirty or dirty
            line.from_superpage = from_superpage
            if is_lru:
                order = policy._order
                order.remove(existing)
                order.append(existing)
            else:
                policy.touch(existing)
            return line
        way = invalid
        if way is None:
            if is_lru and candidate_ways is None:
                # LRUPolicy.victim over the full way range returns the
                # head of the recency list.
                way = policy._order[0]
            else:
                candidates = (list(range(self.ways))
                              if candidate_ways is None
                              else list(candidate_ways))
                way = policy.victim(candidates)
            victim = lines[way]
            if victim.valid:
                self.stats.evictions += 1
                if victim.dirty:
                    self.stats.writebacks += 1
                self._fire_eviction(victim)
        line = lines[way]
        line.tag = tag
        line.valid = True
        line.dirty = dirty
        line.state = "M" if dirty else "E"
        line.line_address = address & self._line_mask
        line.from_superpage = from_superpage
        if is_lru:
            order = policy._order
            order.remove(way)
            order.append(way)
        else:
            policy.touch(way)
        self.stats.fills += 1
        return line

    def install(self, addresses) -> None:
        """Fill distinct clean ``addresses`` in order, as one :meth:`access`
        each would, from :func:`lru_final_state`: line *i* of a set sits in
        way *i* mod ``ways``, its recency list is ``range(ways)`` rotated
        left by its line count, and sets are created in first-touch order.
        Anything but an empty, hook-free LRU cache raises ValueError.
        """
        lines = np.asarray(addresses, dtype=np.int64) >> self.offset_bits
        ways, stats, set_at = self.ways, self.stats, self.set_at
        keys, rank, count = lru_final_state(
            lines, lines & self._index_mask, ways)
        per_set = count[rank == count - 1]
        if (self._sets or self._eviction_hooks or self.replacement != "lru"
                or per_set.sum() != lines.size):
            raise ValueError(f"{self.name}: install needs distinct lines "
                             f"and an empty, hook-free LRU cache")
        stats.misses += lines.size
        stats.fills += lines.size
        stats.ways_probed += lines.size * ways
        stats.evictions += int(np.maximum(per_set - ways, 0).sum())
        for key, position, total in zip(keys.tolist(), rank.tolist(),
                                        count.tolist()):
            cache_set = set_at(key & self._index_mask)
            line = cache_set.lines[position % ways]
            line.tag, line.line_address = (key >> self.index_bits,
                                            key << self.offset_bits)
            line.valid, line.state = True, "E"
            if position == total - 1:
                shift = total % ways
                cache_set.policy._order = [*range(shift, ways), *range(shift)]

    def contains(self, address: int) -> bool:
        """Non-perturbing presence check."""
        cache_set = self._sets.get(self.set_index(address))
        return (cache_set is not None
                and cache_set.find(self.tag_of(address)) is not None)

    def invalidate_line(self, address: int) -> Optional[CacheLine]:
        """Invalidate the line holding ``address`` (coherence/sweeps).

        Returns a copy-like reference to the line *before* reset, or None.
        """
        cache_set = self.set_at(self.set_index(address))
        way = cache_set.find(self.tag_of(address))
        if way is None:
            return None
        line = cache_set.lines[way]
        evicted = CacheLine(tag=line.tag, valid=True, dirty=line.dirty,
                            state=line.state, line_address=line.line_address,
                            from_superpage=line.from_superpage)
        line.reset()
        return evicted

    def valid_lines(self) -> int:
        """Number of valid lines (for occupancy checks in tests)."""
        return sum(1 for s in self._sets.values()
                   for line in s.lines if line.valid)

    def iter_valid_lines(self) -> "list[Tuple[int, int, CacheLine]]":
        """List of (set index, way, line) for every valid line."""
        out = []
        for index, cache_set in sorted(self._sets.items()):
            for way, line in enumerate(cache_set.lines):
                if line.valid:
                    out.append((index, way, line))
        return out
