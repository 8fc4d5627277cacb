"""The memory hierarchy behind the L1: L2 cache, shared LLC, and DRAM.

Paper Table II: unified 24MB LLC, 4GB DRAM with 51ns round-trip.  The
hierarchy provides miss service latency and per-access energy events for
the accounting layer; its caches are plain physically-addressed
set-associative structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.cache.basic import SetAssociativeCache


@dataclass
class DRAMModel:
    """Fixed-latency DRAM (paper: 51ns round trip).

    Latency in cycles depends on core frequency; the hierarchy converts.
    """

    round_trip_ns: float = 51.0
    accesses: int = 0

    def latency_cycles(self, frequency_ghz: float) -> int:
        """Round-trip latency in core cycles at ``frequency_ghz``."""
        return max(1, round(self.round_trip_ns * frequency_ghz))


@dataclass
class HierarchyLevel:
    """One cache level behind the L1."""

    cache: SetAssociativeCache
    hit_latency_cycles: int

    @property
    def name(self) -> str:
        return self.cache.name


class MissServiceResult:
    """Where a miss was serviced and what it cost.

    Slotted plain class.  A hierarchy builds one per level a miss can end
    at and returns it for every miss serviced there, so callers must not
    mutate it.
    """

    __slots__ = ("latency_cycles", "serviced_by", "l2_accessed",
                 "llc_accessed", "dram_accessed")

    def __init__(self, latency_cycles: int, serviced_by: str,
                 l2_accessed: bool = False, llc_accessed: bool = False,
                 dram_accessed: bool = False) -> None:
        self.latency_cycles = latency_cycles
        self.serviced_by = serviced_by     # "l2", "llc", or "dram"
        self.l2_accessed = l2_accessed
        self.llc_accessed = llc_accessed
        self.dram_accessed = dram_accessed

    def __repr__(self) -> str:
        return (f"MissServiceResult(latency_cycles={self.latency_cycles!r}, "
                f"serviced_by={self.serviced_by!r}, "
                f"l2_accessed={self.l2_accessed!r}, "
                f"llc_accessed={self.llc_accessed!r}, "
                f"dram_accessed={self.dram_accessed!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissServiceResult):
            return NotImplemented
        return (self.latency_cycles == other.latency_cycles
                and self.serviced_by == other.serviced_by
                and self.l2_accessed == other.l2_accessed
                and self.llc_accessed == other.llc_accessed
                and self.dram_accessed == other.dram_accessed)


class MemoryHierarchy:
    """L2 → LLC → DRAM service path for L1 misses.

    Args:
        frequency_ghz: core frequency (converts DRAM ns to cycles).
        l2_size / l2_ways / l2_latency: private L2 (0 size disables — the
            paper's Table II lists only an LLC behind the L1s, so the
            default hierarchy is LLC + DRAM).
        llc_size / llc_ways / llc_latency: shared last-level cache.
    """

    def __init__(self, frequency_ghz: float = 1.33,
                 l2_size: int = 0, l2_ways: int = 8, l2_latency: int = 12,
                 llc_size: int = 24 * 1024 * 1024, llc_ways: int = 16,
                 llc_latency: int = 30) -> None:
        self.frequency_ghz = frequency_ghz
        self.levels: List[HierarchyLevel] = []
        if l2_size:
            self.levels.append(HierarchyLevel(
                SetAssociativeCache(l2_size, l2_ways, name="l2"),
                l2_latency))
        if llc_size:
            self.levels.append(HierarchyLevel(
                SetAssociativeCache(llc_size, llc_ways, name="llc"),
                llc_latency))
        self.dram = DRAMModel()
        # What a miss costs depends only on the level that services it:
        # the latencies of every level it passed, and which levels those
        # were.  One result per level, built once.
        self._serviced: List[Tuple[SetAssociativeCache,
                                   MissServiceResult]] = []
        latency = 0
        reached = {"l2": False, "llc": False}
        for level in self.levels:
            latency += level.hit_latency_cycles
            reached[level.name] = True
            self._serviced.append((level.cache, MissServiceResult(
                latency, level.name, l2_accessed=reached["l2"],
                llc_accessed=reached["llc"])))
        self._dram_serviced = MissServiceResult(
            latency + self.dram.latency_cycles(frequency_ghz), "dram",
            l2_accessed=reached["l2"], llc_accessed=reached["llc"],
            dram_accessed=True)

    def service_miss(self, physical_address: int,
                     is_write: bool = False) -> MissServiceResult:
        """Service an L1 miss; fills every level the request passed
        through, and returns the result of the level that serviced it."""
        for cache, result in self._serviced:
            if cache.access(physical_address, is_write):
                return result
        self.dram.accesses += 1
        return self._dram_serviced

    def writeback(self, physical_address: int) -> None:
        """Accept a dirty eviction from the L1 into the nearest level."""
        if self.levels:
            self.levels[0].cache.access(physical_address, is_write=True)
        else:
            self.dram.accesses += 1
