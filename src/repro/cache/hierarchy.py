"""The memory hierarchy behind the L1s: one shared LLC over DRAM.

Paper Table II: unified 24MB LLC, 4GB DRAM with 51ns round-trip, and no
private L2.  The hierarchy provides miss service latency and per-access
energy events for the accounting layer; the LLC is a plain
physically-addressed set-associative cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.basic import SetAssociativeCache


@dataclass
class DRAMModel:
    """Fixed-latency DRAM (paper: 51ns round trip).

    Latency in cycles depends on core frequency; the hierarchy converts.
    """

    round_trip_ns: float = 51.0

    def latency_cycles(self, frequency_ghz: float) -> int:
        """Round-trip latency in core cycles at ``frequency_ghz``."""
        return max(1, round(self.round_trip_ns * frequency_ghz))


class MissServiceResult:
    """Where a miss was serviced and what it cost: the levels it reached
    (a DRAM-serviced miss reached the LLC first) and its latency.

    Slotted plain class.  A hierarchy builds one per level a miss can end
    at and returns it for every miss serviced there, so callers must not
    mutate it.
    """

    __slots__ = ("latency_cycles", "llc_accessed", "dram_accessed")

    def __init__(self, latency_cycles: int, llc_accessed: bool = False,
                 dram_accessed: bool = False) -> None:
        self.latency_cycles = latency_cycles
        self.llc_accessed = llc_accessed
        self.dram_accessed = dram_accessed

    def __repr__(self) -> str:
        return (f"MissServiceResult(latency_cycles={self.latency_cycles!r}, "
                f"llc_accessed={self.llc_accessed!r}, "
                f"dram_accessed={self.dram_accessed!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissServiceResult):
            return NotImplemented
        return (self.latency_cycles == other.latency_cycles
                and self.llc_accessed == other.llc_accessed
                and self.dram_accessed == other.dram_accessed)


class MemoryHierarchy:
    """LLC → DRAM service path for L1 misses.

    Args:
        frequency_ghz: core frequency (converts DRAM ns to cycles).
        llc_size / llc_ways / llc_latency: the shared last-level cache.
    """

    def __init__(self, frequency_ghz: float = 1.33,
                 llc_size: int = 24 * 1024 * 1024, llc_ways: int = 16,
                 llc_latency: int = 30) -> None:
        self.llc = SetAssociativeCache(llc_size, llc_ways, name="llc")
        self.dram = DRAMModel()
        # What a miss costs depends only on where it is serviced: one
        # result for the LLC and one for DRAM, built once.
        self._llc_serviced = MissServiceResult(llc_latency,
                                               llc_accessed=True)
        self._dram_serviced = MissServiceResult(
            llc_latency + self.dram.latency_cycles(frequency_ghz),
            llc_accessed=True, dram_accessed=True)

    def service_miss(self, physical_address: int,
                     is_write: bool = False) -> MissServiceResult:
        """Service an L1 miss: the LLC fills on its own miss, and the
        result of the level that serviced it is returned."""
        llc = self.llc
        if llc.probe(physical_address, is_write):
            return self._llc_serviced
        llc.fill(physical_address, dirty=is_write)
        return self._dram_serviced

    def writeback(self, physical_address: int) -> None:
        """Accept a dirty eviction from an L1 into the LLC."""
        self.llc.access(physical_address, is_write=True)
