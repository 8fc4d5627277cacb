"""Way-partitioning geometry for SEESAW (paper §IV-A1, Figs. 4 and 6).

Each set of the L1 is divided into fixed-size partitions (the paper uses
4-way, 16KB partitions).  The partition index is taken from the address bits
immediately above the set index: bit 12 for a 32KB/8-way cache (2
partitions), bits 13:12 for 64KB/16-way (4 partitions), bits 14:12 for
128KB/32-way (8 partitions).  For 2MB superpages all of these bits fall
inside the 21-bit page offset, so virtual and physical partition index
agree — the property SEESAW exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.address import CACHE_LINE_SIZE, PAGE_SIZE_4KB, PageSize


@dataclass(frozen=True)
class WayPartitioning:
    """Geometry of a way-partitioned VIPT set.

    Args:
        total_ways: the set's associativity (8/16/32 in the paper).
        partition_ways: ways probed per partition (paper: 4).
        num_sets: sets in the cache (fixed at 64 by the VIPT constraint).
    """

    total_ways: int
    partition_ways: int
    num_sets: int = PAGE_SIZE_4KB // CACHE_LINE_SIZE

    def __post_init__(self) -> None:
        if self.total_ways % self.partition_ways:
            raise ValueError("partition_ways must divide total_ways")
        partitions = self.total_ways // self.partition_ways
        if partitions & (partitions - 1):
            raise ValueError("number of partitions must be a power of two")
        # The geometry is frozen, so everything partition_of() and the
        # per-partition way enumerations would recompute per access is
        # derived once here (object.__setattr__ sidesteps frozen=True).
        offset_bits = CACHE_LINE_SIZE.bit_length() - 1
        index_bits = (self.num_sets - 1).bit_length()
        object.__setattr__(self, "_num_partitions", partitions)
        object.__setattr__(self, "_partition_mask", partitions - 1)
        object.__setattr__(self, "_low_bit", offset_bits + index_bits)
        object.__setattr__(self, "_partition_way_ranges", tuple(
            range(p * self.partition_ways, (p + 1) * self.partition_ways)
            for p in range(partitions)))

    @property
    def num_partitions(self) -> int:
        """Partitions per set."""
        return self._num_partitions

    @property
    def partition_index_bits(self) -> int:
        """Width of the partition index field (0 when unpartitioned)."""
        return self._partition_mask.bit_length()

    @property
    def partition_index_low_bit(self) -> int:
        """Lowest partition-index bit position: just above the set index.

        With 64B lines and 64 sets this is bit 12 — the first bit beyond the
        4KB page offset, which is why base pages cannot use it but 2MB
        superpages can.
        """
        return self._low_bit

    def partition_of(self, address: int) -> int:
        """Partition index encoded in ``address`` (virtual or physical)."""
        return (address >> self._low_bit) & self._partition_mask

    def ways_of_partition(self, partition: int) -> range:
        """The way numbers belonging to ``partition``."""
        if not 0 <= partition < self._num_partitions:
            raise ValueError(f"partition {partition} out of range")
        return self._partition_way_ranges[partition]

    def partition_of_way(self, way: int) -> int:
        """Inverse of :meth:`ways_of_partition` for a single way."""
        return way // self.partition_ways

    def all_ways(self) -> range:
        """Every way in the set."""
        return range(self.total_ways)

    def index_bits_within_page(self, page_size: PageSize) -> bool:
        """True if the partition-index bits fit inside ``page_size``'s offset.

        This is the formal statement of SEESAW's enabling observation: true
        for 2MB/1GB superpages, false for 4KB base pages (with >=2
        partitions).
        """
        highest_bit = (self.partition_index_low_bit
                       + self.partition_index_bits - 1)
        return highest_bit < page_size.offset_bits
