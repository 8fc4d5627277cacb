"""Tests for SEESAW's way-partitioning geometry."""

import pytest

from repro.core.partition import WayPartitioning
from repro.mem.address import PageSize


class TestGeometry:
    def test_paper_configurations(self):
        # Paper §IV-B4: 4-way (16KB) partitions across the three sizes.
        for total, parts in [(8, 2), (16, 4), (32, 8)]:
            p = WayPartitioning(total_ways=total, partition_ways=4)
            assert p.num_partitions == parts

    def test_partition_index_starts_at_bit_12(self):
        # Paper §IV-A1: "bit 12 of the virtual address serves as the
        # partition index" for the 32KB cache.
        p = WayPartitioning(total_ways=8, partition_ways=4)
        assert p.partition_index_low_bit == 12
        assert p.partition_index_bits == 1

    def test_64kb_uses_two_partition_bits(self):
        p = WayPartitioning(total_ways=16, partition_ways=4)
        assert p.partition_index_bits == 2

    def test_rejects_non_dividing_partition(self):
        with pytest.raises(ValueError):
            WayPartitioning(total_ways=8, partition_ways=3)


class TestPartitionOf:
    def test_bit12_selects_partition_for_32kb(self):
        p = WayPartitioning(total_ways=8, partition_ways=4)
        assert p.partition_of(0x0000) == 0
        assert p.partition_of(0x1000) == 1
        assert p.partition_of(0x2000) == 0   # bit 13 ignored

    def test_single_partition_always_zero(self):
        p = WayPartitioning(total_ways=4, partition_ways=4)
        assert p.partition_of(0xFFFF_FFFF) == 0

    def test_successive_4kb_regions_stride_partitions(self):
        """Paper §IV-A3: successive 4KB regions of a superpage stride
        across the partitions."""
        p = WayPartitioning(total_ways=8, partition_ways=4)
        partitions = [p.partition_of(i * 4096) for i in range(4)]
        assert partitions == [0, 1, 0, 1]


class TestWaySets:
    def test_ways_of_partition(self):
        p = WayPartitioning(total_ways=8, partition_ways=4)
        assert list(p.ways_of_partition(0)) == [0, 1, 2, 3]
        assert list(p.ways_of_partition(1)) == [4, 5, 6, 7]

    def test_ways_of_partition_bounds(self):
        p = WayPartitioning(total_ways=8, partition_ways=4)
        with pytest.raises(ValueError):
            p.ways_of_partition(2)

    def test_partition_of_way(self):
        p = WayPartitioning(total_ways=8, partition_ways=4)
        assert p.partition_of_way(3) == 0
        assert p.partition_of_way(4) == 1

    def test_all_ways(self):
        p = WayPartitioning(total_ways=8, partition_ways=4)
        assert list(p.all_ways()) == list(range(8))


class TestEnablingObservation:
    @pytest.mark.parametrize("total_ways", [8, 16, 32])
    def test_partition_bits_inside_superpage_offset(self, total_ways):
        """The paper's core insight: partition-index bits fit in the 2MB
        (and 1GB) page offset but not the 4KB offset."""
        p = WayPartitioning(total_ways=total_ways, partition_ways=4)
        assert not p.index_bits_within_page(PageSize.BASE_4KB)
        assert p.index_bits_within_page(PageSize.SUPER_2MB)
        assert p.index_bits_within_page(PageSize.SUPER_1GB)

    def test_single_partition_fits_any_page(self):
        p = WayPartitioning(total_ways=4, partition_ways=4)
        assert p.index_bits_within_page(PageSize.BASE_4KB)
