"""Tests for the LLC/DRAM backing hierarchy."""

from dataclasses import replace

import pytest

from repro import cli
from repro.cache.basic import SetAssociativeCache
from repro.cache.hierarchy import DRAMModel, MemoryHierarchy


class TestDRAM:
    def test_latency_scales_with_frequency(self):
        dram = DRAMModel(round_trip_ns=51.0)
        # Paper Table II: 51ns round trip.
        assert dram.latency_cycles(1.33) == 68
        assert dram.latency_cycles(4.0) == 204


class TestMissService:
    def test_cold_miss_goes_to_dram(self):
        hierarchy = MemoryHierarchy(llc_size=1024 * 1024, llc_latency=30)
        result = hierarchy.service_miss(0x1000)
        assert result.llc_accessed and result.dram_accessed
        assert result.latency_cycles == 30 + hierarchy.dram.latency_cycles(1.33)

    def test_second_miss_hits_llc(self):
        hierarchy = MemoryHierarchy(llc_size=1024 * 1024, llc_latency=30)
        hierarchy.service_miss(0x1000)
        result = hierarchy.service_miss(0x1000)
        assert result.llc_accessed and not result.dram_accessed
        assert result.latency_cycles == 30

    def test_no_llc_is_rejected(self, monkeypatch, capsys):
        """The LLC is mandatory: a cache with no sets cannot be built, so
        neither can a machine without an LLC, and ``repro run`` on one
        exits 2."""
        with pytest.raises(ValueError, match="at least one set"):
            SetAssociativeCache(0, 4)
        with pytest.raises(ValueError, match="at least one set"):
            MemoryHierarchy(llc_size=0)
        build = cli._config_from_args
        monkeypatch.setattr(
            cli, "_config_from_args",
            lambda args, design=None: replace(build(args, design),
                                              llc_size_kb=0))
        assert cli.main(["run", "gups", "--length", "4000"]) == 2
        assert "at least one set" in capsys.readouterr().err

    def test_writeback_lands_in_nearest_level(self):
        hierarchy = MemoryHierarchy(llc_size=1024 * 1024)
        hierarchy.writeback(0x2000)
        assert hierarchy.llc.contains(0x2000)

    def test_dram_access_counter(self):
        hierarchy = MemoryHierarchy(llc_size=1024 * 1024)
        results = [hierarchy.service_miss(address)
                   for address in (0x1000, 0x2000, 0x1000)]
        assert [result.dram_accessed for result in results] \
            == [True, True, False]
