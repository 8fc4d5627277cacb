"""Tests for memory-hierarchy energy accounting."""

import numpy as np
import pytest

from repro.cache.hierarchy import MissServiceResult
from repro.energy.accounting import EnergyAccountant, EnergyBreakdown
from repro.energy.sram import SRAMModel


def make_accountant(**kw):
    return EnergyAccountant(sram=SRAMModel(), l1_size_bytes=32 * 1024,
                            l1_ways=8, **kw)


class TestBreakdown:
    def test_total_sums_components(self):
        breakdown = EnergyBreakdown(l1_cpu_lookup_nj=1.0, llc_nj=2.0,
                                    leakage_nj=3.0)
        assert breakdown.total_nj == pytest.approx(6.0)
        assert breakdown.dynamic_nj == pytest.approx(3.0)

    def test_as_dict_covers_all_components(self):
        d = EnergyBreakdown().as_dict()
        assert set(d) == {"l1_cpu_lookup", "l1_coherence_lookup", "l1_fill",
                          "tlb", "tft", "l2", "llc", "dram", "leakage"}


class TestL1Events:
    def test_narrow_probe_cheaper_than_full(self):
        accountant = make_accountant()
        full = accountant.record_l1_lookup(8)
        narrow = accountant.record_l1_lookup(4)
        assert narrow < full

    def test_coherence_attribution(self):
        accountant = make_accountant()
        accountant.record_l1_lookup(4, coherence=True)
        accountant.record_l1_lookup(8, coherence=False)
        assert accountant.breakdown.l1_coherence_lookup_nj > 0
        assert accountant.breakdown.l1_cpu_lookup_nj > 0

    def test_memoized_energies_match_model(self):
        accountant = make_accountant()
        model = SRAMModel()
        for ways in range(1, 9):
            assert accountant._lookup_energy[ways] == pytest.approx(
                model.partial_lookup_energy_nj(32 * 1024, 8, ways))


class TestReferenceEvents:
    def test_tlb_energy_times_lookup_count(self):
        """A lookup code complemented (``~ways``) marks an L1 TLB miss:
        two TLB lookups instead of one."""
        accountant = make_accountant()
        accountant.fold_references(np.array([8, ~8]), 0)
        tlb_nj = 0.0
        tlb_nj += accountant.tlb_lookup_nj * 1
        tlb_nj += accountant.tlb_lookup_nj * 2
        assert accountant.breakdown.tlb_nj == tlb_nj

    def test_tft_energy_only_when_asked(self):
        accountant = make_accountant()
        accountant.fold_references(np.array([4]), 0)
        assert accountant.breakdown.tft_nj == 0.0
        accountant.fold_references(np.array([4]), 1)
        assert accountant.breakdown.tft_nj == accountant.tft_lookup_nj

    def test_lookup_energy_by_ways_probed(self):
        """The CPU-side L1 lookup is charged by ways probed, added in the
        order the run loop makes the references."""
        accountant = make_accountant()
        accountant.fold_references(np.array([8, 4, ~1, 4]), 1)
        lookup_nj = 0.0
        for ways in (8, 4, 1, 4):
            lookup_nj += accountant._lookup_energy[ways]
        assert accountant.breakdown.l1_cpu_lookup_nj == lookup_nj
        assert accountant.breakdown.l1_coherence_lookup_nj == 0.0

    def test_miss_charges_levels_reached_and_one_way_fill(self):
        """Every miss charges the LLC; only a miss that reached DRAM
        charges DRAM."""
        accountant = make_accountant()
        accountant.record_miss(MissServiceResult(
            30, llc_accessed=True))
        assert accountant.breakdown.dram_nj == 0.0
        accountant.record_miss(MissServiceResult(
            100, llc_accessed=True, dram_accessed=True))
        b = accountant.breakdown
        assert b.llc_nj == accountant.llc_access_nj * 2
        assert b.l2_nj == 0.0
        assert b.dram_nj == accountant.dram_access_nj
        assert b.l1_fill_nj == accountant._lookup_energy[1] * 2
        assert b.l1_cpu_lookup_nj == b.tlb_nj == b.tft_nj == 0.0


class TestOtherEvents:
    def test_event_constants_accumulate(self):
        accountant = make_accountant()
        accountant.fold_references(np.array([~8]), 1)
        accountant.record_miss(MissServiceResult(
            100, llc_accessed=True, dram_accessed=True))
        accountant.record_llc_access()
        b = accountant.breakdown
        assert b.tlb_nj == pytest.approx(2 * accountant.tlb_lookup_nj)
        assert b.tft_nj == pytest.approx(accountant.tft_lookup_nj)
        assert b.l2_nj == 0.0
        assert b.llc_nj == 2 * accountant.llc_access_nj
        assert b.dram_nj == accountant.dram_access_nj

    def test_dram_dwarfs_l1(self):
        accountant = make_accountant()
        l1 = accountant.record_l1_lookup(8)
        assert accountant.dram_access_nj > 100 * l1


class TestLeakage:
    def test_leakage_proportional_to_runtime(self):
        accountant = make_accountant()
        accountant.record_runtime(cycles=1_330_000, frequency_ghz=1.33)
        # 1ms at 350mW = 350 microjoules = 350000 nJ... scaled: 1.33M cycles
        # at 1.33GHz = 1ms; 350mW * 1ms = 0.35 mJ = 350_000 nJ.
        assert accountant.breakdown.leakage_nj == pytest.approx(350_000.0)

    def test_slower_run_leaks_more(self):
        fast = make_accountant()
        slow = make_accountant()
        fast.record_runtime(1000, 1.33)
        slow.record_runtime(1100, 1.33)
        assert slow.breakdown.leakage_nj > fast.breakdown.leakage_nj
