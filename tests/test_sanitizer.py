"""Tests for the runtime invariant sanitizer.

Two halves: deliberately corrupted state must raise
:class:`~repro.devtools.sanitize.SanitizerError` with a useful message,
and an uncorrupted full simulation must run green with every check armed
(via ``SystemConfig(sanitize=True)`` and via ``REPRO_SANITIZE=1``).
"""

import dataclasses

import pytest

from repro.cache.vipt import L1Timing, ViptL1Cache
from repro.devtools import sanitize
from repro.devtools.sanitize import SanitizerError
from repro.mem.address import PageSize
from repro.mem.page_table import PageTable
from repro.sim.config import SystemConfig
from repro.sim.system import SystemSimulator
from repro.tlb.hierarchy import SplitTLBHierarchy
from repro.workloads.suite import build_trace, get_workload
from repro.workloads.trace import MemoryTrace

TIMING = L1Timing(base_hit_cycles=4, super_hit_cycles=3)


@pytest.fixture(autouse=True)
def _restore_override():
    yield
    sanitize.reset()


def make_l1(name="l1"):
    return ViptL1Cache(32 * 1024, TIMING, name=name)


class TestActivation:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        assert not sanitize.enabled()

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        assert sanitize.enabled()
        monkeypatch.setenv(sanitize.ENV_VAR, "0")
        assert not sanitize.enabled()

    def test_programmatic_override_wins(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        sanitize.enable(False)
        assert not sanitize.enabled()
        sanitize.reset()
        assert sanitize.enabled()

    def test_sanitizer_error_is_assertion_error(self):
        assert issubclass(SanitizerError, AssertionError)


class TestCoherenceChecks:
    PA = 0x7000

    def test_two_dirty_copies_raise(self):
        caches = [make_l1("c0"), make_l1("c1")]
        for cache in caches:
            cache.store.fill(self.PA, dirty=True)
        with pytest.raises(SanitizerError, match="single-writer"):
            sanitize.check_coherence_entry(caches, self.PA, sharers={0, 1},
                                           owner=None, context="test")

    def test_untracked_holder_raises(self):
        caches = [make_l1("c0"), make_l1("c1")]
        caches[0].store.fill(self.PA)
        caches[1].store.fill(self.PA)
        with pytest.raises(SanitizerError, match="unknown to the directory"):
            sanitize.check_coherence_entry(caches, self.PA, sharers={0},
                                           owner=None, context="test")

    def test_consistent_entry_passes(self):
        caches = [make_l1("c0"), make_l1("c1")]
        caches[0].store.fill(self.PA, dirty=True)
        caches[1].store.fill(self.PA)
        sanitize.check_coherence_entry(caches, self.PA, sharers={1},
                                       owner=0, context="test")

    def test_stale_copy_after_write_raises(self):
        caches = [make_l1("c0"), make_l1("c1")]
        caches[0].store.fill(self.PA, dirty=True)
        caches[1].store.fill(self.PA)
        with pytest.raises(SanitizerError, match="stale copies"):
            sanitize.check_write_exclusivity(caches, self.PA, writer=0,
                                             context="test")
        caches[1].store.invalidate_line(self.PA)
        sanitize.check_write_exclusivity(caches, self.PA, writer=0,
                                         context="test")


class TestViptIndexChecks:
    def test_index_mismatch_raises(self):
        cache = make_l1()
        with pytest.raises(SanitizerError, match="VIPT constraint"):
            sanitize.check_vipt_index(cache.store, 0x0, 0x40, cache.name)

    def test_matching_index_passes(self):
        cache = make_l1()
        sanitize.check_vipt_index(cache.store, 0x1_0040, 0x9_0040,
                                  cache.name)


class TestTranslationChecks:
    VA = 0x10_0000_0000

    def _hierarchy(self):
        table = PageTable()
        table.map(self.VA, 0x2000_0000, PageSize.BASE_4KB)
        return table, SplitTLBHierarchy(table, sanitize=True)

    def test_stale_tlb_after_remap_raises(self):
        table, tlbs = self._hierarchy()
        tlbs.translate_raw(self.VA)              # warms the L1 TLB
        table.unmap(self.VA, PageSize.BASE_4KB)
        table.map(self.VA, 0x3000_0000, PageSize.BASE_4KB)
        with pytest.raises(SanitizerError, match="shootdown"):
            tlbs.translate_raw(self.VA)

    def test_stale_tlb_after_unmap_raises(self):
        table, tlbs = self._hierarchy()
        tlbs.translate_raw(self.VA)
        table.unmap(self.VA, PageSize.BASE_4KB)
        with pytest.raises(SanitizerError, match="unmap"):
            tlbs.translate_raw(self.VA)

    def test_invalidated_tlb_passes(self):
        table, tlbs = self._hierarchy()
        tlbs.translate_raw(self.VA)
        table.unmap(self.VA, PageSize.BASE_4KB)
        table.map(self.VA, 0x3000_0000, PageSize.BASE_4KB)
        tlbs.invalidate(self.VA, PageSize.BASE_4KB)
        pa, *_ = tlbs.translate_raw(self.VA)
        assert pa == 0x3000_0000


class TestResultChecks:
    @pytest.fixture(scope="class")
    def result(self):
        trace = build_trace(get_workload("redis"), length=3000, seed=5)
        return SystemSimulator(SystemConfig(sanitize=True), trace).run()

    def test_clean_result_validates(self, result):
        sanitize.validate_result(result)

    def test_corrupt_hit_counter_raises(self, result):
        import copy
        broken = copy.deepcopy(result)
        broken.l1_hits += 1
        with pytest.raises(SanitizerError, match="memory_references"):
            sanitize.validate_result(broken)

    def test_negative_counter_raises(self, result):
        import copy
        broken = copy.deepcopy(result)
        broken.l1_misses = -3
        with pytest.raises(SanitizerError, match="negative"):
            sanitize.validate_result(broken)

    def test_corrupt_energy_component_raises(self, result):
        import copy
        broken = copy.deepcopy(result)
        broken.energy.dram_nj = float("nan")
        with pytest.raises(SanitizerError, match="energy component"):
            sanitize.validate_result(broken)
        broken.energy.dram_nj = -1.0
        with pytest.raises(SanitizerError, match="energy component"):
            broken.energy.validate()


class TestSanitizedSimulations:
    @pytest.mark.parametrize("design", ["seesaw", "vipt", "pipt", "vivt"])
    def test_small_sim_green_with_config_flag(self, design):
        trace = build_trace(get_workload("redis"), length=3000, seed=5)
        config = SystemConfig(l1_design=design, sanitize=True)
        result = SystemSimulator(config, trace).run()
        assert result.l1_hits + result.l1_misses == result.memory_references
        # The checks only observe: an unsanitized run gives the same numbers.
        plain = SystemSimulator(dataclasses.replace(config, sanitize=False),
                                trace).run()
        assert plain.to_dict() == result.to_dict()

    def test_multithreaded_sim_green(self):
        trace = build_trace(get_workload("nutch"), length=3000, seed=5)
        result = SystemSimulator(SystemConfig(sanitize=True), trace).run()
        assert result.coherence_probes > 0

    def test_snoop_sim_green(self):
        trace = build_trace(get_workload("nutch"), length=3000, seed=5)
        config = SystemConfig(coherence="snoop", sanitize=True)
        result = SystemSimulator(config, trace).run()
        assert result.l1_hits + result.l1_misses == result.memory_references

    def test_config_flag_arms_the_snoopy_bus(self, monkeypatch):
        """``sanitize=True`` alone, with neither the environment variable
        nor the override set, arms the bus's single-writer check."""
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        sanitize.reset()
        trace = MemoryTrace("pair", [0x1000, 0x2000], [False, False],
                            cores=[0, 1])
        sim = SystemSimulator(SystemConfig(coherence="snoop", sanitize=True),
                              trace)
        for l1 in sim.l1s:
            l1.fill(0x9000, PageSize.BASE_4KB, dirty=True)
        with pytest.raises(SanitizerError, match="dirty in multiple L1s"):
            sim.fabric.cpu_read(0, 0x9000)

    def test_env_var_path_green(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        trace = build_trace(get_workload("redis"), length=2000, seed=5)
        result = SystemSimulator(SystemConfig(), trace).run()
        # warmup references are reset out of the counters
        assert 0 < result.memory_references < len(trace)
        assert result.l1_hits + result.l1_misses == result.memory_references
