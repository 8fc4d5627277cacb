"""Tests for the paper's optional/extension features.

Covers the untagged TFT's context-switch flush (§IV-C3 rejects ASID tags
for area), the confidence-gated WP+SEESAW combination (§VI-F future
work), and runtime page churn (§IV-C2).
"""

from types import SimpleNamespace

from repro.cache.vipt import L1Timing
from repro.core.adaptive_wp import WayPredictionGate
from repro.core.seesaw import SeesawL1Cache
from repro.mem.address import PAGE_SIZE_2MB, PageSize
from repro.mem.page_table import TranslationFault
from repro.sim.config import SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.suite import build_trace, get_workload


def region_va(region, offset=0):
    return region * PAGE_SIZE_2MB + offset


class TestAsidTaggedTFT:
    """§IV-C3: the TFT carries no ASID tags, so it flushes on every
    context switch."""

    def test_context_switch_flushes_without_tags(self):
        cache = SeesawL1Cache(32 * 1024, L1Timing(base_hit_cycles=4,
                                                  super_hit_cycles=2))
        cache.tft.fill(region_va(3))
        cache.on_context_switch()
        assert not cache.tft.probe(region_va(3))
        assert cache.tft.occupancy() == 0


class TestWayPredictionGate:
    def test_predicts_while_confident(self):
        gate = WayPredictionGate(threshold=0.6)
        assert gate.should_predict()

    def test_gates_off_after_sustained_mispredictions(self):
        gate = WayPredictionGate(threshold=0.6, alpha=0.2, probe_interval=8)
        for _ in range(20):
            gate.update(False)
        suppressed = sum(0 if gate.should_predict() else 1
                         for _ in range(16))
        assert suppressed >= 10

    def test_periodic_shadow_probe_reopens_gate(self):
        gate = WayPredictionGate(threshold=0.6, alpha=0.3, probe_interval=4)
        for _ in range(20):
            gate.update(False)
        decisions = [gate.should_predict() for _ in range(12)]
        assert any(decisions)            # a probe slipped through
        # Feed correct outcomes during probes: confidence recovers.
        for _ in range(30):
            if gate.should_predict():
                gate.update(True)
        assert gate.estimate > 0.6

    def test_one_call_in_probe_interval_predicts_while_gated(self):
        gate = WayPredictionGate(probe_interval=8)
        # A fresh gate is confident: every call predicts.
        assert all(gate.should_predict() for _ in range(40))
        gate.estimate = gate.threshold / 2
        decisions = [gate.should_predict() for _ in range(8 * 5)]
        # Below the threshold, exactly the last call of each interval does.
        assert decisions == ([False] * 7 + [True]) * 5


class TestAdaptiveWpEndToEnd:
    def test_gated_wp_never_much_worse_than_plain_seesaw(self):
        """The §VI-F scheme: on a poor-locality workload, the gate turns
        mispredicting way prediction off, recovering SEESAW-alone
        behaviour."""
        trace = build_trace(get_workload("olio"), length=8000, seed=5)
        plain = SystemSimulator(
            SystemConfig(l1_design="seesaw"), trace).run()
        gated = SystemSimulator(
            SystemConfig(l1_design="seesaw", way_prediction=True,
                         adaptive_way_prediction=True), trace).run()
        ungated = SystemSimulator(
            SystemConfig(l1_design="seesaw", way_prediction=True), trace
        ).run()
        assert gated.runtime_cycles <= ungated.runtime_cycles * 1.005
        assert gated.runtime_cycles <= plain.runtime_cycles * 1.02


def superpage_regions(sim):
    """The simulator's workload regions that a 2MB page maps."""
    table = sim.manager.page_table
    regions = set()
    for base in sim._region_bases:
        try:
            if table.page_size_of(base) is PageSize.SUPER_2MB:
                regions.add(base)
        except TranslationFault:
            pass
    return regions


class TestPageChurn:
    def test_splinter_churn_runs_and_invalidates_tft(self):
        trace = build_trace(get_workload("redis"), length=6000, seed=5)
        plain = SystemSimulator(SystemConfig(l1_design="seesaw"), trace)
        plain.run(warmup_fraction=0.0)
        config = SystemConfig(l1_design="seesaw", splinter_interval=700)
        sim = SystemSimulator(config, trace)
        dropped = []
        for l1 in sim.l1s:
            def invalidate(address, _invalidate=l1.tft.invalidate):
                removed = _invalidate(address)
                dropped.append(removed)
                return removed
            l1.tft.invalidate = invalidate
        sim.run(warmup_fraction=0.0)
        assert superpage_regions(sim) < superpage_regions(plain)
        assert any(dropped)

    def test_promotion_churn_triggers_sweeps(self):
        trace = build_trace(get_workload("redis"), length=6000, seed=5)
        config = SystemConfig(l1_design="seesaw", splinter_interval=500,
                              promote_interval=900, memory_mb=256)
        sim = SystemSimulator(config, trace)
        promoted = []
        # A recording stub swept after the SEESAW L1s.
        sim.manager.swept_caches.append(SimpleNamespace(
            on_region_promoted=lambda base, frames: promoted.append(base)))
        sim.run(warmup_fraction=0.0)
        assert promoted
        assert superpage_regions(sim) & set(promoted)
        # Each promotion sweeps every SEESAW L1 once.
        assert (sum(l1.seesaw_stats.promotion_sweep_cycles
                    for l1 in sim.l1s)
                == SeesawL1Cache.PROMOTION_SWEEP_CYCLES * len(promoted)
                * len(sim.l1s))

    def test_churn_correctness_translations_survive(self):
        """After arbitrary splinter/promote churn every address still
        translates and the cache contents stay coherent with memory."""
        trace = build_trace(get_workload("astar"), length=6000, seed=5)
        config = SystemConfig(l1_design="seesaw", splinter_interval=400,
                              promote_interval=600, memory_mb=256)
        sim = SystemSimulator(config, trace)
        result = sim.run(warmup_fraction=0.0)
        assert result.runtime_cycles > 0
        table = sim.manager.page_table
        for address in trace.addresses[:200]:
            assert table.is_mapped(address)

    def test_seesaw_sweep_cost_is_minimal(self):
        """Paper §IV-C2: the SEESAW-specific cost of a promotion — the
        150-200-cycle cache sweep riding the TLB-shootdown window — is
        negligible relative to runtime.  (The *OS-side* costs of page
        churn — page copies, cold LLC lines, 4KB TLB pressure after a
        splinter — are real and large, but identical for the baseline.)"""
        trace = build_trace(get_workload("redis"), length=8000, seed=5)
        config = SystemConfig(l1_design="seesaw", memory_mb=256,
                              splinter_interval=1500, promote_interval=2000)
        sim = SystemSimulator(config, trace)
        result = sim.run()
        sweep_cycles = sum(l1.seesaw_stats.promotion_sweep_cycles
                           for l1 in sim.l1s)
        assert sweep_cycles > 0                 # regions were promoted
        assert sweep_cycles < 0.02 * result.runtime_cycles


class TestPromoteFaultIn:
    def test_fault_in_missing_promotes_partial_region(self, memory_manager):
        va = 0x4000_0000
        memory_manager.thp_policy = \
            __import__("repro.mem.os_policy", fromlist=["THPPolicy"]).THPPolicy.NEVER
        # Touch only half the region's pages.
        for offset in range(0, PAGE_SIZE_2MB // 2, 4096):
            memory_manager.touch(va + offset)
        assert memory_manager.promote_region(va) is None
        mapping = memory_manager.promote_region(va, fault_in_missing=True)
        assert mapping is not None
        assert mapping.page_size is PageSize.SUPER_2MB
