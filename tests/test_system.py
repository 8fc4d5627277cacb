"""Integration tests for the full-system simulator."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.seesaw import SeesawL1Cache
from repro.sim.config import SystemConfig
from repro.sim.system import (PROBE_DRAW_BLOCK, RECENT_LINES,
                              SystemSimulator, simulate)
from repro.workloads.suite import build_trace, get_workload
from repro.workloads.trace import MemoryTrace

TRACE = build_trace(get_workload("redis"), length=6000, seed=11)
MT_TRACE = build_trace(get_workload("nutch"), length=6000, seed=11)


def run(config, trace=TRACE):
    return SystemSimulator(config, trace).run()


class TestBasicRuns:
    def test_seesaw_run_produces_sane_result(self):
        result = run(SystemConfig(l1_design="seesaw"))
        assert result.runtime_cycles > 0
        assert 0 < result.ipc < 4
        assert 0 < result.l1_hit_rate < 1
        assert result.total_energy_nj > 0
        assert 0 <= result.superpage_reference_fraction <= 1

    def test_vipt_and_pipt_also_run(self):
        for design in ("vipt", "pipt"):
            result = run(SystemConfig(l1_design=design))
            assert result.runtime_cycles > 0
            assert result.tft_hit_rate == 0.0   # no TFT in baselines

    def test_simulate_helper(self):
        result = simulate(SystemConfig(), TRACE)
        assert result.workload == "redis"

    def test_deterministic(self):
        a = run(SystemConfig(seed=3))
        b = run(SystemConfig(seed=3))
        assert a.runtime_cycles == b.runtime_cycles
        assert a.total_energy_nj == pytest.approx(b.total_energy_nj)

    def test_multithreaded_uses_one_core_per_thread(self):
        sim = SystemSimulator(SystemConfig(), MT_TRACE)
        assert sim.num_cores == 2
        result = sim.run()
        assert result.coherence_probes > 0


class TestDesignDifferences:
    def test_seesaw_probes_fewer_ways_than_vipt(self):
        seesaw = run(SystemConfig(l1_design="seesaw"))
        vipt = run(SystemConfig(l1_design="vipt"))
        assert seesaw.l1_ways_probed < vipt.l1_ways_probed

    def test_seesaw_not_slower_than_vipt(self):
        seesaw = run(SystemConfig(l1_design="seesaw"))
        vipt = run(SystemConfig(l1_design="vipt"))
        assert seesaw.runtime_cycles <= vipt.runtime_cycles * 1.01

    def test_seesaw_saves_energy(self):
        seesaw = run(SystemConfig(l1_design="seesaw"))
        vipt = run(SystemConfig(l1_design="vipt"))
        assert seesaw.total_energy_nj < vipt.total_energy_nj

    def test_inorder_gains_exceed_ooo(self):
        gains = {}
        for core in ("ooo", "inorder"):
            seesaw = run(SystemConfig(l1_design="seesaw", core=core,
                                      l1_size_kb=64))
            vipt = run(SystemConfig(l1_design="vipt", core=core,
                                    l1_size_kb=64))
            gains[core] = 1 - seesaw.runtime_cycles / vipt.runtime_cycles
        assert gains["inorder"] >= gains["ooo"]


class TestFragmentationEffects:
    def test_memhog_reduces_superpage_coverage(self):
        light = run(SystemConfig(memhog_fraction=0.0))
        heavy = run(SystemConfig(memhog_fraction=0.6))
        assert (heavy.footprint_superpage_fraction
                < light.footprint_superpage_fraction)

    def test_thp_never_gives_zero_superpages(self):
        from repro.mem.os_policy import THPPolicy
        result = run(SystemConfig(thp_policy=THPPolicy.NEVER))
        assert result.superpage_reference_fraction == 0.0
        assert result.tft_hit_rate == 0.0


class TestWarmupAndReset:
    def test_warmup_zero_counts_everything(self):
        sim = SystemSimulator(SystemConfig(), TRACE)
        result = sim.run(warmup_fraction=0.0)
        assert result.memory_references == len(TRACE)

    def test_warmup_shrinks_measured_window(self):
        sim = SystemSimulator(SystemConfig(), TRACE)
        result = sim.run(warmup_fraction=0.5)
        assert result.memory_references == len(TRACE) // 2

    def test_reset_measurements_preserves_cache_state(self):
        sim = SystemSimulator(SystemConfig(), TRACE)
        sim.run(warmup_fraction=0.0)
        lines_before = sim.l1s[0].store.valid_lines()
        sim.reset_measurements()
        assert sim.l1s[0].store.valid_lines() == lines_before
        assert sim.l1s[0].stats.accesses == 0


class TestHooksWiring:
    def test_seesaw_tft_populated_via_tlb_fills(self):
        sim = SystemSimulator(SystemConfig(l1_design="seesaw"), TRACE)
        sim.run(warmup_fraction=0.0)
        assert sim.l1s[0].tft.occupancy() > 0
        assert sim.l1s[0].tft.stats.hits > 0

    def test_context_switch_interval_flushes_tft(self):
        plain = SystemSimulator(SystemConfig(l1_design="seesaw"), TRACE)
        plain.run(warmup_fraction=0.0)
        config = SystemConfig(l1_design="seesaw",
                              context_switch_interval=500)
        sim = SystemSimulator(config, TRACE)
        sim.run(warmup_fraction=0.0)
        # Each flush costs the TFT the hits its regions would have had.
        assert sim.l1s[0].tft.stats.hits < plain.l1s[0].tft.stats.hits

    def test_snoopy_coherence_option(self):
        result = run(SystemConfig(coherence="snoop"), MT_TRACE)
        assert result.runtime_cycles > 0

    def test_no_coherence_option(self):
        result = run(SystemConfig(coherence="none",
                                  system_probe_interval=0))
        assert result.coherence_probes == 0

    def test_plain_references_survive_restore_and_hold_no_cycle(self):
        """Components hold each other directly, set once at build: a
        restored 4-core machine shares each TFT between its L1 and its
        TLB hierarchy, the manager shoots down the simulator's own
        hierarchies and the fabric charges the simulator's accountant.
        With nothing closing over the simulator, a finished one is freed
        when dropped, without the cycle collector."""
        config = SystemConfig(l1_design="seesaw")
        trace = build_trace(get_workload("g500"), length=6000, seed=11)
        sim = SystemSimulator(config, trace)
        sim.run_until(3001)
        restored = SystemSimulator(config, trace)
        restored.restore(sim.snapshot())
        assert len(restored.l1s) == 4
        for l1, tlbs in zip(restored.l1s, restored.tlbs):
            assert tlbs.tft is l1.tft
        assert restored.manager.tlbs is restored.tlbs
        assert all(swept is l1 for swept, l1 in zip(
            restored.manager.swept_caches, restored.l1s))
        assert restored.fabric.caches is restored.l1s
        assert restored.fabric.energy is restored.energy
        gc.collect()
        gc.disable()
        try:
            restored.finish()
            freed = weakref.ref(restored)
            del restored
            assert freed() is None
        finally:
            gc.enable()


class TestBackgroundProbeDraws:
    """The background coherence probe picks a ring line, then a core,
    with the draws ``integers(0, len(ring))`` and
    ``integers(0, num_cores)`` of ``default_rng(config.seed)``, in that
    order — while the ring fills, across block draws, and across a
    snapshot taken with draws pending.  No result shows the picks:
    synthetic traces have no synonyms, so every pick probes the same
    number of ways."""

    @staticmethod
    def _record(sim, log):
        """Log each background probe's ring and its (core, line) calls
        to ``coherence_probe``."""
        def probe():
            calls = []
            for core, l1 in enumerate(sim.l1s):
                def spy(line, invalidate=False, _core=core,
                        _probe=l1.coherence_probe):
                    calls.append((_core, line))
                    return _probe(line, invalidate=invalidate)
                l1.coherence_probe = spy
            ring = list(sim._recent_lines)
            try:
                SystemSimulator._system_probe(sim)
            finally:
                for l1 in sim.l1s:
                    del l1.coherence_probe
            log.append((ring, calls))
        sim._system_probe = probe

    @pytest.mark.parametrize("workload, cores", [("gups", 1), ("cann", 4)])
    def test_picks_follow_the_scalar_draws(self, workload, cores):
        config = SystemConfig(seed=5)
        interval = config.system_probe_interval
        # The ring fills, then two full blocks and part of a third.
        length = RECENT_LINES + interval * (2 * PROBE_DRAW_BLOCK + 40)
        trace = build_trace(get_workload(workload), length=length, seed=3)
        assert trace.num_cores == cores
        log = []
        sim = SystemSimulator(config, trace)
        self._record(sim, log)
        pause = RECENT_LINES + interval * (PROBE_DRAW_BLOCK // 2)
        sim.run_until(pause)
        assert sim._probe_draws  # the snapshot carries undrawn picks
        blob = sim.snapshot()
        resumed = SystemSimulator(config, trace)
        resumed.restore(blob)
        self._record(resumed, log)
        resumed.run_until(length)

        assert len(log) == length // interval
        assert any(len(ring) < RECENT_LINES for ring, _ in log)
        rng = np.random.default_rng(config.seed)
        for ring, calls in log:
            line = ring[int(rng.integers(0, len(ring)))]
            core = int(rng.integers(0, cores))
            assert calls == [(core, line)]
        # The undrawn picks are the scalar draws still to come, and the
        # generator stands where those scalar calls leave it.
        pending = resumed._probe_draws[::-1]
        assert pending == [int(rng.integers(0, high)) for high
                           in [RECENT_LINES, cores] * (len(pending) // 2)]
        assert resumed._rng.bit_generator.state == rng.bit_generator.state


class TestWayPredictionDesigns:
    def test_wp_only_design_runs(self):
        result = run(SystemConfig(l1_design="vipt", way_prediction=True))
        assert result.way_prediction_accuracy is not None

    def test_wp_plus_seesaw(self):
        result = run(SystemConfig(l1_design="seesaw", way_prediction=True))
        assert result.way_prediction_accuracy is not None

    @pytest.mark.parametrize("design", ["vipt", "seesaw"])
    def test_predictions_cover_the_measured_window(self, design):
        """The warmup reset zeroes the predictor's counters with every
        other statistic: one prediction per measured L1 access."""
        sim = SystemSimulator(
            SystemConfig(l1_design=design, way_prediction=True), TRACE)
        sim.run()
        counters = sim.counters()
        assert counters["wp_predictions"] == (counters["l1_hits"]
                                              + counters["l1_misses"])

    def test_wp_saves_energy_over_plain_vipt(self):
        plain = run(SystemConfig(l1_design="vipt"))
        wp = run(SystemConfig(l1_design="vipt", way_prediction=True))
        assert wp.total_energy_nj < plain.total_energy_nj


class TestCollection:
    def test_finish_after_run_repeats_the_result(self):
        """With nothing left to run, ``finish()`` returns the same result
        and leaves the earlier one alone (leakage is charged into each
        result's own breakdown, never into the live accountant)."""
        trace = build_trace(get_workload("gups"), length=3000, seed=42)
        sim = SystemSimulator(SystemConfig(seed=42), trace)
        first = sim.run()
        before = first.to_dict()
        second = sim.finish()
        assert first.to_dict() == before
        assert second.to_dict() == before
        assert second.energy is not first.energy
