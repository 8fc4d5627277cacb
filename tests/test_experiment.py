"""Tests for the experiment drivers."""

import pytest

from repro.sim.config import SystemConfig
from repro.sim.experiment import (
    compare_designs,
    energy_improvement,
    improvement_percent,
    min_avg_max,
    run_workload,
    runtime_improvement,
    summarize_improvements,
    sweep,
)
from repro.workloads.suite import build_trace, get_workload


class TestHelpers:
    def test_improvement_percent(self):
        assert improvement_percent(100, 90) == pytest.approx(10.0)
        assert improvement_percent(100, 110) == pytest.approx(-10.0)
        assert improvement_percent(0, 50) == 0.0

    def test_min_avg_max(self):
        assert min_avg_max([1.0, 2.0, 6.0]) == (1.0, 3.0, 6.0)
        assert min_avg_max([]) == (0.0, 0.0, 0.0)


class TestRuns:
    def test_run_workload(self):
        result = run_workload(SystemConfig(), "astar", trace_length=3000)
        assert result.workload == "astar"

    def test_compare_designs_same_trace(self):
        trace = build_trace(get_workload("astar"), length=3000, seed=5)
        results = compare_designs(SystemConfig(), trace)
        assert set(results) == {"vipt", "seesaw"}
        assert (results["vipt"].memory_references
                == results["seesaw"].memory_references)

    def test_runtime_and_energy_improvements(self):
        trace = build_trace(get_workload("redis"), length=5000, seed=5)
        results = compare_designs(SystemConfig(l1_size_kb=64), trace)
        assert runtime_improvement(results) > 0
        assert energy_improvement(results) > 0

    def test_sweep_and_summarize(self):
        results = sweep(SystemConfig(), ["astar", "redis"],
                        trace_length=3000)
        assert set(results) == {"astar", "redis"}
        by_runtime = summarize_improvements(results, metric="runtime")
        by_energy = summarize_improvements(results, metric="energy")
        assert set(by_runtime) == {"astar", "redis"}
        assert all(isinstance(v, float) for v in by_energy.values())

    def test_summarize_rejects_unknown_metric(self):
        results = sweep(SystemConfig(), ["astar"], trace_length=2000)
        with pytest.raises(ValueError):
            summarize_improvements(results, metric="area")
