"""Statistical accuracy harness for the sampled lane.

The sampled lane's contract (README, "Sampled runs") has two halves:

* **Accuracy.**  On every golden-matrix cell (all four designs x the two
  golden workloads) the default :class:`SamplingPlan` must land every
  headline metric within BOTH its *reported* confidence bound and the
  flat 5% relative-error budget.  A lane that is accurate but mis-states
  its own confidence fails just as hard as an inaccurate one.
* **Degenerate exactness.**  When sampling cannot help — the cluster
  budget meets or exceeds the interval count, or one interval spans the
  whole trace — the lane must reproduce the exact simulation
  bit-identically, not merely approximately.

The accuracy matrix runs at 12,000 references: long enough that the
default plan (600-reference intervals, K=10) is genuinely sampling
(20 intervals, half of them skipped), short enough for tier-1.  The
degenerate cases run at the golden length (6,000), where 10 intervals
<= K=10 collapses the lane to exact by construction.
"""

from __future__ import annotations

import pytest

from repro.sampling import HEADLINE_METRICS, SamplingPlan, relative_error
from repro.sampling.runner import simulate_sampled
from repro.sim.config import SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.suite import build_trace, get_workload

DESIGNS = ("vipt", "pipt", "vivt", "seesaw")
WORKLOADS = ("redis", "gups")
SEED = 42
ACCURACY_LENGTH = 12_000
GOLDEN_LENGTH = 6_000
ERROR_BUDGET = 0.05


def _headline(result_dict, metric):
    """Extract a headline metric from a result dict (miss rate = 1 - hit)."""
    if metric == "l1_miss_rate":
        return 1.0 - float(result_dict["l1_hit_rate"])
    return float(result_dict[metric])


def _run_pair(design, workload, length, plan):
    """One (exact, sampled) result pair on the same trace and config."""
    trace = build_trace(get_workload(workload), length=length, seed=SEED)
    config = SystemConfig(l1_design=design, seed=SEED)
    exact = SystemSimulator(config, trace).run()
    sampled = simulate_sampled(config, trace, plan)
    return exact, sampled


def _strip_sampling(result_dict):
    return {k: v for k, v in result_dict.items() if k != "sampling"}


class TestAccuracyMatrix:
    """Sampled vs exact on the full golden matrix, default plan."""

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_headline_metrics_within_bounds_and_budget(self, design,
                                                       workload):
        exact, sampled = _run_pair(design, workload, ACCURACY_LENGTH,
                                   SamplingPlan())
        block = sampled.sampling
        assert block["sampled"] is True
        assert not block["exact"], (
            "accuracy matrix must exercise genuine sampling — "
            f"{block['num_intervals']} intervals vs K={block['max_clusters']}")
        assert block["coverage"] < 1.0
        exact_dict, sampled_dict = exact.to_dict(), sampled.to_dict()
        bounds = block["error_bounds"]
        for metric in HEADLINE_METRICS:
            err = relative_error(_headline(sampled_dict, metric),
                                 _headline(exact_dict, metric),
                                 rate_metric=metric.endswith("_rate"))
            assert err <= bounds[metric], (
                f"{design}-{workload} {metric}: error {err:.4f} exceeds "
                f"reported bound {bounds[metric]:.4f}")
            assert err <= ERROR_BUDGET, (
                f"{design}-{workload} {metric}: error {err:.4f} exceeds "
                f"the {ERROR_BUDGET:.0%} budget")

    @pytest.mark.parametrize("design", DESIGNS)
    def test_bounds_are_reported_for_every_headline_metric(self, design):
        _, sampled = _run_pair(design, "gups", ACCURACY_LENGTH,
                               SamplingPlan())
        bounds = sampled.sampling["error_bounds"]
        assert set(bounds) == set(HEADLINE_METRICS)
        for metric, bound in bounds.items():
            assert 0.0 < bound <= 0.5, (metric, bound)


class TestDegenerateExactness:
    """Plans that cannot sample must reproduce the exact lane bitwise."""

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_cluster_budget_covers_all_intervals(self, design, workload):
        # At 6,000 refs the default plan yields 10 intervals <= K=10:
        # every interval is its own singleton representative.
        exact, sampled = _run_pair(design, workload, GOLDEN_LENGTH,
                                   SamplingPlan())
        block = sampled.sampling
        assert block["exact"] is True
        assert block["coverage"] == 1.0
        assert block["num_clusters"] == block["num_intervals"]
        assert all(e == 0.0 for e in block["error_bounds"].values())
        assert _strip_sampling(sampled.to_dict()) == exact.to_dict()

    def test_interval_spanning_whole_trace(self):
        plan = SamplingPlan(interval_size=GOLDEN_LENGTH * 2)
        exact, sampled = _run_pair("seesaw", "redis", GOLDEN_LENGTH, plan)
        assert sampled.sampling["exact"] is True
        assert sampled.sampling["num_intervals"] == 1
        assert _strip_sampling(sampled.to_dict()) == exact.to_dict()

    def test_degenerate_lane_matches_golden_fixture(self):
        """The degenerate lane agrees with the committed golden result,
        not merely with a fresh exact run."""
        import json
        from pathlib import Path
        golden = json.loads(
            (Path(__file__).parent / "golden" / "vipt-redis.json")
            .read_text())
        _, sampled = _run_pair("vipt", "redis", GOLDEN_LENGTH,
                               SamplingPlan())
        sampled_dict = _strip_sampling(sampled.to_dict())
        for metric in HEADLINE_METRICS:
            assert _headline(sampled_dict, metric) == pytest.approx(
                _headline(golden, metric), rel=1e-12)


class TestSharedResultFields:
    """Both lanes build results through the simulator's one builder, so a
    sampled result carries every field the exact lane reports."""

    def test_coherence_probes_without_superpage_accesses(self):
        """A SEESAW machine whose representatives hold no superpage
        access still reports its coherence probes (Fig. 11's coherence
        lookups), within 5% of the exact lane."""
        from repro.mem.os_policy import THPPolicy
        from repro.workloads.suite import cached_trace

        config = SystemConfig(seed=SEED, thp_policy=THPPolicy.NEVER,
                              way_prediction=True)
        trace = cached_trace("gups", 30_000, seed=SEED)
        exact = SystemSimulator(config, trace).run()
        sampled = simulate_sampled(
            config, trace,
            SamplingPlan(interval_size=600, max_clusters=20, warmup=600))
        assert not sampled.sampling["exact"]
        assert sampled.superpage_accesses == 0
        for field in ("coherence_probes", "coherence_ways_probed"):
            exact_value = getattr(exact, field)
            assert exact_value > 0
            assert relative_error(getattr(sampled, field),
                                  exact_value) <= ERROR_BUDGET, field
