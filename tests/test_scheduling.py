"""Tests for the variable-hit-latency scheduler model (paper §IV-B3)."""

import pytest

from repro.core.scheduling import HitSpeculationPolicy, SchedulerModel


def make(policy=HitSpeculationPolicy.ADAPTIVE, fast=1, slow=2, penalty=1):
    return SchedulerModel(fast_cycles=fast, slow_cycles=slow, policy=policy,
                          squash_penalty_cycles=penalty)


#: a superpage L1 TLB (16 entries) that is full, and one that is empty.
PLENTY = (16, 16)
SCARCE = (0, 16)


class TestConstruction:
    def test_fast_cannot_exceed_slow(self):
        with pytest.raises(ValueError):
            SchedulerModel(fast_cycles=3, slow_cycles=2)


class TestAssumption:
    def test_always_fast(self):
        scheduler = make(HitSpeculationPolicy.ALWAYS_FAST)
        # Fast is assumed even when superpages are scarce.
        assert scheduler.hit_latency(1, *SCARCE) == 1
        assert scheduler.hit_latency(2, *SCARCE) == 3

    def test_always_slow(self):
        scheduler = make(HitSpeculationPolicy.ALWAYS_SLOW)
        # Slow is assumed even when superpages are plentiful.
        assert scheduler.hit_latency(1, *PLENTY) == 2
        assert scheduler.stats.squashes == 0

    def test_adaptive_threshold_is_quarter_capacity(self):
        # Paper: "setting the threshold of the counter to a quarter of the
        # number of superpage TLB entries achieves good performance".
        scheduler = make(HitSpeculationPolicy.ADAPTIVE)
        assert scheduler.hit_latency(1, 3, 16) == 2     # assumed slow
        assert scheduler.hit_latency(1, 4, 16) == 1     # assumed fast
        # Atom's 32-entry superpage TLB (Table II).
        assert scheduler.hit_latency(1, 7, 32) == 2
        assert scheduler.hit_latency(1, 8, 32) == 1

    def test_assumption_stats(self):
        """The adaptive assumption shows in the latency charged: a fast
        hit keeps its latency only when fast was assumed, and only that
        assumption squashes a slow hit."""
        scheduler = make(HitSpeculationPolicy.ADAPTIVE)
        assert scheduler.hit_latency(1, *PLENTY) == 1
        assert scheduler.hit_latency(1, *SCARCE) == 2
        assert scheduler.hit_latency(2, *SCARCE) == 2
        assert scheduler.stats.squashes == 0
        assert scheduler.hit_latency(2, *PLENTY) == 3
        assert scheduler.stats.squashes == 1


class TestResolveHit:
    """The four hit cases of §IV-B3, through ``hit_latency``."""

    def test_fast_assumption_fast_hit(self):
        scheduler = make()
        assert scheduler.hit_latency(1, *PLENTY) == 1
        assert scheduler.stats.squashes == 0

    def test_fast_assumption_slow_hit_squashes(self):
        scheduler = make(penalty=1)
        assert scheduler.hit_latency(2, *PLENTY) == 3
        assert scheduler.stats.squashes == 1

    def test_penalty_capped_by_speculation_window(self):
        scheduler = make(fast=1, slow=2, penalty=10)
        # Only one cycle of wakeups could have issued early.
        assert scheduler.hit_latency(2, *PLENTY) == 3
        assert scheduler.stats.squashes == 1

    def test_slow_assumption_forfeits_fast_hit(self):
        # Paper §IV-B3: "a faster hit ... may not translate to overall
        # runtime reduction, but will still provide the same energy
        # benefits."
        scheduler = make()
        assert scheduler.hit_latency(1, *SCARCE) == 2
        assert scheduler.stats.squashes == 0

    def test_slow_assumption_slow_hit(self):
        scheduler = make()
        assert scheduler.hit_latency(2, *SCARCE) == 2
        assert scheduler.stats.squashes == 0


class TestHighFrequencyConfigs:
    def test_128kb_at_4ghz_window(self):
        # Table III: base 42, super 4 at 4GHz — big speculation window.
        scheduler = SchedulerModel(fast_cycles=4, slow_cycles=42,
                                   squash_penalty_cycles=3)
        assert scheduler.hit_latency(42, *PLENTY) == 45
        assert scheduler.stats.squashes == 1
