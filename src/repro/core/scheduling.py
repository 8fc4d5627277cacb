"""Instruction-scheduler interaction with SEESAW's variable hit latency
(paper §IV-B3).

Out-of-order cores speculatively wake dependents of a load assuming a hit
latency.  With SEESAW the hit latency is bimodal (fast for TFT-confirmed
superpages, slow otherwise), so the scheduler must pick which latency to
assume:

* assume **fast** and the access turns out slow → dependents issued too
  early are squashed and replayed (a fixed penalty);
* assume **slow** and the access is fast → no squash, but the latency win
  is forfeited (energy win remains).

SEESAW's policy: speculate fast by default, but fall back to assuming slow
when superpages are scarce — detected by a counter of valid entries in the
superpage L1 TLB dropping below a quarter of its capacity (the threshold
the paper found by sweeping).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class HitSpeculationPolicy(enum.Enum):
    """Which hit latency the scheduler assumes for a load."""

    ALWAYS_FAST = "always-fast"
    ALWAYS_SLOW = "always-slow"
    #: the paper's adaptive policy: fast unless superpages are scarce.
    ADAPTIVE = "adaptive"


@dataclass
class SchedulerStats:
    """Squash/replay accounting."""

    squashes: int = 0


class SchedulerModel:
    """Models speculative wakeup for a variable-hit-latency L1.

    The simulator builds one per out-of-order core with a SEESAW L1 and
    passes every L1 hit through :meth:`hit_latency`, which picks the
    assumed latency, counts any squash, and returns the latency the core
    is charged.

    Args:
        fast_cycles: the SEESAW fast (superpage) hit latency.
        slow_cycles: the full-set (base-page / baseline) hit latency.
        policy: speculation policy (paper default ADAPTIVE).
        squash_penalty_cycles: replay cost when dependents were woken too
            early.  The TFT verdict arrives about a quarter cycle into the
            lookup (paper §IV-A2) — before the fast-hit data — so the
            scheduler can cancel most speculative wakeups in time; what
            remains is roughly one wasted wakeup/issue slot (default 1),
            not a pipeline flush.
        scarcity_threshold: assume slow when the superpage TLB's valid-entry
            count falls below ``capacity * scarcity_threshold`` (paper: 1/4).
    """

    def __init__(self, fast_cycles: int, slow_cycles: int,
                 policy: HitSpeculationPolicy = HitSpeculationPolicy.ADAPTIVE,
                 squash_penalty_cycles: int = 1,
                 scarcity_threshold: float = 0.25) -> None:
        if fast_cycles > slow_cycles:
            raise ValueError("fast hit latency cannot exceed slow latency")
        self.fast_cycles = fast_cycles
        self.slow_cycles = slow_cycles
        self.policy = policy
        self.squash_penalty_cycles = squash_penalty_cycles
        self.scarcity_threshold = scarcity_threshold
        self.stats = SchedulerStats()

    def hit_latency(self, actual_latency: int, superpage_tlb_valid: int,
                    superpage_tlb_capacity: int) -> int:
        """The latency one L1 hit of ``actual_latency`` costs the core.

        The scheduler first picks the latency it assumes: the adaptive
        policy assumes fast unless superpages are scarce, that is unless
        the superpage L1 TLB's ``superpage_tlb_valid`` entries fall below
        ``superpage_tlb_capacity * scarcity_threshold``; the fixed
        policies always assume the same.  The assumption meets the actual
        latency (§IV-B3):

        * assumed fast, actual fast  → fast latency, no squash;
        * assumed fast, actual slow  → actual latency + squash penalty,
          the penalty capped by the ``actual - assumed`` window (only the
          wakeups issued inside it need replay);
        * assumed slow, actual fast  → *slow* latency (dependents were
          scheduled for the slow wakeup; the early data cannot be consumed
          sooner), no squash;
        * assumed slow, actual slow  → slow latency, no squash.

        Misses never come here: a miss squashes dependents under *any*
        design (the baseline schedules for a hit too), so its replay cost
        is common-mode and the core is charged the miss latency alone.
        """
        policy = self.policy
        if policy is HitSpeculationPolicy.ADAPTIVE:
            assumed_fast = (superpage_tlb_valid
                            >= superpage_tlb_capacity
                            * self.scarcity_threshold)
        else:
            assumed_fast = policy is HitSpeculationPolicy.ALWAYS_FAST
        assumed = self.fast_cycles if assumed_fast else self.slow_cycles
        if actual_latency > assumed:
            penalty = actual_latency - assumed
            if penalty > self.squash_penalty_cycles:
                penalty = self.squash_penalty_cycles
            self.stats.squashes += 1
            return actual_latency + penalty
        return assumed if assumed > actual_latency else actual_latency
