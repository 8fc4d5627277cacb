"""Out-of-order core timing model (Intel Sandybridge-like).

Modeled with the standard interval-analysis approximation: the 168-entry
ROB and 54-entry scheduler (paper Table II) let the core overlap a fraction
of every L1 hit's latency with independent work, and overlap misses with
each other (memory-level parallelism).  Variable-hit-latency interaction —
the squash/replay penalty when SEESAW's fast-hit speculation fails — is
handled *outside* this class by :class:`repro.core.scheduling.SchedulerModel`,
whose effective latency is what gets charged here.
"""

from __future__ import annotations

import math

from repro.cpu.core import CoreModel


class OutOfOrderCore(CoreModel):
    """Sandybridge-like out-of-order core.

    Hit latencies are charged with *logarithmic* exposure,
    ``hit_exposure * log2(1 + L)``: a pipelined L1 serves back-to-back
    loads, so a fixed hit latency stalls the core only through dependence
    chains, and the deep ROB/scheduler hides proportionally more of a
    longer fixed latency (doubling L does not double the stall).  Misses
    overlap with each other instead (memory-level parallelism) and are
    charged ``L / miss_mlp``.

    The 168-entry ROB and 54-entry scheduler (Table II) are not modeled
    entry by entry: their hiding capacity is folded into ``hit_exposure``
    and ``miss_mlp``.

    Args:
        hit_exposure: scale of the log-compressed hit-latency stall.
        miss_mlp: effective memory-level parallelism for misses.
    """

    def __init__(self, issue_width: int = 4, frequency_ghz: float = 1.33,
                 hit_exposure: float = 0.55, miss_mlp: float = 2.5) -> None:
        super().__init__(issue_width, frequency_ghz)
        self.hit_exposure = hit_exposure
        self.miss_mlp = miss_mlp

    def memory_stall(self, hit: bool, latency_cycles: float) -> float:
        if hit:
            # The window hides a fixed *time* budget: at higher clocks the
            # same ROB/scheduler covers fewer cycles, so the exposure
            # factor rises gently with frequency (this is what makes the
            # paper's Fig. 8 gains grow with clock rate).
            scale = (self.frequency_ghz / 1.33) ** 0.3
            return self.hit_exposure * scale * math.log2(1.0 + latency_cycles)
        return max(1.0, latency_cycles / self.miss_mlp)
