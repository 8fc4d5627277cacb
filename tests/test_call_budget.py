"""A ceiling on Python calls per reference in the exact lane's loop.

Wall-clock gates cannot see a few percent, but calls are exact: the same
code on the same interpreter makes the same calls.  The window is
``run_until(25000)`` after ``run_until(20000)`` on 60k-reference traces
(seed 42), so it holds no warmup reset and no bulk fold.  Each ceiling
is the count when it was set plus 0.25.  A change that adds
per-reference work raises the ceiling and says so.

The cells cover the loop's paths: one-core traces with no coherence
fabric (gups, redis), the 4-core g500 trace, the one that still calls a
fabric, mcf on the fragmented in-order machine, where page churn and
context switches still end segments, and gups on VIVT, whose fills
return a victim mapped through the synonym filter.
"""

import sys

import pytest

from repro.sim.config import SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.suite import build_trace, get_workload

#: machine name -> the ``SystemConfig`` fields it sets.
MACHINES = {
    "vipt": dict(l1_design="vipt"),
    "seesaw": dict(l1_design="seesaw"),
    "vivt": dict(l1_design="vivt"),
    # perfbench's fragmented rows: memhog 0.5 on the in-order core,
    # splinter and promote every 3000 references, a context switch
    # every 5000.
    "seesaw-fragmented": dict(
        l1_design="seesaw", core="inorder", memhog_fraction=0.5,
        splinter_interval=3000, promote_interval=3000,
        context_switch_interval=5000),
}

#: (workload, machine) -> ceiling on Python calls per reference.
CEILINGS = {
    ("redis", "seesaw"): 6.96 + 0.25,
    ("gups", "vipt"): 10.30 + 0.25,
    ("g500", "seesaw"): 8.70 + 0.25,
    ("mcf", "seesaw-fragmented"): 11.86 + 0.25,
    ("gups", "vivt"): 11.78 + 0.25,
}


@pytest.mark.parametrize("workload,machine", sorted(CEILINGS))
def test_calls_per_reference_stay_under_the_ceiling(workload, machine):
    trace = build_trace(get_workload(workload), length=60_000, seed=42)
    sim = SystemSimulator(SystemConfig(seed=42, **MACHINES[machine]),
                          trace)
    sim.run_until(20_000)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        sim.run_until(25_000)
    finally:
        sys.setprofile(None)
    # The run_until call itself is one of them.
    per_reference = (calls - 1) / 5_000
    assert per_reference <= CEILINGS[workload, machine], (
        f"{workload}/{machine}: {per_reference:.2f} Python calls per "
        f"reference, over the ceiling {CEILINGS[workload, machine]:.2f}")
