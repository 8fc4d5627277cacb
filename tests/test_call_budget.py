"""A ceiling on Python calls per reference in the exact lane's loop.

Wall-clock gates cannot see a few percent, but calls are exact: the same
code on the same interpreter makes the same calls.  The window is
``run_until(25000)`` after ``run_until(20000)`` on 60k-reference traces
(seed 42), so it holds no warmup reset and no bulk fold.  Each ceiling
is the count when it was set plus 0.25.  A change that adds
per-reference work raises the ceiling and says so.
"""

import sys

import pytest

from repro.sim.config import SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.suite import build_trace, get_workload

#: (workload, L1 design) -> ceiling on Python calls per reference.
CEILINGS = {
    ("redis", "seesaw"): 7.89 + 0.25,
    ("gups", "vipt"): 12.15 + 0.25,
}


@pytest.mark.parametrize("workload,design", sorted(CEILINGS))
def test_calls_per_reference_stay_under_the_ceiling(workload, design):
    trace = build_trace(get_workload(workload), length=60_000, seed=42)
    sim = SystemSimulator(SystemConfig(seed=42, l1_design=design), trace)
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
    assert per_reference <= CEILINGS[workload, design], (
        f"{workload}/{design}: {per_reference:.2f} Python calls per "
        f"reference, over the ceiling {CEILINGS[workload, design]:.2f}")
