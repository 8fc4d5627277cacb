"""Golden regression tests: frozen end-to-end simulation results.

Each fixture under ``tests/golden/`` is the full
``SimulationResult.to_dict()`` of one cell (a workload on one machine
configuration) at a fixed seed and trace length, committed before the
hot-path rewrite that could change it.  The tests assert the simulator
still produces *bit-identical* results — every counter, every float — so
performance work (memoized address math, slotted cache lines, batched
stat updates, the parallel sweep engine) can never silently change
behaviour.

Regenerate deliberately with::

    pytest tests/test_golden.py --update-golden

and review the diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.scheduling import HitSpeculationPolicy
from repro.sim.config import SystemConfig
from repro.sim.experiment import run_workload

GOLDEN_DIR = Path(__file__).parent / "golden"

#: fixed scale of every golden cell — changing either invalidates the lot.
TRACE_LENGTH = 6_000
SEED = 42

DESIGNS = ("vipt", "pipt", "vivt", "seesaw")
WORKLOADS = ("redis", "gups")
#: ``(fixture name, workload, SystemConfig overrides)``.  The design x
#: workload cells run the default machine; the rest pin the per-reference
#: branches it never takes: the in-order core (its L2 TLB's two-lookup
#: energy, no scheduler) under churn whose splinter fires on a probe index
#: (2099), both fixed speculation policies, the way-prediction shells, and
#: the snoopy and absent coherence fabrics.
CASES = [(f"{design}-{workload}", workload, {"l1_design": design})
         for design in DESIGNS for workload in WORKLOADS] + [
    ("seesaw-g500-inorder-churn", "g500",
     {"l1_design": "seesaw", "core": "inorder", "memhog_fraction": 0.4,
      "splinter_interval": 700, "promote_interval": 900,
      "context_switch_interval": 1100}),
    ("seesaw-gups-always-fast", "gups",
     {"l1_design": "seesaw",
      "speculation": HitSpeculationPolicy.ALWAYS_FAST}),
    ("seesaw-gups-always-slow", "gups",
     {"l1_design": "seesaw",
      "speculation": HitSpeculationPolicy.ALWAYS_SLOW}),
    ("vipt-wp-redis-snoop", "redis",
     {"l1_design": "vipt", "way_prediction": True, "coherence": "snoop"}),
    ("seesaw-wp-mcf-none", "mcf",
     {"l1_design": "seesaw", "way_prediction": True, "coherence": "none"}),
]


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def run_cell(workload: str, overrides: dict) -> dict:
    """Simulate one golden cell and return its JSON-normalized payload."""
    result = run_workload(SystemConfig(seed=SEED, **overrides),
                          workload, trace_length=TRACE_LENGTH, seed=SEED)
    # Round-trip through JSON so the comparison sees exactly what the
    # fixture file stores (floats survive via repr round-tripping).
    return json.loads(json.dumps(result.to_dict(), sort_keys=True))


def write_fixture(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


@pytest.mark.parametrize("name,workload,overrides", CASES,
                         ids=[name for name, _w, _o in CASES])
def test_golden_cell(name, workload, overrides, update_golden):
    payload = run_cell(workload, overrides)
    path = golden_path(name)
    if update_golden:
        write_fixture(path, payload)
        return
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        f"`pytest tests/test_golden.py --update-golden`")
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert payload == expected, (
        f"{name} diverged from its golden fixture — if the "
        f"change is intentional, regenerate with --update-golden and commit "
        f"the diff")


def test_golden_fixtures_complete():
    """Every expected fixture file exists (no silently skipped designs)."""
    missing = [str(golden_path(name)) for name, _w, _o in CASES
               if not golden_path(name).exists()]
    assert not missing, f"missing golden fixtures: {missing}"
