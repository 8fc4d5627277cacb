"""Experiment drivers: run, compare, and sweep configurations.

Every figure in the paper is a comparison of SEESAW against a baseline on
identical traces and identical OS/fragmentation state.  These helpers make
that pattern one call: the same seeded trace is replayed through freshly
built systems that differ only in the L1 design.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.sim.config import L1_DESIGNS, SystemConfig
from repro.sim.stats import SimulationResult
from repro.sim.system import simulate
from repro.workloads.suite import (WorkloadSpec, build_trace, cached_trace,
                                   get_workload)
from repro.workloads.trace import MemoryTrace


def _require_known_designs(designs: Iterable[str]) -> List[str]:
    """Validate design names up front, so a typo fails with the list of
    valid choices instead of a bare KeyError deep in construction."""
    designs = list(designs)
    for design in designs:
        if design not in L1_DESIGNS:
            raise ValueError(
                f"unknown design {design!r}; valid designs: "
                f"{', '.join(L1_DESIGNS)}")
    return designs


def run_workload(config: SystemConfig, workload: str,
                 trace_length: int = 60_000,
                 seed: int = 42) -> SimulationResult:
    """Build the named workload's trace and simulate it under ``config``.

    The trace is memoized (see :func:`repro.workloads.suite.cached_trace`):
    back-to-back runs of one workload under different designs — a sweep
    row — skip the regeneration cost.
    """
    trace = cached_trace(workload, trace_length, seed=seed)
    return simulate(config, trace)


def compare_designs(config: SystemConfig, trace: MemoryTrace,
                    designs: Sequence[str] = ("vipt", "seesaw"),
                    ) -> Dict[str, SimulationResult]:
    """Run ``trace`` under each design with otherwise identical config."""
    return {design: simulate(config.with_design(design), trace)
            for design in _require_known_designs(designs)}


def improvement_percent(baseline: float, improved: float) -> float:
    """Percent improvement of ``improved`` over ``baseline`` (lower=better
    metrics such as runtime or energy)."""
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline


def _require_in_results(results: Dict[str, SimulationResult],
                        role: str, name: str) -> SimulationResult:
    if name not in results:
        raise ValueError(
            f"{role} design {name!r} not in results; available designs: "
            f"{', '.join(sorted(results)) or '(none)'}")
    return results[name]


def runtime_improvement(results: Dict[str, SimulationResult],
                        baseline: str = "vipt",
                        candidate: str = "seesaw") -> float:
    """Percent runtime improvement of ``candidate`` over ``baseline``."""
    return improvement_percent(
        _require_in_results(results, "baseline", baseline).runtime_cycles,
        _require_in_results(results, "candidate", candidate).runtime_cycles)


def energy_improvement(results: Dict[str, SimulationResult],
                       baseline: str = "vipt",
                       candidate: str = "seesaw") -> float:
    """Percent memory-hierarchy energy improvement."""
    return improvement_percent(
        _require_in_results(results, "baseline", baseline).total_energy_nj,
        _require_in_results(results, "candidate", candidate).total_energy_nj)


def sweep(base_config: SystemConfig,
          workloads: Iterable[str],
          trace_length: int = 60_000,
          seed: int = 42,
          designs: Sequence[str] = ("vipt", "seesaw"),
          journal_path=None, resume: bool = True,
          ) -> Dict[str, Dict[str, SimulationResult]]:
    """Run several workloads under several designs.

    Returns ``{workload: {design: result}}``.  With a
    ``journal_path`` every completed cell is journaled and an interrupted
    sweep resumes from the journal (see :mod:`repro.resilience.runner`;
    the full knob set — isolation, timeouts, retries, fault injection —
    lives on :func:`repro.resilience.resilient_sweep`).
    """
    from repro.resilience.runner import resilient_sweep

    _require_known_designs(designs)
    report = resilient_sweep(base_config, workloads,
                             trace_length=trace_length, seed=seed,
                             designs=designs,
                             journal_path=journal_path, resume=resume,
                             max_retries=0,
                             fail_fast=journal_path is None)
    return report.results


def summarize_improvements(
        results: Dict[str, Dict[str, SimulationResult]],
        metric: str = "runtime",
        baseline: str = "vipt",
        candidate: str = "seesaw") -> Dict[str, float]:
    """Per-workload percent improvement for ``metric`` (runtime|energy)."""
    out: Dict[str, float] = {}
    for name, by_design in results.items():
        if metric == "runtime":
            out[name] = runtime_improvement(by_design, baseline, candidate)
        elif metric == "energy":
            out[name] = energy_improvement(by_design, baseline, candidate)
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return out


def min_avg_max(values: Sequence[float]) -> Tuple[float, float, float]:
    """The (min, mean, max) triple the paper's summary figures report."""
    if not values:
        return (0.0, 0.0, 0.0)
    return (min(values), sum(values) / len(values), max(values))
