"""The ``repro bench`` gates: perfbench against its committed trajectory,
and the sampled lane against the exact one.

* :func:`perfbench_gate` — plain ``repro bench``.  It runs
  ``perfbench/run.py`` untraced for every workload ``BENCHMARK.json``
  lists, prints each end-to-end metric beside the change-side median of
  the newest committed ``benchmarks/perf/BENCH_<n>.json`` that has the
  workload, and fails when a run is not correct or a simulation-speed
  metric reads worse than that median by more than
  :data:`MAX_REGRESSION`.  Committing a newer ``BENCH_<n>.json`` moves
  the reference.
* :func:`bench_sampled` and :func:`check_sampling` — ``repro bench
  --sampled``: sampled-vs-exact speedup and observed error per smoke
  cell, gated on a speedup floor, a flat error budget and the run's own
  reported bounds.
* :func:`calibrate` — the machine-speed yardstick perfbench normalises
  its host-speed figures by.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: How much worse than its reference a gated metric may read.
MAX_REGRESSION = 0.20
#: The end-to-end metrics the gate fails on: simulation speed.  The rest
#: are printed beside their references, but on one host they drift from
#: one day's runs to the next by more than any bound.
GATED_METRICS = ("refs_per_s", "cell_p50_s")
#: The checkout this module runs from (``<root>/src/repro/perf/bench.py``).
CHECKOUT = Path(__file__).resolve().parents[3]

#: The tier-1 smoke matrix (matches the CI kill-and-resume sweep).
SMOKE_WORKLOADS = ("g500", "gups", "redis", "mcf")
#: Reduced matrix for ``--quick`` (CI-budget) runs.
QUICK_WORKLOADS = ("gups", "redis")


def calibrate(iterations: int = 2_000_000) -> float:
    """Machine-speed yardstick: fixed-arithmetic iterations per second.

    A deterministic integer LCG spin — no allocation, no library calls —
    so the number tracks the interpreter + CPU speed the simulator itself
    runs on.  Used to normalize throughput across machines.
    """
    state = 1
    start = time.perf_counter()
    for _ in range(iterations):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
    elapsed = time.perf_counter() - start
    return iterations / elapsed


def reference_medians(root: Path, workload: str
                      ) -> Tuple[str, Dict[str, float]]:
    """The change-side median of every end-to-end metric of ``workload``
    in the newest ``benchmarks/perf/BENCH_<n>.json`` under ``root`` that
    has it (``n`` compared as an integer), with that file's name."""
    numbered = [(int(path.stem[len("BENCH_"):]), path) for path
                in (root / "benchmarks" / "perf").glob("BENCH_*.json")
                if path.stem[len("BENCH_"):].isdigit()]
    for _, path in sorted(numbered, reverse=True):
        summary = json.loads(path.read_text(encoding="utf-8"))["summary"]
        if workload in summary:
            return path.name, {
                metric: figures["change_q1_median_q3"][1]
                for metric, figures in summary[workload].items()}
    raise LookupError(f"no benchmarks/perf/BENCH_<n>.json under {root} "
                      f"has a reference for workload {workload!r}")


def judge(result: Dict, reference: Dict[str, float],
          better: Dict[str, str]) -> Dict:
    """One perfbench result (its last line's JSON) against its reference.

    Each end-to-end metric's verdict is ``fail`` when it is gated and
    reads worse than its reference by more than :data:`MAX_REGRESSION` in
    the direction ``better`` names, ``pass`` when gated otherwise, and ``-``.
    ``problems`` lists each ``fail``, and a run that is not correct or
    failed an operation, whatever its speed (empty = pass).
    """
    problems = [] if result["correct"] and not result["failed"] else [
        f"run not correct: {result['failed']} of {result['attempted']} "
        f"operations and checks failed"]
    metrics = {}
    for metric, figure in result["metrics"].items():
        value, median = figure["value"], reference[metric]
        worse = (median - value if better[metric] == "higher"
                 else value - median) / median
        verdict = ("-" if metric not in GATED_METRICS
                   else "fail" if worse > MAX_REGRESSION else "pass")
        if verdict == "fail":
            problems.append(f"{metric} {value:.6g} is {worse:.1%} worse "
                            f"than its reference {median:.6g}")
        metrics[metric] = {"unit": figure["unit"], "value": value,
                           "reference": median, "verdict": verdict}
    return {"problems": problems, "metrics": metrics}


def run_perfbench(root: Path, workload: str, seed: int,
                  seconds: float) -> Optional[Dict]:
    """Run one perfbench workload untraced and show its report; returns
    its last line's JSON, or None when it ended without one."""
    completed = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    print(completed.stdout, end="", flush=True)
    try:
        return (json.loads(completed.stdout.splitlines()[-1])
                if completed.returncode == 0 else None)
    except (IndexError, ValueError):
        return None


def perfbench_gate(output: os.PathLike, seed: int = 42,
                   root: Path = CHECKOUT) -> int:
    """``repro bench``: every perfbench workload of the checkout at
    ``root`` against its committed reference, each :func:`judge` record
    written to ``output``.  Returns the exit code: 0 pass, 1 a failed run
    or a gated regression, 2 no perfbench or reference to run against.
    """
    from repro.analysis.report import format_table

    try:
        if not (root / "perfbench" / "run.py").is_file():
            raise FileNotFoundError(f"no perfbench/run.py under {root}; "
                                    f"run repro bench from a checkout")
        spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
        references = {workload["name"]:
                      reference_medians(root, workload["name"])
                      for workload in spec["workloads"]}
    except (OSError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    better = {metric["name"]: metric["better"]
              for metric in spec["end_to_end"]}
    records: Dict[str, Dict] = {}
    problems: List[str] = []
    for workload, (source, reference) in references.items():
        result = run_perfbench(root, workload, seed, spec["run_seconds"])
        record = (judge(result, reference, better) if result is not None
                  else {"problems": ["perfbench ended without a result"],
                        "metrics": {}})
        records[workload] = dict(record, reference_file=source)
        problems += [f"{workload}: {problem}"
                     for problem in record["problems"]]
        print(format_table(
            ["metric", "unit", "value", "reference", "change", "gate"],
            [[metric, m["unit"], f"{m['value']:.6g}",
              f"{m['reference']:.6g}",
              f"{m['value'] / m['reference'] - 1:+.1%}", m["verdict"]]
             for metric, m in record["metrics"].items()],
            title=f"{workload} against the medians of {source}"))
    Path(output).write_text(json.dumps(
        {"seed": seed, "max_regression": MAX_REGRESSION,
         "workloads": records}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    for problem in problems:
        print(f"BENCH GATE: {problem}", file=sys.stderr)
    if not problems:
        print(f"bench gate passed: {' and '.join(GATED_METRICS)} within "
              f"{MAX_REGRESSION:.0%} of their references")
    return 1 if problems else 0


def _headline_value(result_dict: Dict, metric: str) -> float:
    """Pull one headline metric out of a ``SimulationResult.to_dict()``."""
    if metric == "l1_miss_rate":
        return 1.0 - result_dict["l1_hit_rate"]
    return float(result_dict[metric])


def bench_sampled(workloads: Optional[Sequence[str]] = None,
                  designs: Sequence[str] = ("vipt", "seesaw"),
                  trace_length: int = 60_000, seed: int = 42,
                  repeats: int = 4, quick: bool = False,
                  plan=None) -> Dict:
    """Sampled-vs-exact speedup and observed accuracy per smoke cell.

    Timing methodology: per cell, the exact run loop and the sampled
    pipeline (profile + cluster + measurement loop) are timed
    *back-to-back, best-of-N* — interleaving the two lanes inside one
    cell keeps CPU frequency/cache state comparable, which matters far
    more than repeat count (measuring all exact lanes up front then all
    sampled lanes produces 2x swings on identical work).  The reported
    speedup is the better of best-exact/best-sampled and the best
    *paired* per-repeat ratio: a host load spike that lands on only one
    lane of a pair contaminates min/min, but some adjacent pair usually
    ran under matching conditions.  The speedup denominator deliberately
    excludes trace build, simulator construction, and prewarm: both
    lanes pay those identically, and the sampled lane's pitch is about
    the measurement loop it avoids.  Each cell also carries the stages
    of its fastest sampled repeat (``profile_s``, ``cluster_s``,
    ``loop_s``, and ``warm_s``, the gap warming inside ``loop_s``), so a
    speedup below the gate shows which stage used up the margin.

    Accuracy: observed relative error of every headline metric against
    the exact lane's counters, checked against both the flat budget and
    the run's own reported confidence bounds by :func:`check_sampling`.
    """
    from repro.sampling import SamplingPlan, simulate_sampled
    from repro.sampling.runner import HEADLINE_METRICS, relative_error
    from repro.sim.config import SystemConfig
    from repro.sim.system import SystemSimulator
    from repro.workloads.suite import cached_trace

    if plan is None:
        plan = SamplingPlan()
    workloads = list(workloads
                     or (QUICK_WORKLOADS if quick else SMOKE_WORKLOADS))
    repeats = max(1, repeats)

    cells: List[Dict] = []
    for workload in workloads:
        trace = cached_trace(workload, trace_length, seed=seed)
        trace.columns()  # build the cached arrays outside every clock
        for design in designs:
            config = SystemConfig(l1_design=design, seed=seed)
            exact_samples: List[float] = []
            sampled_samples: List[float] = []
            sampled_stages: List[Dict[str, float]] = []
            exact_result = None
            sampled_result = None
            for _ in range(repeats):
                simulator = SystemSimulator(config, trace)
                simulator._begin(0.25)
                start = time.perf_counter()
                simulator.run_until(len(trace))
                exact_samples.append(time.perf_counter() - start)
                if exact_result is None:
                    exact_result = simulator.finish()
                timings: Dict[str, float] = {}
                sampled_result = simulate_sampled(config, trace, plan,
                                                  timings=timings)
                sampled_samples.append(timings.get("profile", 0.0)
                                       + timings.get("cluster", 0.0)
                                       + timings["loop"])
                sampled_stages.append(timings)
            exact_s = min(exact_samples)
            sampled_s = min(sampled_samples)
            # The stages of the fastest sampled repeat, the one that
            # sets ``sampled_loop_s``; ``warm_s`` is part of ``loop_s``.
            stages = sampled_stages[sampled_samples.index(sampled_s)]
            speedup = max(exact_s / sampled_s,
                          max(e / s for e, s in zip(exact_samples,
                                                    sampled_samples)))
            exact_dict = exact_result.to_dict()
            sampled_dict = sampled_result.to_dict()
            errors = {
                metric: relative_error(
                    _headline_value(sampled_dict, metric),
                    _headline_value(exact_dict, metric),
                    rate_metric=metric.endswith("_rate"))
                for metric in HEADLINE_METRICS
            }
            bounds = sampled_result.sampling["error_bounds"]
            cells.append({
                "workload": workload,
                "design": design,
                "exact_loop_s": exact_s,
                "sampled_loop_s": sampled_s,
                "profile_s": stages.get("profile", 0.0),
                "cluster_s": stages.get("cluster", 0.0),
                "warm_s": stages.get("warm", 0.0),
                "loop_s": stages["loop"],
                "speedup": speedup,
                "coverage": sampled_result.sampling["coverage"],
                "errors": errors,
                "error_bounds": bounds,
                "within_bounds": all(errors[m] <= bounds[m]
                                     for m in HEADLINE_METRICS),
            })

    speedups = sorted(cell["speedup"] for cell in cells)
    worst_metric, worst_error = max(
        ((metric, cell["errors"][metric])
         for cell in cells for metric in cell["errors"]),
        key=lambda pair: pair[1])
    return {
        "plan": plan.to_dict(),
        "trace_length": trace_length,
        "seed": seed,
        "repeats": repeats,
        "cells": cells,
        "min_speedup": speedups[0],
        "median_speedup": statistics.median(speedups),
        "worst_error": worst_error,
        "worst_error_metric": worst_metric,
    }


def check_sampling(sampled: Dict, min_speedup: float = 5.0,
                   max_error: float = 0.05) -> List[str]:
    """Gate a :func:`bench_sampled` payload; returns problems (empty = pass).

    Three independent conditions, each per cell: the sampled lane must
    be at least ``min_speedup`` times faster than the exact lane, every
    headline metric's observed error must fit the flat ``max_error``
    budget, and every observed error must also fall within the bound the
    sampled run *itself reported* — a run that is fast and accurate but
    mis-states its own confidence still fails.
    """
    problems: List[str] = []
    for cell in sampled.get("cells", []):
        label = f"({cell['workload']}, {cell['design']})"
        if cell["speedup"] < min_speedup:
            problems.append(
                f"{label}: sampled speedup {cell['speedup']:.2f}x is "
                f"below the {min_speedup:g}x floor")
        for metric, error in cell["errors"].items():
            if error > max_error:
                problems.append(
                    f"{label}: {metric} relative error {error:.4f} "
                    f"exceeds the {max_error:g} budget")
            bound = cell["error_bounds"].get(metric)
            if bound is not None and error > bound:
                problems.append(
                    f"{label}: {metric} relative error {error:.4f} "
                    f"exceeds its reported confidence bound {bound:.4f}")
    if not sampled.get("cells"):
        problems.append("sampled bench payload has no cells")
    return problems

