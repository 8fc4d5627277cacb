"""Unit tests for the repro.perf package and canonical journals.

Covers the pieces the differential suite doesn't: the duplicate-in-flight
guard, failure degradation and fail-fast in the parallel dispatcher,
``SweepJournal.rewrite_canonical``, and the two ``repro bench`` gates:
perfbench against its committed reference (driven through a stub
``perfbench/run.py``, never the real one) and the sampled lane's
``check_sampling``.
"""

import json
from pathlib import Path

import pytest

from repro.perf.bench import (
    GATED_METRICS,
    check_sampling,
    judge,
    perfbench_gate,
    reference_medians,
)
from repro.perf.parallel import (
    DuplicateCellError,
    _CellTask,
    _ParallelDispatcher,
    parallel_sweep,
)
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.checkpoint import config_digest
from repro.resilience.runner import (
    CellError,
    SweepJournal,
    resilient_sweep,
)
from repro.sim.config import SystemConfig


def _task(slot, workload="gups", design="vipt", seed=42):
    config = SystemConfig(l1_design=design, seed=seed)
    return _CellTask(slot, workload, design, config, config_digest(config))


def _dispatcher(**overrides):
    parameters = dict(jobs=2, trace_length=500, seed=42, fault_plan=None,
                      timeout_s=None, max_retries=0, retry_backoff_s=0.01,
                      fail_fast=False)
    parameters.update(overrides)
    return _ParallelDispatcher(**parameters)


class TestDuplicateCellGuard:
    def test_spawning_an_in_flight_cell_raises(self):
        dispatcher = _dispatcher()
        first = _task(0)
        duplicate = _task(1)  # same (workload, design), different slot
        dispatcher._spawn(first)
        try:
            with pytest.raises(DuplicateCellError):
                dispatcher._spawn(duplicate)
        finally:
            dispatcher._shutdown()

    def test_distinct_cells_may_fly_together(self):
        dispatcher = _dispatcher()
        dispatcher._spawn(_task(0, design="vipt"))
        try:
            dispatcher._spawn(_task(1, design="seesaw"))
            assert len(dispatcher._in_flight) == 2
        finally:
            dispatcher._shutdown()


class TestParallelFailureHandling:
    def test_worker_error_degrades_to_failed_cell(self, tmp_path):
        """A deterministic worker error (sanitizer tripping on an injected
        fault) becomes a FailedCell record and the sweep keeps going —
        the serial runner's degradation contract."""
        plan = FaultPlan([FaultSpec("stats-skew", 1200)])
        journal = tmp_path / "journal.jsonl"
        report = parallel_sweep(
            SystemConfig(seed=42, sanitize=True), ["gups"],
            trace_length=2000, jobs=2, designs=("vipt", "seesaw"),
            fault_plan=plan, journal_path=journal)
        assert not report.ok
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.error_class == "SanitizerError"
            assert failure.attempts == 1  # deterministic: never retried
        raw = journal.read_text()
        assert raw.count('"type": "failed"') == 2

    def test_fail_fast_raises_cell_error(self):
        """fail_fast propagates the worker's exception shape instead of
        degrading."""
        plan = FaultPlan([FaultSpec("stats-skew", 1200)])
        with pytest.raises(CellError):
            parallel_sweep(
                SystemConfig(seed=42, sanitize=True), ["gups"],
                trace_length=2000, jobs=2, designs=("vipt", "seesaw"),
                fault_plan=plan, fail_fast=True)

    def test_timeout_degrades_after_retries(self, tmp_path):
        report = parallel_sweep(
            SystemConfig(seed=42), ["mcf"], trace_length=60_000, jobs=2,
            designs=("vipt",), timeout_s=0.02, max_retries=1,
            retry_backoff_s=0.01,
            journal_path=tmp_path / "journal.jsonl")
        assert not report.ok
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.error_class == "CellTimeout"
        assert failure.attempts == 2  # first try + one retry


class TestCanonicalJournal:
    def _write_out_of_order(self, path):
        journal = SweepJournal(path)
        journal.write_header({
            "workloads": ["gups", "redis"],
            "designs": ["vipt", "seesaw"],
        })
        journal.append_done("redis", "seesaw", "d1", {"x": 1})
        journal.append_done("gups", "vipt", "d2", {"x": 2})
        journal.append_done("redis", "vipt", "d3", {"x": 3})
        journal.append_done("gups", "seesaw", "d4", {"x": 4})
        return journal

    def test_rewrite_sorts_by_cell_enumeration(self, tmp_path):
        journal = self._write_out_of_order(tmp_path / "journal.jsonl")
        assert journal.rewrite_canonical() is True
        records = [json.loads(line) for line in
                   (tmp_path / "journal.jsonl").read_text().splitlines()]
        assert records[0]["type"] == "header"
        cells = [(r["workload"], r["design"]) for r in records[1:]]
        assert cells == [("gups", "vipt"), ("gups", "seesaw"),
                         ("redis", "vipt"), ("redis", "seesaw")]

    def test_rewrite_is_idempotent(self, tmp_path):
        journal = self._write_out_of_order(tmp_path / "journal.jsonl")
        journal.rewrite_canonical()
        first = (tmp_path / "journal.jsonl").read_bytes()
        assert journal.rewrite_canonical() is False
        assert (tmp_path / "journal.jsonl").read_bytes() == first

    def test_rewrite_collapses_superseded_records(self, tmp_path):
        journal = self._write_out_of_order(tmp_path / "journal.jsonl")
        journal.append_done("gups", "vipt", "d2", {"x": 99})  # supersedes
        journal.rewrite_canonical()
        _, cells = journal.read()
        assert cells[("gups", "vipt")]["result"] == {"x": 99}
        raw = (tmp_path / "journal.jsonl").read_text()
        assert raw.count('"workload": "gups", "design"') == 0  # sanity
        assert sum(1 for line in raw.splitlines()
                   if '"type": "done"' in line) == 4

    def test_rewrite_survives_checksum_validation(self, tmp_path):
        """Rewritten records must still pass the journal's per-record
        checksums (they are carried verbatim, not recomputed)."""
        journal = self._write_out_of_order(tmp_path / "journal.jsonl")
        journal.rewrite_canonical()
        header, cells = journal.read()  # read() raises on checksum failure
        assert len(cells) == 4

    def test_resumed_serial_sweep_matches_uninterrupted(self, tmp_path):
        """Interrupt a journaled sweep after one cell, resume it, and the
        final journal equals an uninterrupted run's journal byte for
        byte (the canonicalize-on-completion contract)."""
        config = SystemConfig(seed=42)
        full = tmp_path / "full.jsonl"
        resilient_sweep(config, ["gups"], trace_length=500,
                        journal_path=full)
        partial = tmp_path / "partial.jsonl"
        resilient_sweep(config, ["gups"], trace_length=500,
                        designs=("vipt",), journal_path=partial)
        # Patch the partial journal's header to the full matrix, as a
        # killed full sweep would have written it.
        header_line = full.read_text().splitlines()[0]
        partial_lines = partial.read_text().splitlines()
        partial.write_text("\n".join([header_line, partial_lines[1]]) + "\n")
        resumed = resilient_sweep(config, ["gups"], trace_length=500,
                                  journal_path=partial, resume=True)
        assert resumed.reused == 1
        assert partial.read_bytes() == full.read_bytes()


# ------------------------------------------------------------ bench gates

REPO_ROOT = Path(__file__).resolve().parents[1]
BETTER = {"refs_per_s": "higher", "cell_p50_s": "lower",
          "serve_hot_p50_ms": "lower"}
REFERENCE = {"refs_per_s": 50_000.0, "cell_p50_s": 2.0,
             "serve_hot_p50_ms": 6.0}

#: Stands in for perfbench/run.py: a report line, then the JSON result
#: the test left beside it (crashing when there is none).
STUB_RUN = """\
import json, sys
from pathlib import Path
print("stub report", " ".join(sys.argv[1:]))
print((Path(__file__).parent / "result.json").read_text().strip())
"""


def _result(correct=True, failed=0, **values):
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {name: {"value": value, "unit": "u"}
                        for name, value in dict(REFERENCE, **values).items()}}


def _bench_file(root, number, workloads):
    path = root / "benchmarks" / "perf" / f"BENCH_{number}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"summary": {
        workload: {metric: {"change_q1_median_q3": [0.9 * v, v, 1.1 * v]}
                   for metric, v in medians.items()}
        for workload, medians in workloads.items()}}))


def _checkout(root, result, workloads=("exact-matrix",), referenced=None):
    """A checkout at ``root`` with a stub perfbench that prints
    ``result`` for every workload, and a BENCH_16.json referencing the
    ``referenced`` workloads (default: all of them)."""
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    if result is not None:
        (root / "perfbench" / "result.json").write_text(json.dumps(result))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 3, "workloads": [{"name": w} for w in workloads],
        "end_to_end": [{"name": name, "better": better}
                       for name, better in BETTER.items()]}))
    _bench_file(root, 16, {workload: REFERENCE
                           for workload in referenced or workloads})


class TestGateComparison:
    @pytest.mark.parametrize("metric,factor,passes", [
        ("refs_per_s", 0.81, True),    # higher is better: 19% worse
        ("refs_per_s", 0.79, False),   # 21% worse
        ("cell_p50_s", 1.19, True),    # lower is better: 19% worse
        ("cell_p50_s", 1.21, False),   # 21% worse
    ])
    def test_gated_metric_fails_past_twenty_percent_worse(
            self, metric, factor, passes):
        record = judge(_result(**{metric: factor * REFERENCE[metric]}),
                       REFERENCE, BETTER)
        assert (record["problems"] == []) is passes
        assert record["metrics"][metric]["verdict"] == (
            "pass" if passes else "fail")

    @pytest.mark.parametrize("metric,factor", [
        ("refs_per_s", 10.0), ("cell_p50_s", 0.1)])
    def test_better_value_never_fails(self, metric, factor):
        record = judge(_result(**{metric: factor * REFERENCE[metric]}),
                       REFERENCE, BETTER)
        assert record["problems"] == []

    def test_ungated_metric_never_fails(self):
        assert "serve_hot_p50_ms" not in GATED_METRICS
        record = judge(_result(serve_hot_p50_ms=60.0), REFERENCE, BETTER)
        assert record["problems"] == []
        assert record["metrics"]["serve_hot_p50_ms"] == {
            "unit": "u", "value": 60.0, "reference": 6.0, "verdict": "-"}

    @pytest.mark.parametrize("correct,failed", [(False, 0), (True, 1)])
    def test_incorrect_run_fails_whatever_the_speed(self, correct, failed):
        record = judge(_result(correct=correct, failed=failed,
                               refs_per_s=1e9, cell_p50_s=1e-9),
                       REFERENCE, BETTER)
        assert len(record["problems"]) == 1
        assert "not correct" in record["problems"][0]


class TestReferenceLookup:
    def test_newest_file_wins_by_integer_number(self, tmp_path):
        _bench_file(tmp_path, 9, {"exact-matrix": {"refs_per_s": 9.0}})
        _bench_file(tmp_path, 16, {"exact-matrix": {"refs_per_s": 16.0}})
        (tmp_path / "benchmarks" / "perf" / "BENCH_perf.json").write_text(
            "not a trajectory file")
        assert reference_medians(tmp_path, "exact-matrix") == (
            "BENCH_16.json", {"refs_per_s": 16.0})

    def test_workload_missing_from_newest_falls_back(self, tmp_path):
        _bench_file(tmp_path, 9, {"exact-matrix": {"refs_per_s": 9.0},
                                  "sampled-long": {"refs_per_s": 9.5}})
        _bench_file(tmp_path, 16, {"exact-matrix": {"refs_per_s": 16.0}})
        assert reference_medians(tmp_path, "sampled-long") == (
            "BENCH_9.json", {"refs_per_s": 9.5})

    def test_workload_without_reference_exits_2(self, tmp_path, capsys):
        _checkout(tmp_path, _result(),
                  workloads=("exact-matrix", "sampled-long"),
                  referenced=("exact-matrix",))
        out = tmp_path / "out.json"
        assert perfbench_gate(out, root=tmp_path) == 2
        captured = capsys.readouterr()
        assert "'sampled-long'" in captured.err
        assert "stub report" not in captured.out  # nothing ran
        assert not out.exists()


class TestPerfbenchGate:
    def test_root_without_perfbench_or_spec_exits_2(self, tmp_path,
                                                    capsys):
        out = tmp_path / "out.json"
        assert perfbench_gate(out, root=tmp_path) == 2
        assert "perfbench/run.py" in capsys.readouterr().err
        _checkout(tmp_path, _result())
        (tmp_path / "BENCHMARK.json").unlink()
        assert perfbench_gate(out, root=tmp_path) == 2
        assert "BENCHMARK.json" in capsys.readouterr().err

    def test_stub_run_passes_and_writes_verdicts(self, tmp_path, capsys):
        _checkout(tmp_path, _result(refs_per_s=55_000.0),
                  workloads=("exact-matrix", "sampled-long"))
        out = tmp_path / "out.json"
        assert perfbench_gate(str(out), seed=7, root=tmp_path) == 0
        shown = capsys.readouterr().out
        assert "bench gate passed" in shown
        for workload in ("exact-matrix", "sampled-long"):
            assert (f"stub report --workload {workload} --seed 7 "
                    f"--seconds 3 --trace 0") in shown
        records = json.loads(out.read_text())["workloads"]
        assert set(records) == {"exact-matrix", "sampled-long"}
        record = records["exact-matrix"]
        assert record["reference_file"] == "BENCH_16.json"
        assert record["metrics"]["refs_per_s"] == {
            "unit": "u", "value": 55_000.0, "reference": 50_000.0,
            "verdict": "pass"}

    @pytest.mark.parametrize("result", [
        _result(refs_per_s=0.79 * REFERENCE["refs_per_s"]),
        _result(cell_p50_s=1.21 * REFERENCE["cell_p50_s"]),
        _result(correct=False),
        None,  # perfbench crashed before its JSON line
    ], ids=["refs-drop", "cell-p50-rise", "not-correct", "no-result"])
    def test_failed_run_or_regression_exits_1(self, tmp_path, capsys,
                                              result):
        _checkout(tmp_path, result)
        out = tmp_path / "out.json"
        assert perfbench_gate(out, root=tmp_path) == 1
        assert "BENCH GATE: exact-matrix: " in capsys.readouterr().err
        assert json.loads(out.read_text())["workloads"]["exact-matrix"][
            "problems"]


class TestCommittedBaseline:
    def test_baseline_payload_loads_and_is_complete(self):
        """The gate's reference, the newest committed BENCH_<n>.json,
        holds every end-to-end metric of every BENCHMARK.json workload:
        the gate looks up each one the run reports, gated or not."""
        numbered = [int(path.stem[len("BENCH_"):]) for path
                    in (REPO_ROOT / "benchmarks" / "perf").glob("BENCH_*.json")
                    if path.stem[len("BENCH_"):].isdigit()]
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        for workload in spec["workloads"]:
            source, medians = reference_medians(REPO_ROOT, workload["name"])
            assert source == f"BENCH_{max(numbered)}.json"
            assert set(medians) >= {metric["name"]
                                    for metric in spec["end_to_end"]}
            assert set(medians) >= set(GATED_METRICS)
            assert all(medians[metric] > 0 for metric in GATED_METRICS)


def _sampled_cell(speedup=8.0, error=0.01, bound=0.03):
    return {"workload": "gups", "design": "vipt", "speedup": speedup,
            "errors": {"runtime_cycles": error},
            "error_bounds": {"runtime_cycles": bound}}


class TestSamplingGate:
    def test_fast_accurate_cell_passes(self):
        assert check_sampling({"cells": [_sampled_cell()]}) == []

    def test_speedup_floor(self):
        problems = check_sampling({"cells": [_sampled_cell(speedup=4.9)]},
                                  min_speedup=5.0)
        assert len(problems) == 1 and "below the 5x floor" in problems[0]

    def test_flat_error_budget(self):
        problems = check_sampling(
            {"cells": [_sampled_cell(error=0.06, bound=0.10)]},
            max_error=0.05)
        assert len(problems) == 1 and "0.05 budget" in problems[0]

    def test_own_reported_bound(self):
        problems = check_sampling(
            {"cells": [_sampled_cell(error=0.02, bound=0.01)]})
        assert len(problems) == 1
        assert "reported confidence bound" in problems[0]

    def test_empty_payload_fails(self):
        for payload in ({}, {"cells": []}):
            assert check_sampling(payload) == [
                "sampled bench payload has no cells"]
