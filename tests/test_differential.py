"""Differential tests: independent paths must agree exactly.

The hot-path optimizations (raw-tuple translate/access, inlined probes,
the parallel dispatcher) all promise *bit-identical* behaviour to the
reference implementations they shadow.  These tests hold the promise by
running both paths on the same inputs and demanding equality:

* serial ``resilient_sweep`` vs ``parallel_sweep`` at ``jobs`` 1/2/4 —
  identical journal bytes and identical result payloads;
* VIPT vs PIPT L1s of the same geometry — the VIPT constraint (index
  bits inside the page offset) makes virtual and physical indexing
  coincide, so hit/miss streams must match;
* sanitizer armed vs disarmed — checking invariants must never change
  the simulation's outcome.
"""

import json

import pytest

from repro.cache.pipt import PiptL1Cache
from repro.cache.vipt import L1Timing, ViptL1Cache
from repro.mem.address import PageSize
from repro.perf.parallel import parallel_sweep
from repro.resilience.runner import resilient_sweep
from repro.sim.config import SystemConfig
from repro.sim.experiment import run_workload
from repro.workloads.suite import build_trace, get_workload

WORKLOADS = ["gups", "redis"]
LENGTH = 4_000


def _sweep_serial(tmp_path, name):
    path = tmp_path / name
    report = resilient_sweep(SystemConfig(seed=42), WORKLOADS,
                             trace_length=LENGTH, journal_path=path)
    return report, path.read_bytes()


def _sweep_parallel(tmp_path, name, jobs):
    path = tmp_path / name
    report = parallel_sweep(SystemConfig(seed=42), WORKLOADS,
                            trace_length=LENGTH, journal_path=path,
                            jobs=jobs)
    return report, path.read_bytes()


def _payloads(report):
    return {(workload, design): result.to_dict()
            for workload, by_design in report.results.items()
            for design, result in by_design.items()}


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_journal_bytes_identical(self, tmp_path, jobs):
        """A parallel sweep journals the exact bytes a serial sweep does,
        for any worker count."""
        _, serial_bytes = _sweep_serial(tmp_path, "serial.jsonl")
        _, parallel_bytes = _sweep_parallel(tmp_path, f"par{jobs}.jsonl",
                                            jobs)
        assert parallel_bytes == serial_bytes

    def test_result_payloads_identical(self, tmp_path):
        serial, _ = _sweep_serial(tmp_path, "serial.jsonl")
        parallel, _ = _sweep_parallel(tmp_path, "par.jsonl", 2)
        assert _payloads(parallel) == _payloads(serial)
        assert parallel.ok and serial.ok
        assert parallel.executed == serial.executed

    def test_parallel_journal_resumes_under_serial_runner(self, tmp_path):
        """A journal written by the parallel engine is a valid resume
        source for the serial engine (and vice versa by byte-identity)."""
        _, path_bytes = _sweep_parallel(tmp_path, "cross.jsonl", 2)
        report = resilient_sweep(SystemConfig(seed=42), WORKLOADS,
                                 trace_length=LENGTH,
                                 journal_path=tmp_path / "cross.jsonl",
                                 resume=True)
        assert report.reused == len(WORKLOADS) * 2
        assert report.executed == 0
        assert (tmp_path / "cross.jsonl").read_bytes() == path_bytes

    def test_journal_records_in_enumeration_order(self, tmp_path):
        _, raw = _sweep_parallel(tmp_path, "order.jsonl", 4)
        records = [json.loads(line) for line in raw.splitlines()]
        cells = [(r["workload"], r["design"]) for r in records
                 if r["type"] == "done"]
        expected = [(workload, design) for workload in WORKLOADS
                    for design in ("vipt", "seesaw")]
        assert cells == expected


class TestViptPiptAgreement:
    def test_hit_miss_streams_match_for_same_geometry(self):
        """With index bits inside the page offset, VIPT indexing equals
        physical indexing: a PIPT cache of identical sets/ways must see
        the same hit/miss stream on the same (VA, PA) sequence."""
        timing = L1Timing(base_hit_cycles=2, super_hit_cycles=1)
        vipt = ViptL1Cache(32 * 1024, timing)
        pipt = PiptL1Cache(32 * 1024, ways=vipt.ways, hit_cycles=2)
        assert pipt.store.num_sets == vipt.store.num_sets
        trace = build_trace(get_workload("redis"), 3_000, seed=7)
        page = PageSize.BASE_4KB
        for reference, va in enumerate(trace.addresses):
            # Identity-with-offset translation keeps PA distinct from VA
            # while preserving the page-offset bits VIPT indexes with.
            pa = (va + (7 << page.offset_bits)) & ((1 << 48) - 1)
            is_write = trace.writes[reference]
            vipt_hit = vipt.access(va, pa, page, is_write).hit
            pipt_hit = pipt.access(va, pa, page, is_write).hit
            assert vipt_hit == pipt_hit, f"diverged at reference {reference}"
            if not vipt_hit:
                vipt.fill(pa, page, dirty=is_write)
                pipt.fill(pa, page, dirty=is_write)
        assert vipt.stats.hits == pipt.stats.hits
        assert vipt.stats.misses == pipt.stats.misses


class TestSanitizerTransparency:
    @pytest.mark.parametrize("design", ["vipt", "seesaw"])
    def test_sanitizer_does_not_change_results(self, design):
        """Arming the runtime sanitizer must be observationally neutral:
        every counter and energy figure matches the unsanitized run."""
        plain = run_workload(
            SystemConfig(l1_design=design, seed=42, sanitize=False),
            "redis", trace_length=LENGTH, seed=42)
        checked = run_workload(
            SystemConfig(l1_design=design, seed=42, sanitize=True),
            "redis", trace_length=LENGTH, seed=42)
        assert checked.to_dict() == plain.to_dict()


class TestSampledLaneEquivalence:
    """The sampled lane honours the same serial/parallel bit-identity
    contract as the exact lane, and stays in its own digest namespace."""

    # At LENGTH=4000 the default plan would degenerate to exact
    # (7 intervals <= K=10); this plan genuinely samples: 10 intervals,
    # 4 representatives.
    PLAN_KWARGS = dict(interval_size=400, max_clusters=4, warmup=100)

    def _plan(self):
        from repro.sampling import SamplingPlan
        return SamplingPlan(**self.PLAN_KWARGS)

    def _serial(self, tmp_path, name):
        path = tmp_path / name
        report = resilient_sweep(SystemConfig(seed=42), WORKLOADS,
                                 trace_length=LENGTH, journal_path=path,
                                 sampling_plan=self._plan())
        return report, path.read_bytes()

    def _parallel(self, tmp_path, name, jobs):
        path = tmp_path / name
        report = parallel_sweep(SystemConfig(seed=42), WORKLOADS,
                                trace_length=LENGTH, journal_path=path,
                                jobs=jobs, sampling_plan=self._plan())
        return report, path.read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_sampled_journal_bytes_identical(self, tmp_path, jobs):
        _, serial_bytes = self._serial(tmp_path, "serial.jsonl")
        _, parallel_bytes = self._parallel(tmp_path, f"par{jobs}.jsonl",
                                           jobs)
        assert parallel_bytes == serial_bytes

    def test_sampled_result_payloads_identical(self, tmp_path):
        serial, _ = self._serial(tmp_path, "serial.jsonl")
        parallel, _ = self._parallel(tmp_path, "par.jsonl", 2)
        assert _payloads(parallel) == _payloads(serial)
        for payload in _payloads(serial).values():
            assert payload["sampling"]["sampled"] is True
            assert payload["sampling"]["exact"] is False

    def test_sampled_and_exact_lanes_never_share_digests(self, tmp_path):
        """Per-cell digests are lane-separated (the shared header digest
        names the base config and is the same on purpose)."""
        _, sampled_bytes = self._serial(tmp_path, "sampled.jsonl")
        _, exact_bytes = _sweep_serial(tmp_path, "exact.jsonl")

        def cell_digests(raw):
            records = [json.loads(line) for line in raw.splitlines()]
            return {r["config_digest"] for r in records
                    if r["type"] == "done"}

        assert cell_digests(sampled_bytes)
        assert cell_digests(sampled_bytes).isdisjoint(
            cell_digests(exact_bytes))

    def test_sampled_journal_resumes_under_serial_runner(self, tmp_path):
        _, path_bytes = self._parallel(tmp_path, "cross.jsonl", 2)
        report = resilient_sweep(SystemConfig(seed=42), WORKLOADS,
                                 trace_length=LENGTH,
                                 journal_path=tmp_path / "cross.jsonl",
                                 resume=True, sampling_plan=self._plan())
        assert report.reused == len(WORKLOADS) * 2
        assert report.executed == 0
        assert (tmp_path / "cross.jsonl").read_bytes() == path_bytes


class TestDegradedJournalsIndependentOfJobs:
    """Degraded cells journal the same records whatever the jobs value."""

    def test_expired_deadline_journals_identical_bytes(self, tmp_path):
        journals = []
        for jobs in (1, 2):
            path = tmp_path / f"deadline{jobs}.jsonl"
            report = parallel_sweep(SystemConfig(seed=42), WORKLOADS,
                                    trace_length=LENGTH, journal_path=path,
                                    jobs=jobs, deadline_s=1e-9)
            assert len(report.failures) == len(WORKLOADS) * 2
            assert {f.error_class for f in report.failures} == \
                {"DeadlineExceeded"}
            journals.append(path.read_bytes())
        assert journals[0] == journals[1]

    def test_worker_error_journals_identical_bytes(self, tmp_path):
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec("stats-skew", 200)])

        def journal(name, sweep_fn, **options):
            path = tmp_path / name
            report = sweep_fn(SystemConfig(seed=42, sanitize=True),
                              WORKLOADS, trace_length=LENGTH,
                              journal_path=path, fault_plan=plan, **options)
            assert len(report.failures) == len(WORKLOADS) * 2
            assert {f.error_class for f in report.failures} == \
                {"SanitizerError"}
            return path.read_bytes()

        isolated = journal("isolated.jsonl", resilient_sweep, isolate=True)
        assert journal("par2.jsonl", parallel_sweep, jobs=2) == isolated
        assert journal("par4.jsonl", parallel_sweep, jobs=4) == isolated

        def records(blob):
            out = [json.loads(line) for line in blob.decode().splitlines()]
            for record in out:
                record.pop("traceback", None)
                record.pop("checksum", None)
            return out

        # In-process cells format their own traceback; every other field
        # of every record matches the subprocess journal.
        in_process = journal("in-process.jsonl", resilient_sweep)
        assert records(in_process) == records(isolated)
