"""Tests for the workload suite."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.mem.address import PAGE_SIZE_2MB
from repro.resilience.checkpoint import trace_digest
from repro.workloads.suite import (
    CLOUD_WORKLOADS,
    HEAP_BASE,
    WORKLOADS,
    build_trace,
    get_workload,
    workload_names,
)


class TestCatalog:
    def test_sixteen_workloads(self):
        # The paper's Figs. 3 and 7 evaluate exactly these sixteen.
        assert len(WORKLOADS) == 16
        expected = {"astar", "cactus", "cann", "gems", "g500", "gups", "mcf",
                    "mumm", "omnet", "tigr", "tunk", "xalanc", "nutch",
                    "olio", "redis", "mongo"}
        assert set(WORKLOADS) == expected

    def test_cloud_subset(self):
        assert set(CLOUD_WORKLOADS) <= set(WORKLOADS)
        assert len(CLOUD_WORKLOADS) == 8

    def test_get_workload(self):
        assert get_workload("redis").name == "redis"
        with pytest.raises(KeyError):
            get_workload("doom")

    def test_workload_names_order(self):
        assert workload_names()[0] == "astar"

    def test_multithreaded_flags(self):
        multithreaded = {name for name, spec in WORKLOADS.items()
                         if spec.is_multithreaded}
        assert multithreaded == {"cann", "g500", "tunk", "nutch", "olio",
                                 "mongo"}

    def test_mixes_normalizable(self):
        for spec in WORKLOADS.values():
            assert sum(spec.mix) > 0
            assert all(w >= 0 for w in spec.mix)


class TestBuildTrace:
    def test_trace_length_and_name(self):
        trace = build_trace(get_workload("redis"), length=5000, seed=1)
        assert len(trace) == 5000
        assert trace.name == "redis"

    def test_deterministic(self):
        a = build_trace(get_workload("astar"), length=2000, seed=5)
        b = build_trace(get_workload("astar"), length=2000, seed=5)
        assert a.addresses == b.addresses
        assert a.writes == b.writes

    def test_write_fraction_near_spec(self):
        spec = get_workload("gups")
        trace = build_trace(spec, length=20000, seed=2)
        assert trace.write_fraction == pytest.approx(spec.write_fraction,
                                                     abs=0.05)

    def test_multithreaded_interleaves_cores(self):
        spec = get_workload("cann")
        trace = build_trace(spec, length=4000, seed=3)
        assert trace.num_cores == 4
        assert trace.cores[:4] == [0, 1, 2, 3]

    def test_addresses_above_heap_base(self):
        trace = build_trace(get_workload("mcf"), length=2000, seed=1)
        assert min(trace.addresses) >= HEAP_BASE

    def test_heap_spans_many_2mb_regions(self):
        trace = build_trace(get_workload("gups"), length=20000, seed=1)
        regions = {a // PAGE_SIZE_2MB for a in trace.addresses}
        assert len(regions) >= 8

    def test_region_utilization_bounds_offsets(self):
        spec = get_workload("redis")
        trace = build_trace(spec, length=5000, seed=1)
        used = int(PAGE_SIZE_2MB * spec.region_utilization)
        for address in trace.addresses[:500]:
            assert address % PAGE_SIZE_2MB < used

    def test_line_reuse_raises_hit_potential(self):
        """Line reuse must be dense but *near* rather than strictly
        adjacent (the scatter keeps the MRU way predictor honest): most
        references recur within a short window."""
        spec = get_workload("redis")   # line_reuse = 4.0
        trace = build_trace(spec, length=20000, seed=7)
        lines = np.array(trace.addresses) >> 6
        adjacent = (np.diff(lines) == 0).mean()
        assert adjacent > 0.2          # plenty of back-to-back word access
        # ... and within a 12-reference window, most lines recur.
        recur = 0
        for i in range(0, 5000):
            if lines[i] in lines[i + 1:i + 12]:
                recur += 1
        assert recur / 5000 > 0.5

    def test_chase_workloads_have_low_reuse(self):
        trace = build_trace(get_workload("cann"), length=20000, seed=7)
        per_core = trace.slice_for_core(0)
        lines = np.array(per_core.addresses) >> 6
        repeats = (np.diff(lines) == 0).mean()
        assert repeats < 0.6

    def test_shared_region_actually_shared(self):
        trace = build_trace(get_workload("g500"), length=20000, seed=1)
        by_core = [set(trace.slice_for_core(c).addresses) for c in range(4)]
        shared_01 = by_core[0] & by_core[1]
        assert shared_01, "threads must overlap on the shared region"

    def test_single_thread_has_no_sharing_partner(self):
        trace = build_trace(get_workload("astar"), length=5000, seed=1)
        assert trace.num_cores == 1


#: ``trace_digest`` of every workload's trace, keyed ``"length/seed"``.
TRACE_DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "trace_digests.json").read_text())


class TestTraceDigests:
    """Every workload's trace is pinned byte for byte, so a generator or
    trace-builder change that moves a trace fails here, by workload name,
    before any golden cell diverges."""

    def test_fixture_covers_every_workload(self):
        assert sorted(TRACE_DIGESTS) == ["24000/7", "3000/42"]
        for digests in TRACE_DIGESTS.values():
            assert sorted(digests) == sorted(workload_names())

    @pytest.mark.parametrize("length,seed", [(3000, 42), (24000, 7)])
    @pytest.mark.parametrize("name", workload_names())
    def test_trace_digest_unchanged(self, name, length, seed):
        trace = build_trace(get_workload(name), length=length, seed=seed)
        assert trace_digest(trace) == TRACE_DIGESTS[f"{length}/{seed}"][name]
