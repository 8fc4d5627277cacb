"""Determinism regression tests.

The reproducibility contract: the same ``(SystemConfig, trace)`` pair run
twice yields a *bit-identical* ``SimulationResult.to_dict()`` — every
counter and every energy float — and the same ``(spec, length, seed)``
always rebuilds the identical trace.  The shared-RNG seam
(``build_trace(..., rng=...)``) threads one ``numpy`` generator through
every stochastic draw for callers that manage a single experiment-wide
stream.
"""

import numpy as np
import pytest

from repro.sim.config import SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.generators import UniformRandomGenerator, ZipfGenerator
from repro.workloads.suite import build_trace, get_workload


def _trace_tuple(trace):
    return (trace.name, trace.addresses, trace.writes, trace.cores,
            trace.gaps)


class TestTraceDeterminism:
    def test_same_seed_same_trace(self):
        a = build_trace(get_workload("redis"), length=4000, seed=7)
        b = build_trace(get_workload("redis"), length=4000, seed=7)
        assert _trace_tuple(a) == _trace_tuple(b)

    def test_multithreaded_trace_deterministic(self):
        a = build_trace(get_workload("cann"), length=4000, seed=3)
        b = build_trace(get_workload("cann"), length=4000, seed=3)
        assert _trace_tuple(a) == _trace_tuple(b)

    def test_different_seed_differs(self):
        a = build_trace(get_workload("redis"), length=4000, seed=7)
        b = build_trace(get_workload("redis"), length=4000, seed=8)
        assert _trace_tuple(a) != _trace_tuple(b)

    def test_shared_rng_mode_deterministic(self):
        a = build_trace(get_workload("cann"), length=4000,
                        rng=np.random.default_rng(11))
        b = build_trace(get_workload("cann"), length=4000,
                        rng=np.random.default_rng(11))
        assert _trace_tuple(a) == _trace_tuple(b)


class TestSharedRngSeam:
    def test_generators_share_one_stream(self):
        shared = np.random.default_rng(5)
        g1 = UniformRandomGenerator(256, rng=shared)
        g2 = UniformRandomGenerator(256, rng=shared)
        assert g1.rng is shared and g2.rng is shared
        first = g1.generate(16)
        replay = np.random.default_rng(5).integers(0, 256, size=16,
                                                   dtype=np.int64)
        assert np.array_equal(first, replay)
        # g2 continues the shared stream rather than replaying it.
        assert not np.array_equal(g2.generate(16), replay)

    def test_seeded_default_unchanged_by_rng_param(self):
        a = ZipfGenerator(512, s=1.0, seed=9).generate(64)
        b = ZipfGenerator(512, s=1.0, seed=9, rng=None).generate(64)
        assert np.array_equal(a, b)


class TestEndToEndDeterminism:
    @pytest.mark.parametrize("design", ["seesaw", "vipt", "pipt", "vivt"])
    def test_full_result_dict_identical(self, design):
        trace = build_trace(get_workload("redis"), length=5000, seed=13)
        config = SystemConfig(l1_design=design, seed=13)
        r1 = SystemSimulator(config, trace).run().to_dict()
        r2 = SystemSimulator(config, trace).run().to_dict()
        assert r1 == r2

    def test_rebuilt_trace_gives_identical_result(self):
        runs = []
        for _ in range(2):
            trace = build_trace(get_workload("cann"), length=4000, seed=2)
            result = SystemSimulator(SystemConfig(seed=2), trace).run()
            runs.append(result.to_dict())
        assert runs[0] == runs[1]


class TestSampledDeterminism:
    """The sampled lane inherits the full reproducibility contract:
    same (config, trace, plan) -> bit-identical result, in-process and
    across independent interpreter processes."""

    PLAN_KWARGS = dict(interval_size=400, max_clusters=4, warmup=100)

    @pytest.mark.parametrize("design", ["seesaw", "vipt", "pipt", "vivt"])
    def test_sampled_result_dict_identical(self, design):
        from repro.sampling import SamplingPlan
        from repro.sampling.runner import simulate_sampled
        plan = SamplingPlan(**self.PLAN_KWARGS)
        trace = build_trace(get_workload("redis"), length=5000, seed=13)
        config = SystemConfig(l1_design=design, seed=13)
        r1 = simulate_sampled(config, trace, plan).to_dict()
        r2 = simulate_sampled(config, trace, plan).to_dict()
        assert r1["sampling"]["exact"] is False
        assert r1 == r2

    def test_sampled_run_bit_identical_across_processes(self):
        """Two fresh interpreters produce byte-identical --sampled JSON —
        no hidden dependence on hash seeds, import order, or PID."""
        import json
        import os
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def run(hash_seed):
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "run", "gups",
                 "--length", "5000", "--sampled",
                 "--interval-size", "400", "--max-clusters", "4",
                 "--warmup", "100", "--json"],
                capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        first = run("1")
        second = run("2")  # different hash seed must not matter
        assert first == second
        payload = json.loads(first)
        assert payload["sampling"]["sampled"] is True
