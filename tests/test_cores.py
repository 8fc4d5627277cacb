"""Tests for the in-order and out-of-order core timing models."""

import numpy as np
import pytest

from repro.cpu.core import CoreModel
from repro.cpu.inorder import InOrderCore
from repro.cpu.ooo import OutOfOrderCore
from repro.sim.config import SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.suite import build_trace, get_workload


class TestCommon:
    def test_advance_charges_frontend_cycles(self):
        """``fold_references`` charges the gap and the reference itself
        at the issue width, then the stall, in that order."""
        core = OutOfOrderCore(issue_width=4)
        core.fold_references(np.array([7]), np.array([1]))  # 8 instructions
        cycles = 0.0
        cycles += 8 / 4
        cycles += core.memory_stall(True, 1)
        assert core.stats.instructions == 8
        assert core.stats.cycles == cycles

    def test_runtime_rounding(self):
        """Cores keep fractional cycles; a result's runtime is the slowest
        core's cycles, rounded once when the result is built."""
        sim = SystemSimulator(SystemConfig(),
                              build_trace(get_workload("gups"), 2000, seed=42))
        result = sim.run()
        cycles = max(core.stats.cycles for core in sim.cores)
        assert not cycles.is_integer()
        assert result.runtime_cycles == round(cycles)

    def test_ipc(self):
        core = InOrderCore(issue_width=2)
        core.fold_references(np.array([3]), np.array([1]))
        assert core.stats.ipc == 4 / (4 / 2 + core.memory_stall(True, 1))
        assert InOrderCore().stats.ipc == 0.0

    def test_base_class_abstract(self):
        with pytest.raises(NotImplementedError):
            CoreModel().memory_stall(True, 2)


class TestLatencyExposure:
    def test_inorder_exposes_more_than_ooo(self):
        inorder = InOrderCore()
        ooo = OutOfOrderCore()
        for latency in (1, 2, 5, 14):
            assert (inorder.memory_stall(True, latency)
                    > ooo.memory_stall(True, latency))

    def test_hit_exposure_grows_sublinearly(self):
        """Doubling the L1 latency must not double the stall: pipelined
        L1s + OoO windows hide proportionally more of longer latencies."""
        core = OutOfOrderCore()
        s2 = core.memory_stall(True, 2)
        s14 = core.memory_stall(True, 14)
        assert s14 > s2
        assert s14 / s2 < 14 / 2

    def test_one_cycle_saving_visible_in_stall(self):
        """The regression that motivated float cycle accounting: a 2->1
        cycle L1 improvement must reduce the charged stall."""
        for core in (OutOfOrderCore(), InOrderCore()):
            assert core.memory_stall(True, 1) < core.memory_stall(True, 2)

    def test_misses_overlap_by_mlp(self):
        core = OutOfOrderCore(miss_mlp=2.0)
        assert core.memory_stall(False, 40) == pytest.approx(20.0)

    def test_inorder_misses_barely_overlap(self):
        core = InOrderCore(miss_overlap_factor=1.3)
        assert core.memory_stall(False, 39) == pytest.approx(30.0)

    def test_account_memory_accumulates(self):
        """Each reference adds its memoised stall to ``cycles``; the memo
        keys a hit by its latency and a miss by ``~latency``, so hits and
        misses of one latency stay apart."""
        core = InOrderCore()
        core.fold_references(np.array([1, 1, 1, 1]),
                             np.array([~40, ~40, 40, ~0]))
        miss = core.memory_stall(False, 40)
        hit = core.memory_stall(True, 40)
        assert hit != miss
        assert core._stall_cache == {~40: miss, 40: hit,
                                     ~0: core.memory_stall(False, 0)}
        cycles = 0.0
        for stall in (miss, miss, hit, core.memory_stall(False, 0)):
            cycles += 2 / 2
            cycles += stall
        assert core.stats.cycles == cycles
        assert core.stats.instructions == 8
