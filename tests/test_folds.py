"""Bulk accounting and the run loop's segments.

``run_until`` leaves one retire key and one lookup code per reference,
and the cores and the energy accountant fold them in bulk
(``fold_references``).  The loop walks the trace in segments that end at
its stops (warmup reset, state-changing periodic events, checkpoints,
folds, ``stop``); the background probe fires inside a segment.  These
tests hold the folds to the per-reference ``retire`` and
``record_reference`` they replaced, kept here as reference models, and
hold runs interrupted at random points and at the loop's own boundaries
— read through ``counters()``, or checkpointed and resumed — to an
uninterrupted run.
"""

import json
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import repro.sim.system as system_module
from repro.cpu.inorder import InOrderCore
from repro.cpu.ooo import OutOfOrderCore
from repro.devtools.sanitize import SanitizerError
from repro.energy.accounting import EnergyAccountant
from repro.energy.sram import SRAMModel
from repro.sampling import SamplingPlan, simulate_sampled
from repro.sim.config import SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.suite import cached_trace


def reference_retire(core, memo, gap_instructions, hit, latency_cycles):
    """``CoreModel.retire`` as it charged one reference at a time."""
    stats = core.stats
    instructions = gap_instructions + 1
    stats.instructions += instructions
    key = latency_cycles if hit else ~latency_cycles
    stall = memo.get(key)
    if stall is None:
        stall = memo[key] = core.memory_stall(hit, latency_cycles)
    stats.cycles = stats.cycles + instructions / core.issue_width + stall


def reference_record_reference(accountant, tlb_lookups, tft_lookups,
                               ways_probed):
    """``EnergyAccountant.record_reference`` as it charged one reference
    at a time."""
    breakdown = accountant.breakdown
    breakdown.tlb_nj += accountant.tlb_lookup_nj * tlb_lookups
    if tft_lookups:
        breakdown.tft_nj += accountant.tft_lookup_nj * tft_lookups
    breakdown.l1_cpu_lookup_nj += accountant._lookup_energy[ways_probed]


def chunks(items, cuts):
    """``items`` split at the ``cuts`` (taken modulo its length)."""
    bounds = sorted({0, len(items), *(cut % (len(items) + 1)
                                      for cut in cuts)})
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class TestFoldsMatchPerReference:
    @given(core_kind=st.sampled_from(("ooo", "inorder")),
           frequency=st.sampled_from((1.33, 2.0, 4.0)),
           references=st.lists(st.tuples(
               st.integers(min_value=0, max_value=60), st.booleans(),
               st.integers(min_value=0, max_value=500)),
               min_size=1, max_size=200),
           cuts=st.lists(st.integers(min_value=0, max_value=200),
                         max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_core_fold_equals_per_reference_retire(
            self, core_kind, frequency, references, cuts):
        make = InOrderCore if core_kind == "inorder" else OutOfOrderCore
        folded, reference = make(frequency_ghz=frequency), make(
            frequency_ghz=frequency)
        memo = {}
        for gap, hit, latency in references:
            reference_retire(reference, memo, gap, hit, latency)
        for chunk in chunks(references, cuts):
            folded.fold_references(
                np.array([gap for gap, _, _ in chunk], dtype=np.int64),
                np.array([latency if hit else ~latency
                          for _, hit, latency in chunk], dtype=np.int64))
        assert folded.stats.cycles == reference.stats.cycles
        assert folded.stats.instructions == reference.stats.instructions
        assert folded._stall_cache == memo

    @given(l1_ways=st.sampled_from((4, 8, 16)),
           tft_lookups=st.integers(min_value=0, max_value=1),
           references=st.lists(st.tuples(
               st.integers(min_value=1, max_value=16), st.booleans()),
               min_size=1, max_size=200),
           cuts=st.lists(st.integers(min_value=0, max_value=200),
                         max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_energy_fold_equals_per_reference_record(
            self, l1_ways, tft_lookups, references, cuts):
        def make():
            return EnergyAccountant(sram=SRAMModel(),
                                    l1_size_bytes=l1_ways * 4096,
                                    l1_ways=l1_ways)
        folded, reference = make(), make()
        references = [(1 + (ways - 1) % l1_ways, l1_tlb_hit)
                      for ways, l1_tlb_hit in references]
        for ways, l1_tlb_hit in references:
            reference_record_reference(reference, 1 if l1_tlb_hit else 2,
                                       tft_lookups, ways)
        for chunk in chunks(references, cuts):
            folded.fold_references(
                np.array([ways if l1_tlb_hit else ~ways
                          for ways, l1_tlb_hit in chunk], dtype=np.int64),
                tft_lookups)
        assert folded.breakdown == reference.breakdown


#: the fragmented in-order machine with page churn (perfbench's
#: fragmented rows, with intervals scaled to a short trace).
FRAGMENTED = dict(core="inorder", memhog_fraction=0.5,
                  splinter_interval=700, promote_interval=900,
                  context_switch_interval=1100)
CELLS = {
    "gups": ("gups", dict(l1_design="seesaw")),
    "g500": ("g500", dict(l1_design="seesaw")),
    "mcf-fragmented": ("mcf", dict(l1_design="seesaw", **FRAGMENTED)),
}
LENGTH = 4000
#: the default warmup fraction's reset index, and the background
#: probe's interval.
WARMUP_END = LENGTH // 4
PROBE_INTERVAL = SystemConfig().system_probe_interval
_UNINTERRUPTED = {}


def _pause_point(kind, n, fold_block):
    """A trace index to pause a run at: any index (``"any"``), one just
    before or just after a background probe's reference (``"probe"``),
    one beside the warmup reset (``"warmup"``), or the end of a fold
    block counted from that reset (``"fold"``)."""
    if kind == "probe":
        point = n - n % PROBE_INTERVAL + PROBE_INTERVAL - 1 + n % 2
    elif kind == "warmup":
        point = WARMUP_END + n % 3 - 1
    elif kind == "fold":
        point = WARMUP_END + fold_block * (1 + n % 4)
    else:
        point = n
    return min(max(point, 1), LENGTH - 1)


def _cell(name):
    workload, machine = CELLS[name]
    return (SystemConfig(seed=9, **machine),
            cached_trace(workload, LENGTH, seed=9))


def _canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _uninterrupted(name) -> str:
    if name not in _UNINTERRUPTED:
        config, trace = _cell(name)
        _UNINTERRUPTED[name] = _canonical(
            SystemSimulator(config, trace).run())
    return _UNINTERRUPTED[name]


class TestInterruptedRuns:
    """Folds may happen anywhere: a run read through ``counters()`` or
    checkpointed and resumed at random indices, with the fold block at
    its size or far smaller, reports what an uninterrupted run does."""

    @pytest.mark.parametrize("name", sorted(CELLS))
    @given(points=st.lists(st.tuples(
               st.sampled_from(("any", "probe", "warmup", "fold")),
               st.integers(min_value=0, max_value=LENGTH - 1)),
               min_size=1, max_size=4),
           how=st.sampled_from(("counters", "checkpoint")),
           fold_block=st.sampled_from((system_module.FOLD_BLOCK, 5, 97)))
    @example(points=[("probe", 1200), ("probe", 1213), ("warmup", 0),
                     ("fold", 0)], how="counters", fold_block=97)
    @example(points=[("warmup", 1), ("probe", 2400), ("probe", 2413),
                     ("fold", 1)], how="checkpoint", fold_block=5)
    @settings(max_examples=4, deadline=None)
    def test_interrupted_run_matches_uninterrupted(self, name, points, how,
                                                   fold_block):
        expected = _uninterrupted(name)
        config, trace = _cell(name)
        with mock.patch.object(system_module, "FOLD_BLOCK", fold_block):
            sim = SystemSimulator(config, trace)
            for point in sorted(_pause_point(kind, n, fold_block)
                                for kind, n in points):
                sim.run_until(point)
                if how == "counters":
                    sim.counters()
                else:
                    blob = sim.snapshot()
                    sim = SystemSimulator(config, trace)
                    sim.restore(blob)
            result = sim.finish()
        assert _canonical(result) == expected

    @given(points=st.lists(st.integers(min_value=1, max_value=LENGTH - 1),
                           min_size=1, max_size=6),
           fold_block=st.sampled_from((system_module.FOLD_BLOCK, 5)))
    @settings(max_examples=4, deadline=None)
    def test_sampled_lane_read_at_random_indices(self, points, fold_block):
        """The sampled lane skips gaps between detailed windows; extra
        ``counters()`` reads inside its windows change nothing."""
        config, trace = _cell("g500")
        plan = SamplingPlan(interval_size=300, max_clusters=4, warmup=100)
        if "sampled" not in _UNINTERRUPTED:
            _UNINTERRUPTED["sampled"] = _canonical(
                simulate_sampled(config, trace, plan))
        run_until = SystemSimulator.run_until

        def interrupted(sim, stop, **kwargs):
            for point in sorted(points):
                if sim._next_index < point < stop:
                    run_until(sim, point)
                    sim.counters()
            return run_until(sim, stop, **kwargs)

        with mock.patch.object(system_module, "FOLD_BLOCK", fold_block), \
                mock.patch.object(SystemSimulator, "run_until", interrupted):
            result = simulate_sampled(config, trace, plan)
        assert _canonical(result) == _UNINTERRUPTED["sampled"]


class TestAbortMidSegment:
    """A per-reference loop counted each reference as it began, so an
    abort left the measured count covering the reference that raised.
    The segmented loop keeps that count."""

    #: gups on the default machine has no state-changing event, and the
    #: background probe fires inside segments, so segments start only at
    #: 0 and at the warmup end, 750: 500, 1005 and 1008 (a probe's
    #: successor) fall inside one.
    @pytest.mark.parametrize("abort_at", (0, 500, 750, 1005, 1008))
    def test_abort_keeps_the_per_reference_measured_count(self, abort_at):
        trace = cached_trace("gups", 3000, seed=5)
        sim = SystemSimulator(SystemConfig(seed=5, sanitize=True), trace)
        access = sim.l1s[0].access_raw
        calls = []

        def failing(*args):
            if len(calls) == abort_at:
                raise SanitizerError("injected at reference "
                                     f"{abort_at}")
            calls.append(None)
            return access(*args)

        sim.l1s[0].access_raw = failing
        with pytest.raises(SanitizerError, match="injected"):
            sim.run_until(len(trace))
        warmup_end = sim._warmup_end
        begun = abort_at + 1
        if abort_at >= warmup_end:
            begun -= warmup_end
        assert sim._measured_references == begun
