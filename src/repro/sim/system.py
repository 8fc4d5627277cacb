"""The trace-driven full-system simulator.

One :class:`SystemSimulator` wires together, per the configuration:

* a :class:`~repro.mem.physical.PhysicalMemory` fragmented by aging +
  memhog, managed by a transparent-huge-page
  :class:`~repro.mem.os_policy.MemoryManager`;
* per-core split TLB hierarchies (Table II shapes) over a shared page table;
* the L1 design under test per core (baseline VIPT, PIPT, VIVT or SEESAW);
* a MOESI directory (or snoopy bus) across the L1s of a multi-core
  trace;
* a shared LLC + DRAM behind them;
* in-order or out-of-order core timing models, with SEESAW's fast-hit
  speculation resolved through the scheduler model on OoO cores;
* one energy accountant for the whole memory hierarchy.

The per-reference flow follows the paper's Fig. 4/Table I pipeline: TLB and
TFT looked up in parallel with L1 set selection, tag compare with the
physical tag, miss service through the hierarchy, coherence transactions on
misses and write-upgrades.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.pipt import PiptL1Cache
from repro.cache.vipt import ViptL1Cache
from repro.cache.vivt import VivtL1Cache
from repro.cache.way_predictor import MRUWayPredictor
from repro.coherence.directory import Directory
from repro.coherence.snoop import SnoopyBus
from repro.core.adaptive_wp import WayPredictionGate
from repro.core.scheduling import SchedulerModel
from repro.core.seesaw import SeesawL1Cache
from repro.cpu.inorder import InOrderCore
from repro.cpu.ooo import OutOfOrderCore
from repro.devtools import sanitize
from repro.energy.accounting import (DYNAMIC_ENERGY_FIELDS, EnergyAccountant,
                                     EnergyBreakdown)
from repro.energy.sram import SRAMModel
from repro.mem.address import PageSize
from repro.mem.fragmentation import Memhog
from repro.mem.os_policy import MemoryManager
from repro.mem.page_table import TranslationFault
from repro.mem.physical import PhysicalMemory
from repro.sim.config import SystemConfig
from repro.sim.stats import SimulationResult
from repro.tlb.hierarchy import SplitTLBHierarchy
from repro.workloads.trace import MemoryTrace


#: capacity of the ring of recently referenced lines the background
#: coherence probe picks from (a power of two: slots are index bits).
RECENT_LINES = 64
#: (line, core) index pairs one RNG call draws for the background probe.
PROBE_DRAW_BLOCK = 128
#: most references whose core timing and lookup energy wait to be folded.
FOLD_BLOCK = 1 << 14


def _next_fire(start: int, interval: Optional[int],
               phase: Optional[int] = None) -> float:
    """First index >= ``start`` with ``index % interval == phase``.

    ``phase`` defaults to ``interval - 1``: a periodic event fires after
    the last reference of each interval.  Disabled intervals (``None`` or
    0) never fire (``inf``).  Turns per-reference modulo checks into
    integer comparisons.
    """
    if not interval:
        return float("inf")
    if phase is None:
        phase = interval - 1
    return start + (phase - start) % interval


class SystemSimulator:
    """A complete simulated machine running one workload trace."""

    def __init__(self, config: SystemConfig, trace: MemoryTrace) -> None:
        self.config = config
        self.trace = trace
        self.num_cores = max(trace.num_cores, 1)
        self._sanitize = bool(config.sanitize or sanitize.enabled())
        self.sram = SRAMModel()
        self._rng = np.random.default_rng(config.seed)
        # One scan of the trace's 2MB regions: their sorted bases, and the
        # index of each region's first reference (its representative).
        regions, self._region_firsts = np.unique(
            trace.columns()[0] >> 21, return_index=True)
        self._region_bases = (regions << 21).tolist()
        self._build_os()
        self._build_cores()
        self.hierarchy = MemoryHierarchy(
            frequency_ghz=config.frequency_ghz,
            llc_size=config.llc_size_kb * 1024,
            llc_ways=config.llc_ways,
            llc_latency=config.llc_latency)
        self.energy = EnergyAccountant(
            sram=self.sram,
            l1_size_bytes=config.l1_size_bytes,
            l1_ways=(config.pipt_ways if config.l1_design == "pipt"
                     else config.l1_ways))
        self._build_coherence()
        self._recent_lines: List[int] = []
        # Undrawn (line, core) probe indices, last pair first (see
        # _system_probe), and the bounds one block draw passes.
        self._probe_draws: List[int] = []
        self._probe_draw_highs = np.array(
            [RECENT_LINES, self.num_cores] * PROBE_DRAW_BLOCK)
        self._superpage_references = 0
        self._measured_references = 0
        # References run_until has made but not yet charged to the cores
        # and the energy accountant (see _fold): one contiguous run of
        # the trace from _fold_start.
        self._retire_keys: List[int] = []
        self._lookup_codes: List[int] = []
        self._fold_start = 0
        self._churn_cursor = 0
        # Interruptible-run state (checkpoint/resume support): the next
        # trace index to process, the warmup boundary, and whether the
        # one-time prewarm already happened.
        self._next_index = 0
        self._warmup_end: Optional[int] = None
        self._expected_references: Optional[int] = None
        self._prewarmed = False
        # Fault-injection harness (repro.resilience.faults).
        self._fault_plan = None
        self._fault_pending: List = []
        self._faults_injected: List[str] = []

    # ----------------------------------------------------------------- build

    def _build_os(self) -> None:
        config = self.config
        memory_mb = config.memory_mb
        if memory_mb is None:
            # Auto-scale: enough memory that the workload's 2MB-region
            # spread is a realistic fraction of the machine, as the paper's
            # 32GB machine relates to its footprints.
            memory_mb = max(32, 8 * len(self._region_bases))
        self.physical = PhysicalMemory(memory_mb * 1024 * 1024)
        # Age the system, then apply the experiment's memhog level on top.
        # Capped below 0.95 so the workload itself can always be paged in.
        fraction = min(0.90, config.aging_fraction + config.memhog_fraction)
        if fraction > 0:
            self.memhog = Memhog(self.physical, fraction, seed=config.seed)
            self.memhog.run()
        else:
            self.memhog = None
        self.manager = MemoryManager(self.physical,
                                     thp_policy=config.thp_policy)

    def _build_cores(self) -> None:
        """Each core's L1, TLB hierarchy, timing model and scheduler.  A
        SEESAW L1's TFT is shared with its core's hierarchy, which fills
        and invalidates it; the manager shoots down every hierarchy and
        sweeps every SEESAW L1 (see :class:`MemoryManager`)."""
        config = self.config
        page_table = self.manager.page_table
        shape = config.tlb_shape()
        timing = config.l1_timing(self.sram)
        self.timing = timing
        self.tlbs: List[SplitTLBHierarchy] = []
        self.l1s: List = []
        self.cores: List = []
        self.schedulers: List[Optional[SchedulerModel]] = []
        for core_id in range(self.num_cores):
            l1 = self._make_l1(core_id, timing)
            self.l1s.append(l1)
            seesaw = isinstance(l1, SeesawL1Cache)
            self.tlbs.append(SplitTLBHierarchy(
                page_table, tft=l1.tft if seesaw else None,
                sanitize=self._sanitize, **shape))
            if config.core == "inorder":
                self.cores.append(InOrderCore(
                    frequency_ghz=config.frequency_ghz))
            else:
                self.cores.append(OutOfOrderCore(
                    frequency_ghz=config.frequency_ghz))
            scheduler = None
            if config.core == "ooo" and config.l1_design == "seesaw":
                scheduler = SchedulerModel(
                    fast_cycles=timing.super_hit_cycles,
                    slow_cycles=timing.base_hit_cycles,
                    policy=config.speculation)
            self.schedulers.append(scheduler)
        self.manager.tlbs = self.tlbs
        self.manager.swept_caches = [l1 for l1 in self.l1s
                                     if isinstance(l1, SeesawL1Cache)]

    def _make_l1(self, core_id: int, timing):
        config = self.config
        if config.l1_design == "vipt":
            l1 = ViptL1Cache(config.l1_size_bytes, timing,
                             name=f"vipt-l1-{core_id}",
                             sanitize=self._sanitize)
            if config.way_prediction:
                # WP-only design point (Fig. 15): wrap baseline VIPT in a
                # SEESAW shell with a single partition (the predictor
                # machinery is shared) and *flat* timing — without SEESAW
                # there is no fast lookup, so both latencies are the
                # baseline's and only the way predictor's energy savings
                # and misprediction penalties remain.
                from repro.cache.vipt import L1Timing
                flat = L1Timing(base_hit_cycles=timing.base_hit_cycles,
                                super_hit_cycles=timing.base_hit_cycles,
                                tft_cycles=timing.tft_cycles)
                predictor = MRUWayPredictor(64, config.l1_ways)
                l1 = SeesawL1Cache(
                    config.l1_size_bytes, flat,
                    partition_ways=config.l1_ways,   # one partition
                    tft_entries=1,
                    way_predictor=predictor,
                    name=f"vipt-wp-l1-{core_id}",
                    sanitize=self._sanitize)
            return l1
        if config.l1_design == "pipt":
            return PiptL1Cache(config.l1_size_bytes, config.pipt_ways,
                               config.pipt_hit_cycles(self.sram),
                               tlb_latency=config.pipt_tlb_cycles(),
                               name=f"pipt-l1-{core_id}")
        if config.l1_design == "vivt":
            return VivtL1Cache(config.l1_size_bytes, config.vivt_ways,
                               config.vivt_hit_cycles(self.sram),
                               name=f"vivt-l1-{core_id}")
        predictor = (MRUWayPredictor(64, config.l1_ways)
                     if config.way_prediction else None)
        gate = (WayPredictionGate()
                if (config.way_prediction
                    and config.adaptive_way_prediction) else None)
        return SeesawL1Cache(
            config.l1_size_bytes, timing,
            partition_ways=config.partition_ways,
            insertion=config.insertion,
            tft_entries=config.tft_entries,
            way_predictor=predictor,
            wp_gate=gate,
            name=f"seesaw-l1-{core_id}",
            sanitize=self._sanitize)

    def _build_coherence(self) -> None:
        """The fabric between the L1s, charging its probes to the energy
        accountant.  A one-core trace gets none, whatever
        ``config.coherence`` says: with no other L1, a fabric delivers no
        probe, never sees a second sharer and checks the one L1 against
        itself.  The background probe does not need it."""
        config = self.config
        if self.num_cores == 1 or config.coherence == "none":
            self.fabric = None
        elif config.coherence == "directory":
            self.fabric = Directory(self.l1s, self.energy,
                                    sanitize=self._sanitize)
        else:
            self.fabric = SnoopyBus(self.l1s, self.energy,
                                    sanitize=self._sanitize)

    # ------------------------------------------------------------------- run

    def _system_probe(self) -> None:
        """Background OS/IO coherence activity (paper §VI-B: even
        single-threaded workloads see coherence lookups).

        Each probe picks a recent line and a core, in that order, as two
        draws ``integers(0, len(recent))`` and ``integers(0, num_cores)``.
        Once the ring is full its length stays ``RECENT_LINES``, so the
        draws come ``PROBE_DRAW_BLOCK`` pairs at a time from one
        ``integers`` call, whose broadcast bounds yield exactly the
        scalar sequence and leave the generator where the scalar calls
        would.  The undrawn rest is part of a snapshot.

        :meth:`run_until` fires it after each reference whose index is
        ``interval - 1`` modulo ``config.system_probe_interval``, unless
        ``config.coherence`` is ``"none"``, so the ring is never empty.
        """
        recent = self._recent_lines
        if len(recent) < RECENT_LINES:
            line = recent[int(self._rng.integers(0, len(recent)))]
            core = int(self._rng.integers(0, self.num_cores))
        else:
            draws = self._probe_draws
            if not draws:
                draws = self._probe_draws = self._rng.integers(
                    0, self._probe_draw_highs).tolist()[::-1]
            line = recent[draws.pop()]
            core = draws.pop()
        result = self.l1s[core].coherence_probe(line, invalidate=False)
        self.energy.record_l1_lookup(result.ways_probed, coherence=True)

    def reset_measurements(self) -> None:
        """Zero every statistics counter while keeping all simulated state.

        Standard trace-simulation methodology: the trace's first portion
        warms caches/TLBs/page tables, then counters reset so the reported
        window reflects steady-state behaviour rather than cold-start DRAM
        traffic.
        """
        from repro.cache.basic import CacheStats
        from repro.cache.way_predictor import WayPredictorStats
        from repro.core.scheduling import SchedulerStats
        from repro.core.seesaw import SeesawStats
        from repro.core.tft import TFTStats
        from repro.cpu.core import CoreStats
        from repro.tlb.tlb import TLBStats

        for l1 in self.l1s:
            l1.store.stats = CacheStats()
            if isinstance(l1, SeesawL1Cache):
                l1.seesaw_stats = SeesawStats()
                l1.tft.stats = TFTStats()
                if l1.way_predictor is not None:
                    l1.way_predictor.stats = WayPredictorStats()
        for tlb in self.tlbs:
            tlb.l1_4kb.stats = TLBStats()
            tlb.l1_2mb.stats = TLBStats()
            if tlb.l2_tlb is not None:
                tlb.l2_tlb.stats = TLBStats()
        for core in self.cores:
            core.stats = CoreStats()
        for scheduler in self.schedulers:
            if scheduler is not None:
                scheduler.stats = SchedulerStats()
        self.hierarchy.llc.stats = CacheStats()
        self.energy.breakdown = EnergyBreakdown()
        self._retire_keys.clear()
        self._lookup_codes.clear()
        self._superpage_references = 0
        self._measured_references = 0

    def _fold(self) -> None:
        """Charge the pending references to the cores and the accountant.

        :meth:`run_until` leaves two ints per reference: its retire key
        (latency, or ``~latency`` for a miss) and its lookup code (ways
        probed, or ``~ways`` when the L1 TLBs missed).  The references
        are the contiguous trace run from ``_fold_start``, so their gaps
        and cores come from the trace.  Each core folds its own keys and
        the accountant the codes, in trace order, so every float sum is
        the per-reference one.  Counters, snapshots and checkpoints
        fold first, and the loop folds whenever ``FOLD_BLOCK`` references
        wait.
        """
        keys = self._retire_keys
        if keys:
            start = self._fold_start
            stop = start + len(keys)
            gaps = np.array(self.trace.gaps[start:stop], dtype=np.int64)
            keys_array = np.array(keys, dtype=np.int64)
            if len(self.cores) == 1:
                self.cores[0].fold_references(gaps, keys_array)
            else:
                owners = np.array(self.trace.cores[start:stop])
                for core_id, core in enumerate(self.cores):
                    mine = owners == core_id
                    core.fold_references(gaps[mine], keys_array[mine])
            self._fold_start = stop
            keys.clear()
        codes = self._lookup_codes
        if codes:
            tft_lookups = 1 if isinstance(self.l1s[0], SeesawL1Cache) else 0
            self.energy.fold_references(np.array(codes, dtype=np.int64),
                                        tft_lookups)
            codes.clear()

    def _prewarm(self) -> None:
        """Bring the system to application steady state before timing.

        The paper measures 10-billion-instruction windows of long-running
        applications, whose resident footprint has long been paged in and
        whose LLC working set is warm.  We reproduce that state directly:
        demand-page every page of the trace's footprint (in first-touch
        order, so hot regions claim superpages first — matching how a real
        run's early accesses do) and install the footprint's lines in the
        LLC in first-touch order (``SetAssociativeCache.install``, which
        writes each LLC set's surviving tags with one slice).  Compulsory
        DRAM traffic therefore does not pollute the window.
        """
        addresses, _ = self.trace.columns()
        lines = addresses >> 6
        _, first = np.unique(lines, return_index=True)
        lines = lines[np.sort(first)]
        # Each page's first line comes in the page's first-touch order;
        # lines in one page share the leaf mapping its touch returns (no
        # later touch remaps a page), so one touch per page.
        pages, first, page_of_line = np.unique(
            lines >> 6, return_index=True, return_inverse=True)
        touch_order = np.argsort(first)
        offsets = np.empty(pages.size, dtype=np.int64)
        offsets[touch_order] = [
            m.physical_base - m.virtual_base
            for m in map(self.manager.touch,
                         (pages[touch_order] << 12).tolist())]
        self.hierarchy.llc.install(
            (lines << 6) + offsets[page_of_line])

    def arm_faults(self, plan) -> None:
        """Attach a :class:`~repro.resilience.faults.FaultPlan`.

        The plan's injectors run between references; faults that cannot
        apply yet (e.g. the next reference is not base-page-backed) stay
        pending until a suitable reference comes up.  Plans are stateless —
        per-run pending state lives on the simulator.
        """
        self._fault_plan = plan
        self._fault_pending = []

    def _begin(self, warmup_fraction: float) -> None:
        """One-time run setup: fix the warmup boundary and prewarm.

        Idempotent; a restored simulator skips it (the snapshot carries the
        boundary and the prewarmed state).
        """
        if self._prewarmed:
            return
        self._warmup_end = int(len(self.trace) * warmup_fraction)
        # Fixed before the loop so trace truncation (a fault class) is
        # detectable as a shortfall against this expectation.
        self._expected_references = len(self.trace) - self._warmup_end
        self._measured_references = 0
        self._prewarm()
        self._prewarmed = True

    def run(self, warmup_fraction: float = 0.25,
            checkpoint_path=None,
            checkpoint_interval: Optional[int] = None) -> SimulationResult:
        """Simulate the whole trace and return the result.

        The first ``warmup_fraction`` of references warm the simulated state
        (caches, TLBs, TFT, page tables, directory); statistics are then
        reset and only the remainder is measured.

        Args:
            warmup_fraction: warmup portion of the trace, in ``[0, 1)``.
            checkpoint_path: when given, a versioned checksummed checkpoint
                is written atomically to this path every
                ``checkpoint_interval`` references (see
                :mod:`repro.resilience.checkpoint`).
            checkpoint_interval: references between checkpoints (default
                10_000 when ``checkpoint_path`` is set).
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction!r}"
                " — 1.0 or more would leave no measured window")
        self._begin(warmup_fraction)
        self.run_until(len(self.trace), checkpoint_path=checkpoint_path,
                       checkpoint_interval=checkpoint_interval)
        return self._collect()

    def finish(self) -> SimulationResult:
        """Run any remaining references and collect the result.

        The complement of :meth:`run_until` for checkpoint/resume flows:
        ``restore()`` then ``finish()`` completes an interrupted run.
        """
        if not self._prewarmed:
            self._begin(0.25)
        self.run_until(len(self.trace))
        return self._collect()

    def run_until(self, stop: int, checkpoint_path=None,
                  checkpoint_interval: Optional[int] = None) -> int:
        """Advance the simulation up to (not including) trace index ``stop``.

        Returns the next unprocessed index.  Safe to call repeatedly; used
        by checkpoint tests and by :meth:`run`.  A fresh simulator begins
        with the default warmup fraction.

        Each reference follows the Fig. 4 pipeline, and every quantity it
        charges is charged by the component that owns it, once: the TLB
        hierarchy translates (demand-paging on a fault) and the L1 looks
        up; on a miss the accountant records the levels the miss reached
        and the fill (``record_miss``), and the line the fill evicts, if
        any, is written back to the LLC when dirty and then leaves the
        fabric's records; a hit's latency passes through the core's
        scheduler when it has one (``hit_latency``).  The core's
        timing and the lookup energy are left as one retire key and one
        lookup code per reference, which :meth:`_fold` charges in bulk.

        The trace is walked in segments that end at each of the loop's
        stops: the warmup reset, each state-changing event of
        :meth:`_periodic_events` (which fire after the reference at their
        index), each checkpoint, each fold (at most ``FOLD_BLOCK``
        references wait), ``stop``, and every reference while a fault
        plan is armed.  Those checks and the measured-reference count run
        once per segment.  The background probe only observes, so it
        fires inside a segment, after the reference at its index and
        before any event due there.
        """
        if not self._prewarmed:
            self._begin(0.25)
        warmup_end = self._warmup_end or 0
        addresses = self.trace.addresses
        writes = self.trace.writes
        trace_cores = self.trace.cores
        if checkpoint_path is not None and checkpoint_interval is None:
            checkpoint_interval = 10_000
        index = self._next_index
        stop = min(stop, len(addresses))
        retire_keys = self._retire_keys
        if self._fold_start + len(retire_keys) != index:
            # The pending run does not end here (the sampled lane skipped
            # a gap, or a reset dropped it): fold it, and start anew.
            self._fold()
            self._fold_start = index

        # Loop-invariant references, with each core's lookups bound once;
        # the fault plan is armed between runs, never mid-run.  Every L1
        # has the same design.
        l1s = self.l1s
        translate = [tlb.translate_raw for tlb in self.tlbs]
        l1_tlb_latency = SplitTLBHierarchy.L1_LATENCY
        access = [l1.access_raw for l1 in l1s]
        superpage_tlbs = [tlb.l1_2mb for tlb in self.tlbs]
        schedulers = self.schedulers
        fabric = self.fabric
        service_miss = self.hierarchy.service_miss
        writeback = self.hierarchy.writeback
        record_miss = self.energy.record_miss
        record_llc_access = self.energy.record_llc_access
        manager = self.manager
        fault_plan = self._fault_plan
        vivt = isinstance(l1s[0], VivtL1Cache)
        keys_append = retire_keys.append
        codes_append = self._lookup_codes.append
        fold_next = index + FOLD_BLOCK - len(retire_keys)

        events = self._periodic_events(index)
        next_event = min([event[0] for event in events],
                         default=float("inf"))
        system_probe = self._system_probe
        probe_interval = (self.config.system_probe_interval
                          if self.config.coherence != "none" else 0)
        probe_at = _next_fire(index, probe_interval)
        # The checkpoint check runs on the post-increment index.
        checkpoint_next = (_next_fire(index + 1, checkpoint_interval, 0)
                           if checkpoint_path is not None else float("inf"))

        # Reference counters are accumulated in locals and flushed back to
        # the instance at every point the loop cedes control to code that
        # can observe them (warmup reset, in-loop checkpoint, loop exit).
        measured = self._measured_references
        superpage_refs = self._superpage_references
        recent = self._recent_lines
        ring_full = len(recent) >= RECENT_LINES
        ring_mask = RECENT_LINES - 1

        try:
            while index < stop:
                end = stop
                if fault_plan is not None:
                    applied = fault_plan.apply(self, index)
                    if applied:
                        self._faults_injected.extend(applied)
                    # A fault may have truncated the trace in place.
                    if index >= len(addresses):
                        break
                    end = index + 1
                if index == warmup_end > 0:
                    self.reset_measurements()
                    self._fold_start = index
                    fold_next = index + FOLD_BLOCK
                    measured = 0
                    superpage_refs = 0
                if index < warmup_end < end:
                    end = warmup_end
                if next_event < end:
                    end = next_event + 1
                if checkpoint_next < end:
                    end = checkpoint_next
                if fold_next < end:
                    end = fold_next

                start = index
                try:
                    for index, va, is_write, core_id in zip(
                            range(start, end), addresses[start:end],
                            writes[start:end], trace_cores[start:end]):
                        try:
                            pa, page_size, tlb_latency = \
                                translate[core_id](va)
                        except TranslationFault:
                            # Demand-page, then retry through the same
                            # hierarchy.
                            manager.touch(va)
                            pa, page_size, tlb_latency = \
                                translate[core_id](va)
                        if page_size.is_superpage:
                            superpage_refs += 1
                        hit, latency, ways_probed, miss_detect = \
                            access[core_id](va, pa, page_size, is_write)
                        # TLB latency beyond the one overlapped L1-TLB
                        # cycle (any outcome but an L1 TLB hit) stalls the
                        # physical tag compare.
                        extra_tlb = tlb_latency - l1_tlb_latency
                        if extra_tlb:
                            codes_append(~ways_probed)
                        else:
                            codes_append(ways_probed)
                        if hit:
                            scheduler = schedulers[core_id]
                            if scheduler is not None:
                                # The scarcity inputs: the 2MB L1 TLB's
                                # O(1) resident count and its capacity.
                                superpage_tlb = superpage_tlbs[core_id]
                                latency = scheduler.hit_latency(
                                    latency, superpage_tlb._resident,
                                    superpage_tlb.entries)
                            if is_write and fabric is not None \
                                    and fabric.sharer_count(pa) > 1:
                                fabric.cpu_write(core_id, pa)
                            keys_append(latency + extra_tlb)
                        else:
                            miss = service_miss(pa, is_write)
                            record_miss(miss)
                            if fabric is not None:
                                if is_write:
                                    fabric.cpu_write(core_id, pa)
                                else:
                                    fabric.cpu_read(core_id, pa)
                            if vivt:
                                victim = l1s[core_id].fill(
                                    va, pa, page_size, is_write)
                            else:
                                victim = l1s[core_id].fill(
                                    pa, page_size, is_write)
                            if victim is not None:
                                line, dirty = victim
                                if dirty:
                                    writeback(line)
                                    record_llc_access()
                                if fabric is not None:
                                    fabric.evict(core_id, line)
                            keys_append(~(miss_detect + miss.latency_cycles
                                          + extra_tlb))
                        # The probe's ring of recent lines fills in
                        # order, then each index owns a slot (the sampled
                        # lane skips indices).
                        if ring_full:
                            recent[index & ring_mask] = pa & ~63
                        else:
                            recent.append(pa & ~63)
                            ring_full = len(recent) == RECENT_LINES
                        if index == probe_at:
                            system_probe()
                            probe_at += probe_interval
                except BaseException:
                    # Count the references begun, the one that raised
                    # included, as a per-reference count would.
                    measured += index + 1 - start
                    raise
                measured += end - start
                index = end
                if next_event < end:
                    fired, next_event = next_event, float("inf")
                    for event in events:
                        if event[0] == fired:
                            event[0] += event[1]
                            event[2]()
                        if event[0] < next_event:
                            next_event = event[0]
                if index == fold_next:
                    self._fold()
                    fold_next = index + FOLD_BLOCK
                if index == checkpoint_next:
                    checkpoint_next += checkpoint_interval
                    self._next_index = index
                    self._measured_references = measured
                    self._superpage_references = superpage_refs
                    from repro.resilience.checkpoint import save_checkpoint
                    save_checkpoint(checkpoint_path, self)
        finally:
            # Counters stay coherent even when a sanitizer or fault
            # aborts the loop with an exception.
            self._measured_references = measured
            self._superpage_references = superpage_refs
        self._next_index = index
        return index

    # ---------------------------------------------------- snapshot / restore

    #: the payload layout's version.  Bump it whenever a pickled
    #: component gains, loses or reshapes an attribute, or when
    #: ``SNAPSHOT_COMPONENTS`` / ``SNAPSHOT_LOOP`` change: a payload of
    #: another version is refused instead of resuming a run on state
    #: this code would misread.
    SNAPSHOT_VERSION = 13

    #: the components a snapshot pickles, each under its attribute name.
    SNAPSHOT_COMPONENTS = ("physical", "memhog", "manager", "tlbs", "l1s",
                           "cores", "schedulers", "fabric", "hierarchy",
                           "energy")
    #: the run-loop fields a snapshot pickles, each as the attribute
    #: ``_<name>``.
    SNAPSHOT_LOOP = ("next_index", "warmup_end", "expected_references",
                     "measured_references", "superpage_references",
                     "recent_lines", "probe_draws", "region_bases",
                     "churn_cursor", "prewarmed", "faults_injected")

    def snapshot(self) -> bytes:
        """Serialize the complete mutable simulation state.

        The payload captures every component that evolves during a run —
        physical memory, OS state, page tables, TLBs, L1s, cores,
        schedulers, coherence fabric, LLC/DRAM, energy, RNG stream, and the
        run-loop counters — in a *single* pickle so shared references (the
        page table seen by both the manager and the page walkers, the TLB
        hierarchies the manager shoots down, each SEESAW L1's TFT held by
        its hierarchy, the L1 list and energy accountant the fabric holds)
        stay shared after a restore.
        """
        import pickle

        from repro.resilience.checkpoint import config_digest, trace_digest
        self._fold()
        state = {
            "version": self.SNAPSHOT_VERSION,
            "config_digest": config_digest(self.config),
            "trace_digest": trace_digest(self.trace),
            "components": {name: getattr(self, name)
                           for name in self.SNAPSHOT_COMPONENTS},
            "rng": self._rng,
            "loop": {name: getattr(self, "_" + name)
                     for name in self.SNAPSHOT_LOOP},
        }
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, blob: bytes) -> None:
        """Replace this simulator's state with a :meth:`snapshot` payload.

        The simulator must have been built from the same configuration and
        trace the snapshot was taken from (verified by digest); continuing
        with :meth:`run_until` / :meth:`finish` is then bit-identical to a
        never-interrupted run.  Fault plans are not part of a snapshot —
        re-arm with :meth:`arm_faults` if needed.
        """
        import pickle

        from repro.resilience.checkpoint import (CheckpointError,
                                                 config_digest, trace_digest)
        try:
            state = pickle.loads(blob)
        except (pickle.UnpicklingError, AttributeError, EOFError,
                ImportError, TypeError, ValueError) as exc:
            # Classes a payload names may since have been removed or
            # reshaped; unpickling fails before its version can be read.
            raise CheckpointError(
                f"snapshot payload cannot be loaded by this simulator "
                f"(version {self.SNAPSHOT_VERSION}): "
                f"{type(exc).__name__}: {exc}") from exc
        version = state.get("version")
        if version != self.SNAPSHOT_VERSION:
            raise CheckpointError(
                f"snapshot version {version!r} does not match this "
                f"simulator's version {self.SNAPSHOT_VERSION}")
        if state["config_digest"] != config_digest(self.config):
            raise CheckpointError(
                "snapshot was taken under a different configuration "
                f"({state['config_digest'][:12]}… != "
                f"{config_digest(self.config)[:12]}…)")
        if state["trace_digest"] != trace_digest(self.trace):
            raise CheckpointError(
                "snapshot was taken against a different trace "
                f"({state['trace_digest'][:12]}… != "
                f"{trace_digest(self.trace)[:12]}…)")
        for name in self.SNAPSHOT_COMPONENTS:
            setattr(self, name, state["components"][name])
        self._rng = state["rng"]
        for name in self.SNAPSHOT_LOOP:
            setattr(self, "_" + name, state["loop"][name])
        # A snapshot folds first, so nothing is pending.
        self._retire_keys.clear()
        self._lookup_codes.clear()
        self._fold_start = self._next_index
        self._fault_plan = None
        self._fault_pending = []

    # -------------------------------------------------------- periodic events

    def _periodic_events(self, start: int) -> List[list]:
        """The periodic events that change machine state, due at or after
        trace index ``start``, as mutable ``[next index, interval, action,
        remaps pages]`` entries in dispatch order.  Each fires after the
        reference at its index.

        :meth:`run_until` fires them between segments and the sampled
        lane's warmer across the gaps it skips.  The background coherence
        probe is not one of them: it only observes (stats, probe energy
        and its RNG draws), and the run loop fires it itself.
        """
        config = self.config
        return [[_next_fire(start, interval), interval, action, remaps]
                for interval, action, remaps in (
                    (config.context_switch_period, self._context_switch,
                     False),
                    (config.splinter_interval, self._churn_splinter, True),
                    (config.promote_interval, self._churn_promote, True))
                if interval]

    def _context_switch(self) -> None:
        """An OS context switch: structures without ASID tags flush (the
        SEESAW TFT, and a VIVT L1 in full); other L1s keep their state."""
        for cache in self.l1s:
            if isinstance(cache, SeesawL1Cache):
                cache.on_context_switch()
            elif isinstance(cache, VivtL1Cache):
                cache.flush()

    def _churn_splinter(self) -> None:
        """Splinter the next superpage-backed region of the workload's
        heap (models the OS breaking a huge page, paper §IV-C2)."""
        self._churn_next(PageSize.SUPER_2MB, self.manager.splinter_superpage)

    def _churn_promote(self) -> None:
        """Promote the next base-page-backed region (khugepaged model);
        the manager sweeps the retired frames out of every SEESAW L1."""
        self._churn_next(PageSize.BASE_4KB, partial(
            self.manager.promote_region, fault_in_missing=True))

    def _churn_next(self, page_size: PageSize, change) -> None:
        """Call ``change(base)`` on the next workload region, searching
        on from the churn cursor, whose base a ``page_size`` page maps;
        regions not paged in yet are skipped."""
        table = self.manager.page_table
        for _ in range(len(self._region_bases)):
            base = self._region_bases[self._churn_cursor
                                      % len(self._region_bases)]
            self._churn_cursor += 1
            try:
                if table.page_size_of(base) is page_size:
                    change(base)
                    return
            except TranslationFault:
                continue

    # ----------------------------------------------------------------- stats

    def _region_coverage(self) -> float:
        """Fraction of the workload's touched 2MB regions that are
        superpage-backed — the Fig. 3 footprint metric.

        Region-based rather than byte-based: the synthetic heaps only
        partially fill each region, so byte accounting would weigh a
        superpage region (2MB resident) against just the touched pages of
        a fallback region and overstate coverage.
        """
        table = self.manager.page_table
        addresses, _ = self.trace.columns()
        # The trace-truncate fault cuts the trace in place to a prefix, so
        # its regions are those whose first reference survives the cut.
        firsts = self._region_firsts[self._region_firsts < len(addresses)]
        if not firsts.size:
            return 0.0
        covered = 0
        for address in addresses[firsts].tolist():
            try:
                if table.page_size_of(address) is PageSize.SUPER_2MB:
                    covered += 1
            except TranslationFault:
                pass
        return covered / firsts.size

    def counters(self) -> Dict:
        """Every counter a result is built from, read off the live machine.

        ``cycles`` holds one value per core: runtime is the slowest core's,
        taken only when a result is built.  Every other value is summed
        over cores and only ever grows by addition, so the difference of
        two readings is the activity between them — the deltas the sampled
        lane scales and sums.  Counters of structures this machine lacks
        (TFT, way predictor, OoO scheduler) read zero.
        """
        self._fold()
        seesaw_l1s = [l1 for l1 in self.l1s if isinstance(l1, SeesawL1Cache)]
        seesaw_stats = [l1.seesaw_stats for l1 in seesaw_l1s]
        tft_stats = [l1.tft.stats for l1 in seesaw_l1s]
        predictor_stats = [l1.way_predictor.stats for l1 in seesaw_l1s
                           if l1.way_predictor is not None]
        counters: Dict = {
            "cycles": tuple(core.stats.cycles for core in self.cores),
            "instructions": sum(core.stats.instructions
                                for core in self.cores),
            "memory_references": self._measured_references,
            "superpage_references": self._superpage_references,
            "l1_hits": sum(l1.stats.hits for l1 in self.l1s),
            "l1_misses": sum(l1.stats.misses for l1 in self.l1s),
            "l1_ways_probed": sum(l1.stats.ways_probed for l1 in self.l1s),
            # Every access probes both L1 TLBs in parallel (translate_raw),
            # so the 4KB structure's lookup count is the translation count;
            # a hit in either structure is a TLB hit.
            "tlb_lookups": sum(t.l1_4kb.stats.hits + t.l1_4kb.stats.misses
                               for t in self.tlbs),
            "tlb_hits": sum(t.l1_4kb.stats.hits + t.l1_2mb.stats.hits
                            for t in self.tlbs),
            "tft_lookups": sum(stats.lookups for stats in tft_stats),
            "tft_hits": sum(stats.hits for stats in tft_stats),
            "wp_predictions": sum(stats.predictions
                                  for stats in predictor_stats),
            "wp_correct": sum(stats.correct for stats in predictor_stats),
            "squashes": sum(s.stats.squashes for s in self.schedulers
                            if s is not None),
        }
        for name in ("superpage_accesses", "tft_missed_superpage_l1_hits",
                     "tft_missed_superpage_l1_misses", "fast_hits",
                     "coherence_probes", "coherence_ways_probed",
                     "promotion_sweep_cycles"):
            counters[name] = sum(getattr(stats, name)
                                 for stats in seesaw_stats)
        breakdown = self.energy.breakdown
        for name in DYNAMIC_ENERGY_FIELDS:
            counters[name] = getattr(breakdown, name)
        return counters

    def build_result(self, counters: Dict) -> SimulationResult:
        """Turn a :meth:`counters` dict into this machine's result.

        Both lanes build their results here: :meth:`_collect` passes the
        run's own counters, the sampled lane its extrapolated totals.
        Totals are floats, so counts are rounded; exact integer counts
        pass through unchanged.  Runtime is the slowest core plus the
        promotion-sweep stalls.  Leakage for that runtime is charged by
        the accountant's ``record_runtime`` into the result's own
        :class:`EnergyBreakdown`, so collecting again leaves earlier
        results alone.
        """
        config = self.config
        runtime = (round(max(counters["cycles"]))
                   + round(counters["promotion_sweep_cycles"]))
        accountant = replace(self.energy, breakdown=EnergyBreakdown(
            **{name: counters[name] for name in DYNAMIC_ENERGY_FIELDS}))
        accountant.record_runtime(runtime, config.frequency_ghz)
        references = round(counters["memory_references"]) or len(self.trace)
        tlb_hits = round(counters["tlb_hits"])
        result = SimulationResult(
            config_description=config.describe(),
            workload=self.trace.name,
            runtime_cycles=runtime,
            instructions=round(counters["instructions"]),
            energy=accountant.breakdown,
            l1_hits=round(counters["l1_hits"]),
            l1_misses=round(counters["l1_misses"]),
            l1_ways_probed=round(counters["l1_ways_probed"]),
            memory_references=references,
            superpage_reference_fraction=(
                counters["superpage_references"] / references
                if references else 0.0),
            footprint_superpage_fraction=self._region_coverage(),
            tlb_hits=tlb_hits,
            tlb_misses=max(0, round(counters["tlb_lookups"]) - tlb_hits),
            squashes=round(counters["squashes"]),
            faults_injected=list(self._faults_injected),
        )
        seesaw_l1s = [l1 for l1 in self.l1s if isinstance(l1, SeesawL1Cache)]
        if seesaw_l1s:
            lookups = counters["tft_lookups"]
            result.tft_hit_rate = (counters["tft_hits"] / lookups
                                   if lookups else 0.0)
            super_acc = round(counters["superpage_accesses"])
            missed_h = round(counters["tft_missed_superpage_l1_hits"])
            missed_m = round(counters["tft_missed_superpage_l1_misses"])
            result.tft_missed_superpage_l1_hits = missed_h
            result.tft_missed_superpage_l1_misses = missed_m
            result.superpage_accesses = super_acc
            result.tft_missed_superpage_fraction = (
                (missed_h + missed_m) / super_acc if super_acc else 0.0)
            result.fast_hits = round(counters["fast_hits"])
            result.coherence_probes = round(counters["coherence_probes"])
            result.coherence_ways_probed = round(
                counters["coherence_ways_probed"])
            if any(l1.way_predictor is not None for l1 in seesaw_l1s):
                predictions = counters["wp_predictions"]
                result.way_prediction_accuracy = (
                    counters["wp_correct"] / predictions
                    if predictions else 0.0)
        return result

    def _collect(self) -> SimulationResult:
        """The exact lane's result: :meth:`build_result` over this run's
        own counters, then the sanitizer's result checks, which hold only
        for exact counts."""
        result = self.build_result(self.counters())
        if self._sanitize:
            for l1 in self.l1s:
                if hasattr(l1, "partitioning"):
                    sanitize.check_partition_residency(l1)
            if self._expected_references is not None:
                sanitize.check(
                    self._measured_references == self._expected_references,
                    f"measured window covered {self._measured_references} "
                    f"references but the trace promised "
                    f"{self._expected_references} — the trace was truncated "
                    f"or references were dropped mid-run")
            sanitize.validate_result(result)
        return result


def simulate(config: SystemConfig, trace: MemoryTrace) -> SimulationResult:
    """Build a system for ``config`` and run ``trace`` through it."""
    return SystemSimulator(config, trace).run()
