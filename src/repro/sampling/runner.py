"""The sampled simulation lane: representatives in, whole-run counters out.

Flow (SimPoint-style, arXiv 2402.00649):

1. ``_begin`` exactly as the exact lane: prewarm pages the footprint in
   and warms the LLC, and fixes the warmup boundary.
2. The measured window ``[warmup_end, len(trace))`` is partitioned into
   fixed-size intervals, profiled (:mod:`repro.sampling.intervals`) and
   clustered (:mod:`repro.sampling.cluster`).
3. Only each cluster's representative interval is simulated.  The
   run-loop *skips* the gaps by advancing ``_next_index`` — periodic
   churn/probe events re-phase off the global index, so a representative
   executes under the same event schedule positions as in a full run.
   ``plan.warmup`` references immediately before each representative are
   replayed unmeasured to re-warm L1/TLB state across the skip.
4. Per-representative deltas of the simulator's ``counters()`` are
   scaled by cluster weight (references represented / references
   simulated) and summed into whole-run totals, which go through the
   simulator's own ``build_result`` — the builder the exact lane uses —
   so a sampled result carries every field an exact one does, with
   leakage charged on the extrapolated runtime.
5. Cross-representative dispersion yields per-metric relative-error
   bounds, reported in the result's ``sampling`` block.

Degenerate plans (``max_clusters >= num_intervals``, which includes
``interval_size >= measured window``) fall through to a plain exact run:
every counter is bit-identical to the exact lane, and the ``sampling``
block records ``exact: true``.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cache.replacement import lru_final_state
from repro.energy.accounting import DYNAMIC_ENERGY_FIELDS
from repro.sampling.cluster import Cluster, cluster_signatures
from repro.sampling.intervals import partition_intervals, profile_trace
from repro.sampling.plan import SamplingPlan

__all__ = ["simulate_sampled", "extrapolate_totals", "HEADLINE_METRICS"]

#: The metrics the accuracy contract covers, with their error bounds.
HEADLINE_METRICS = ("l1_miss_rate", "tlb_miss_rate", "runtime_cycles",
                    "energy_total_nj")

#: Error-bound model constants, calibrated on the golden fixtures
#: (tests/test_sampling_accuracy.py): observed relative error must land
#: under ``base + z * dispersion * sqrt(unsampled fraction)`` for every
#: headline metric on every fixture.
_BOUND_BASE = {"l1_miss_rate": 0.02, "tlb_miss_rate": 0.03,
               "runtime_cycles": 0.015, "energy_total_nj": 0.015}
_BOUND_Z = 2.0
_BOUND_CAP = 0.5
#: Rate metrics get a denominator floor: a 0.1% miss rate estimated at
#: 0.15% is excellent in absolute terms, so relative error for rates is
#: ``|sampled - exact| / max(exact, _RATE_FLOOR)``.
_RATE_FLOOR = 0.01


def _functional_warm_gap(sim, start: int, stop: int,
                         ctx: Optional[Dict] = None) -> None:
    """Functionally warm a skipped trace region (SMARTS-style).

    Two things happen across every skipped index, at a fraction of
    detailed simulation cost:

    * **Translation replay.**  The skipped references are replayed
      through the TLB hierarchy's state machine (see :func:`_warm_span`)
      so TLB contents, LRU order, TFT contents, and 2MB-entry residency
      arrive at each representative in the *bit-exact* state the exact
      lane would have.  Without this, pages whose reuse distance exceeds
      the detailed warmup re-miss at every representative boundary and
      the TLB miss rate reads high.
    * **State-changing event replay.**  The simulator's periodic events
      (context switches, superpage splinter/promote churn) fire on
      their global trace indices, in the run loop's dispatch order.
      Background coherence probes are *not* replayed: they only observe
      (stats, probe energy, their RNG draws), the delta discipline cancels
      those, so replaying them buys no architectural fidelity at ~1/12
      of the warming cost.

    Stats counters touched here (TLB hits/misses) never leak into
    results: the measurement loop snapshots *after* warming and works
    in deltas.  ``ctx`` carries memoized page-table lookups across
    spans; churn events invalidate it because they remap pages.
    """
    if ctx is None:
        ctx = {}
    events = [event for event in sim._periodic_events(start)
              if event[0] < stop]

    cursor = start
    while cursor < stop:
        fire_at = min((e[0] for e in events if e[0] < stop), default=None)
        if fire_at is None:
            _warm_span(sim, cursor, stop, ctx)
            return
        # The run loop fires events *after* the reference at their index.
        _warm_span(sim, cursor, fire_at + 1, ctx)
        for event in events:
            if event[0] == fire_at:
                event[2]()
                event[0] += event[1]
                if event[3]:
                    ctx.clear()
        cursor = fire_at + 1


def _fast_warmable(sim) -> bool:
    """True when :func:`_warm_span_fast` reproduces translation replay
    bit-exactly: no L2 TLB (misses always walk) and no sanitize
    shadowing.  A hierarchy's TFT gets its final state from the 2MB
    TLB's fills."""
    return all(hierarchy.l2_tlb is None and not hierarchy._sanitize
               for hierarchy in sim.tlbs)


def _warm_span(sim, start: int, stop: int, ctx: Dict) -> None:
    """Replay translations for ``[start, stop)`` (no events inside)."""
    if stop <= start:
        return
    if ctx.setdefault("fast", _fast_warmable(sim)):
        _warm_span_fast(sim, start, stop, ctx)
        return
    from repro.mem.page_table import TranslationFault

    manager = sim.manager
    tlbs = sim.tlbs
    addresses = sim.trace.addresses
    trace_cores = sim.trace.cores
    single = tlbs[0] if len(tlbs) == 1 else None
    for index in range(start, stop):
        va = addresses[index]
        tlb = single if single is not None else tlbs[trace_cores[index]]
        try:
            tlb.translate_raw(va)
        except TranslationFault:
            manager.touch(va)
            tlb.translate_raw(va)


#: Page kinds for the fast warm path's memoized classification.
_KIND_4KB, _KIND_2MB = 0, 1


def _warm_span_fast(sim, start: int, stop: int, ctx: Dict) -> None:
    """O(distinct pages) translation replay for one event-free span.

    Exploits structural facts about the split hierarchy to avoid the
    per-reference interpreter cost of :meth:`translate_raw`:

    * The two L1 TLBs never interact: a 4KB reference can only hit or
      fill ``l1_4kb`` (its 2MB probe is stats-only, and stats cancel in
      the measurement deltas), and vice versa.  Each structure's state
      is a function of its own sub-stream alone.
    * True LRU's final state is the top-``ways`` recency order per set.
      For the 4KB TLB (4KB fills never reach the TFT) the span's
      effect is reproduced exactly by replaying, per set, only the last
      ``ways`` *distinct* touched VPNs oldest-first through
      :meth:`TLB.fill` — refreshes, evictions, and ``_resident`` all
      follow the same rules the reference path applies.
    * The 2MB TLB collapses the same way unless the hierarchy holds a
      TFT and some region can miss.  Then its sub-stream is replayed in order
      through :meth:`TLB.lookup` and :meth:`TLB.fill` — without the
      references to the region their set touched last, which cannot
      miss, fill, or reorder — to learn which regions fill.  Those
      fills are the TFT's only operation inside a span, and each
      direct-mapped slot keeps the last region filled into it, so the
      TFT too gets just its final state.

    On multi-core traces each reference touches only its issuing core's
    hierarchy, and there is no cross-core translation traffic inside an
    event-free span (shootdowns ride on churn events, which never fire
    here) — so every core's sub-stream warms independently.

    Page sizes cannot change inside a span (churn fires only at span
    boundaries and clears ``ctx``), so page-table lookups are memoized
    in ``ctx`` across spans; the page table is shared by every core.
    """
    from repro.mem.address import PageSize

    page_table = sim.tlbs[0].walker.page_table
    page_info = ctx.setdefault("pages", {})

    addresses, _ = sim.trace.columns()
    span = addresses[start:stop]
    vpn = span >> 12
    uniq, page_of_reference = np.unique(vpn, return_inverse=True)
    flags = []
    for page in uniq.tolist():
        info = page_info.get(page)
        if info is None:
            mapping = page_table.lookup(page << 12)
            # The OS maps only 4KB and 2MB pages.
            if mapping.page_size is PageSize.BASE_4KB:
                info = (_KIND_4KB, mapping.physical_base >> 12)
            else:
                info = (_KIND_2MB, mapping.physical_base >> 21)
            page_info[page] = info
        flags.append(info[0])
    kinds = np.array(flags, dtype=np.int8)[page_of_reference]

    if len(sim.tlbs) == 1:
        _warm_hierarchy_fast(sim.tlbs[0], span, vpn, kinds, page_info)
        return
    cores = ctx.get("cores")
    if cores is None:
        cores = ctx["cores"] = np.asarray(sim.trace.cores, dtype=np.int64)
    span_cores = cores[start:stop]
    for core, hierarchy in enumerate(sim.tlbs):
        mask = span_cores == core
        if mask.any():
            _warm_hierarchy_fast(hierarchy, span[mask], vpn[mask],
                                 kinds[mask], page_info)


def _warm_hierarchy_fast(hierarchy, span, vpn, kinds, page_info) -> None:
    """Warm one core's split hierarchy from its ordered sub-stream."""
    from repro.mem.address import PageSize

    # ---- 2MB TLB (+ the TFT, when the hierarchy holds one).
    super_vas = span[kinds == _KIND_2MB]
    if super_vas.size:
        tlb2 = hierarchy.l1_2mb
        super_size = PageSize.SUPER_2MB
        regions = super_vas >> 21
        # Run-length compressed: a reference to the still-MRU region
        # cannot miss, fill or reorder.
        keep = np.empty(regions.shape, dtype=bool)
        keep[0] = True
        np.not_equal(regions[1:], regions[:-1], out=keep[1:])
        regions = regions[keep]
        distinct, first = np.unique(regions, return_index=True)
        region_ppn = {
            region: page_info[va >> 12][1]
            for region, va in zip(distinct.tolist(),
                                  super_vas[keep][first].tolist())}
        # Only a miss fills, and only fills reach the TFT.  With every
        # distinct region resident up front no lookup can miss (entries
        # leave a set only through fill evictions, and invalidations ride
        # on churn events, which never fire inside a span), so the LRU
        # final state suffices.
        tft = hierarchy.tft
        if tft is not None and any(
                tlb2.probe(region << 21) is None
                for region in distinct.tolist()):
            # Nor can a reference to the region its own set touched
            # last: a stable sort by set puts each set's references side
            # by side in trace order, and those repeats are dropped too.
            by_set = np.argsort(regions & tlb2._set_mask, kind="stable")
            repeat = np.zeros(regions.shape, dtype=bool)
            repeat[by_set[1:]] = regions[by_set[1:]] == regions[by_set[:-1]]
            filled = []
            for region in regions[~repeat].tolist():
                if tlb2.lookup(region << 21) is None:
                    tlb2.fill(region, region_ppn[region], super_size)
                    filled.append(region)
            # Inside a span fills are the TFT's only operation, and each
            # slot ends holding the last region filled into it.
            filled = np.array(filled, dtype=np.int64)
            _lru_final_fill(filled << 21, filled % tft.entries, 1, tft.fill)
        else:
            _lru_final_fill(regions, regions & tlb2._set_mask, tlb2.ways,
                            lambda region: tlb2.fill(
                                region, region_ppn[region], super_size))

    # ---- 4KB TLB: its fills never reach the TFT, so always collapse.
    base_vpns = vpn[kinds == _KIND_4KB]
    if base_vpns.size:
        tlb4 = hierarchy.l1_4kb
        base_size = PageSize.BASE_4KB
        _lru_final_fill(base_vpns, base_vpns & tlb4._set_mask, tlb4.ways,
                        lambda page: tlb4.fill(
                            page, page_info[page][1], base_size))


def _lru_final_fill(keys, set_index, ways: int, fill) -> None:
    """Apply a touch sequence's net effect to a true-LRU structure.

    Calling ``fill`` on each set's survivors (:func:`lru_final_state`)
    oldest-first reproduces the full replay's final contents and LRU
    order (and a TLB's ``_resident`` count) from any starting state:
    refreshes of resident entries and LRU-front evictions follow the same
    rules the reference path applies.
    """
    survivors, _, _ = lru_final_state(keys, set_index, ways)
    for key in survivors.tolist():
        fill(key)


def _subtract(after: Dict, before: Dict) -> Dict:
    delta: Dict = {}
    for key, end in after.items():
        start = before[key]
        if isinstance(end, tuple):
            delta[key] = tuple(e - s for e, s in zip(end, start))
        else:
            delta[key] = end - start
    return delta


def extrapolate_totals(deltas: Sequence[Dict],
                       ratios: Sequence[float]) -> Dict:
    """Weighted sum of per-representative counter deltas.

    ``ratios[i]`` is cluster i's represented-to-simulated reference
    ratio.  When every cluster is a singleton each ratio is exactly 1.0,
    so the totals equal the plain sum of the deltas — the exactness
    property pinned in tests/test_properties.py.
    """
    if len(deltas) != len(ratios):
        raise ValueError("one ratio per delta required")
    totals: Dict = {}
    for delta, ratio in zip(deltas, ratios):
        for key, value in delta.items():
            if isinstance(value, tuple):
                previous = totals.get(key, (0.0,) * len(value))
                totals[key] = tuple(p + ratio * v
                                    for p, v in zip(previous, value))
            else:
                totals[key] = totals.get(key, 0.0) + ratio * value
    return totals


def _weighted_dispersion(values: Sequence[float],
                         weights: Sequence[float]) -> float:
    """Weighted relative std dev (sigma / |mu|) across representatives."""
    total = float(sum(weights))
    if total <= 0.0 or len(values) < 2:
        return 0.0
    mean = sum(v * w for v, w in zip(values, weights)) / total
    variance = sum(w * (v - mean) ** 2
                   for v, w in zip(values, weights)) / total
    scale = max(abs(mean), 1e-12)
    return math.sqrt(variance) / scale


def _error_bounds(rep_metrics: Dict[str, List[float]],
                  weights: Sequence[float],
                  coverage: float) -> Dict[str, float]:
    """Per-metric relative-error bounds from cross-representative spread.

    Model: the sampled estimate is a weighted mean over clusters; its
    error against the exact run grows with how *heterogeneous* the
    representatives are (dispersion) and with how much of the window was
    skipped (``1 - coverage``).  Homogeneous traces collapse to the base
    term, which absorbs per-representative cold-start noise.
    """
    unsampled = math.sqrt(max(0.0, 1.0 - coverage))
    bounds: Dict[str, float] = {}
    for metric in HEADLINE_METRICS:
        dispersion = _weighted_dispersion(rep_metrics[metric], weights)
        bound = _BOUND_BASE[metric] + _BOUND_Z * dispersion * unsampled
        bounds[metric] = min(_BOUND_CAP, bound)
    return bounds


def _rep_headline_metrics(delta: Dict, refs: int) -> Dict[str, float]:
    """One representative's headline metrics, from its counter delta."""
    l1_accesses = delta["l1_hits"] + delta["l1_misses"]
    tlb_lookups = delta["tlb_lookups"]
    dynamic_nj = sum(delta[name] for name in DYNAMIC_ENERGY_FIELDS)
    return {
        "l1_miss_rate": (delta["l1_misses"] / l1_accesses
                         if l1_accesses else 0.0),
        "tlb_miss_rate": ((tlb_lookups - delta["tlb_hits"]) / tlb_lookups
                          if tlb_lookups else 0.0),
        "runtime_cycles": max(delta["cycles"]) / refs if refs else 0.0,
        "energy_total_nj": dynamic_nj / refs if refs else 0.0,
    }


def relative_error(sampled: float, exact: float,
                   rate_metric: bool = False) -> float:
    """The accuracy contract's error definition (see README).

    Rate metrics use a denominator floor of ``_RATE_FLOOR`` so that
    near-zero miss rates don't turn microscopic absolute deviations into
    unbounded relative ones.
    """
    floor = _RATE_FLOOR if rate_metric else 1e-12
    return abs(sampled - exact) / max(abs(exact), floor)


def _sampling_block(plan: SamplingPlan, warmup_fraction: float,
                    intervals, clusters: List[Cluster],
                    simulated_refs: int, total_refs: int,
                    bounds: Dict[str, float], exact: bool) -> Dict:
    return {
        "sampled": True,
        "exact": exact,
        "interval_size": plan.interval_size,
        "max_clusters": plan.max_clusters,
        "warmup": plan.warmup,
        "seed": plan.seed,
        "warmup_fraction": warmup_fraction,
        "num_intervals": len(intervals),
        "num_clusters": len(clusters),
        "representatives": [cluster.representative for cluster in clusters],
        "cluster_weights": [cluster.weight for cluster in clusters],
        "simulated_references": simulated_refs,
        "total_references": total_refs,
        "coverage": simulated_refs / total_refs if total_refs else 1.0,
        "error_bounds": bounds,
    }


def simulate_sampled(config, trace, plan: SamplingPlan,
                     warmup_fraction: float = 0.25,
                     timings: Optional[Dict[str, float]] = None):
    """Run the sampled lane; returns a :class:`SimulationResult` whose
    ``sampling`` attribute carries the lane metadata and error bounds.

    ``timings``, when given, receives per-stage wall-clock seconds
    (``construct``/``prewarm``/``profile``/``cluster``/``loop``/
    ``collect``) for the bench harness, plus ``warm``: the functional
    gap warming, a part of ``loop``.
    """
    from repro.sim.system import SystemSimulator

    def _stamp(stage: str, start: float) -> float:
        now = time.perf_counter()
        if timings is not None:
            timings[stage] = timings.get(stage, 0.0) + (now - start)
        return now

    mark = time.perf_counter()
    sim = SystemSimulator(config, trace)
    mark = _stamp("construct", mark)
    sim._begin(warmup_fraction)
    mark = _stamp("prewarm", mark)

    total = len(trace)
    warmup_end = sim._warmup_end or 0
    measured_refs = total - warmup_end
    intervals = partition_intervals(total, plan.interval_size,
                                    start=warmup_end)

    if plan.max_clusters >= len(intervals):
        # Degenerate plan: full coverage. Run the exact lane verbatim so
        # every counter (and the journal bytes derived from them) is
        # bit-identical to an unsampled run.
        clusters = [Cluster(representative=i, members=(i,))
                    for i in range(len(intervals))]
        mark = _stamp("cluster", mark)
        sim.run_until(total)
        mark = _stamp("loop", mark)
        result = sim._collect()
        _stamp("collect", mark)
        result.sampling = _sampling_block(
            plan, warmup_fraction, intervals, clusters,
            simulated_refs=measured_refs, total_refs=measured_refs,
            bounds={metric: 0.0 for metric in HEADLINE_METRICS}, exact=True)
        return result

    signatures = profile_trace(trace, intervals)
    mark = _stamp("profile", mark)
    clusters = cluster_signatures(signatures, plan.max_clusters,
                                  seed=plan.seed)
    mark = _stamp("cluster", mark)

    # In-loop warmup reset would zero our deltas mid-measurement; the
    # delta discipline below makes it unnecessary (warmup contamination
    # cancels in after-minus-before).
    sim._warmup_end = None

    deltas: List[Dict] = []
    ratios: List[float] = []
    weights: List[float] = []
    rep_metrics: Dict[str, List[float]] = {m: [] for m in HEADLINE_METRICS}
    simulated_refs = 0
    # Memoized page-table lookups for the fast warm path; detailed
    # windows can remap pages via churn events, so drop the memo after
    # each one when such events are configured.
    warm_ctx: Dict = {}
    churny = any(remaps for *_, remaps in sim._periodic_events(0))
    for cluster in clusters:
        lo, hi = intervals[cluster.representative]
        warm_start = max(sim._next_index, lo - plan.warmup)
        if warm_start > sim._next_index:
            warming = time.perf_counter()
            _functional_warm_gap(sim, sim._next_index, warm_start, warm_ctx)
            _stamp("warm", warming)
        sim._next_index = warm_start         # skip the gap
        if warm_start < lo:
            sim.run_until(lo)                # unmeasured warmup replay
        before = sim.counters()
        sim.run_until(hi)
        if churny:
            warm_ctx.pop("pages", None)
        delta = _subtract(sim.counters(), before)
        rep_refs = hi - lo
        weight_refs = float(sum(intervals[m][1] - intervals[m][0]
                                for m in cluster.members))
        deltas.append(delta)
        ratios.append(weight_refs / rep_refs)
        weights.append(weight_refs)
        simulated_refs += hi - warm_start
        for metric, value in _rep_headline_metrics(delta, rep_refs).items():
            rep_metrics[metric].append(value)
    mark = _stamp("loop", mark)

    result = sim.build_result(extrapolate_totals(deltas, ratios))
    coverage = (sum(intervals[c.representative][1]
                    - intervals[c.representative][0] for c in clusters)
                / measured_refs if measured_refs else 1.0)
    bounds = _error_bounds(rep_metrics, weights, coverage)
    _stamp("collect", mark)
    result.sampling = _sampling_block(
        plan, warmup_fraction, intervals, clusters,
        simulated_refs=simulated_refs, total_refs=measured_refs,
        bounds=bounds, exact=False)
    return result
