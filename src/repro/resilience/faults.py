"""Deliberate fault injection for the simulator (sanitizer proving ground).

A :class:`FaultPlan` corrupts live simulator state between trace
references.  Each fault class pairs with a :mod:`repro.devtools.sanitize`
detection path, so an armed sanitizer must abort the run with
:class:`~repro.devtools.sanitize.SanitizerError`, while an unsanitized run
completes and reports the injected kinds in
``SimulationResult.faults_injected``:

========================  ==================================================
fault kind                sanitizer detection path
========================  ==================================================
``tft-false-positive``    TFT hit on a base-page access (SEESAW's
                          no-false-positive guarantee, checked in
                          ``SeesawL1Cache.access``)
``partition-desync``      a valid line outside its PA's partition
                          (``check_partition_residency`` — per-hit, on
                          promotion sweeps, and pinned at collection by
                          the injected wrong-partition hit)
``tlb-shootdown-drop``    stale L1 TLB entry disagreeing with the page
                          table (``check_translation``)
``trace-truncate``        measured-window shortfall against the reference
                          count fixed at run start (checked in
                          ``_collect``)
``energy-skew``           negative energy component (``check_energy``)
``stats-skew``            ``l1_hits + l1_misses != memory_references``
                          (``validate_result``)
========================  ==================================================

Injectors are deterministic: a fault due at index *i* that cannot apply
yet (for example, the reference at *i* is not base-page-backed) stays
pending and retries on every later reference until a suitable one
arrives.  Plans themselves are stateless and picklable; per-run pending
state lives on the simulator, so one plan can drive many sweep cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.resilience.errors import ReproResilienceError

#: Every fault kind this harness can inject.
FAULT_KINDS = (
    "tft-false-positive",
    "partition-desync",
    "tlb-shootdown-drop",
    "trace-truncate",
    "energy-skew",
    "stats-skew",
)


class FaultInjectionError(ReproResilienceError, ValueError):
    """A fault spec is malformed or cannot apply to this configuration."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: which kind, and the trace index it becomes due at."""

    kind: str
    at_index: int

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI form ``kind@index`` (e.g. ``energy-skew@2000``)."""
        kind, separator, index_text = text.partition("@")
        if not separator or not index_text:
            raise FaultInjectionError(
                f"bad fault spec {text!r}; expected kind@index, e.g. "
                f"{FAULT_KINDS[0]}@2000")
        if kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {kind!r}; valid kinds: "
                f"{', '.join(FAULT_KINDS)}")
        try:
            at_index = int(index_text)
        except ValueError:
            raise FaultInjectionError(
                f"bad fault index {index_text!r} in {text!r}") from None
        if at_index < 0:
            raise FaultInjectionError(f"fault index must be >= 0 in {text!r}")
        return cls(kind=kind, at_index=at_index)


# -------------------------------------------------------------- injectors
#
# Each injector returns True when the fault was applied, or False to stay
# pending and retry at the next reference.

def _seesaw_l1s(sim) -> List:
    return [l1 for l1 in sim.l1s if hasattr(l1, "tft")]


def _current_base_page_mapping(sim, index: int):
    """The page-table mapping of the reference at ``index``, if it is
    base-page-backed and resident; otherwise None (injector defers)."""
    from repro.mem.address import PageSize
    from repro.mem.page_table import TranslationFault

    if index >= len(sim.trace.addresses):
        return None
    table = sim.manager.page_table(asid=0)
    try:
        mapping = table.lookup(sim.trace.addresses[index])
    except TranslationFault:
        return None
    if mapping.page_size is not PageSize.BASE_4KB:
        return None
    return mapping


def _inject_tft_false_positive(sim, index: int) -> bool:
    """Fill the TFT with a region that is actually base-page-backed.

    Models a TFT entry surviving a splinter it should have been
    invalidated by.  The very next access to the region takes the
    TFT-hit (superpage) path for a base-page address.
    """
    from repro.mem.address import PageSize

    seesaw = _seesaw_l1s(sim)
    if not seesaw:
        raise FaultInjectionError(
            "tft-false-positive requires a design with a TFT "
            "(seesaw, or vipt with way prediction)")
    if _current_base_page_mapping(sim, index) is None:
        return False
    region_base = (sim.trace.addresses[index]
                   & ~(int(PageSize.SUPER_2MB) - 1))
    for l1 in seesaw:
        l1.tft.fill(region_base)
    return True


def _inject_partition_desync(sim, index: int) -> bool:
    """Move a valid line into a way outside its PA's partition.

    Models a partition map falling out of sync after a promotion sweep:
    the line still exists but in a location neither coherence probes nor
    TFT-hit lookups will search.
    """
    movable_partitions = False
    for l1 in sim.l1s:
        partitioning = getattr(l1, "partitioning", None)
        insertion = getattr(l1, "insertion", None)
        if partitioning is None or insertion is None:
            continue
        if not insertion.coherence_probes_single_partition:
            continue
        if partitioning.total_ways <= partitioning.partition_ways:
            continue  # single partition: no foreign way exists
        movable_partitions = True
        for set_index, way, line in l1.store.iter_valid_lines():
            home = partitioning.partition_of(line.line_address)
            cache_set = l1.store.set_at(set_index)
            for other_way in range(l1.store.ways):
                if partitioning.partition_of_way(other_way) == home:
                    continue
                target = cache_set.lines[other_way]
                if target.valid:
                    continue
                target.tag = line.tag
                target.valid = True
                target.dirty = line.dirty
                target.state = line.state
                target.line_address = line.line_address
                target.from_superpage = line.from_superpage
                line.reset()
                return True
    if not movable_partitions:
        raise FaultInjectionError(
            "partition-desync requires a partitioned SEESAW L1 under the "
            "4way insertion policy with at least two partitions")
    return False  # every foreign way is occupied right now; retry later


def _inject_tlb_shootdown_drop(sim, index: int) -> bool:
    """Leave a stale base-page translation in the issuing core's L1 TLB.

    Preferred path: promote the region (khugepaged-style, which retires
    the old frames and shoots down the 512 base-page translations), then
    re-install the pre-promotion entry — exactly what a dropped shootdown
    IPI would leave behind.  When no 2MB block is available the fallback
    models a remap the shootdown missed: the cached entry points at the
    frame's old home.
    """
    from repro.mem.address import PageSize

    mapping = _current_base_page_mapping(sim, index)
    if mapping is None:
        return False
    offset_bits = PageSize.BASE_4KB.offset_bits
    stale_vpn = mapping.virtual_base >> offset_bits
    stale_ppn = mapping.physical_base >> offset_bits
    region_base = (sim.trace.addresses[index]
                   & ~(int(PageSize.SUPER_2MB) - 1))
    promoted = sim.manager.promote_region(region_base, fault_in_missing=True)
    if promoted is None:
        stale_ppn ^= 1
    core_id = sim.trace.cores[index]
    sim.tlbs[core_id].l1_4kb.fill(stale_vpn, stale_ppn,
                                  PageSize.BASE_4KB, 0)
    return True


def _inject_trace_truncate(sim, index: int) -> bool:
    """Chop the trace off after the current reference (in place, so the
    run loop's column aliases observe it)."""
    trace = sim.trace
    cut = index + 1
    if cut < len(trace.addresses):
        del trace.addresses[cut:]
        del trace.writes[cut:]
        del trace.cores[cut:]
        del trace.gaps[cut:]
    return True


def _before_measurement(sim, index: int) -> bool:
    """True while a counter fault would be wiped by the warmup reset.

    Faults apply before the reference at ``index`` is processed, and the
    reset runs as the boundary reference itself is processed, so a fault
    applied *at* a nonzero boundary is erased too.
    """
    return bool(sim._warmup_end) and index <= sim._warmup_end


def _inject_energy_skew(sim, index: int) -> bool:
    """Drive one energy component negative (a sign-flipped accumulator).

    Deferred past the warmup boundary — the measurement reset would
    otherwise erase the corruption before anything could notice it.
    """
    if _before_measurement(sim, index):
        return False
    breakdown = sim.energy.breakdown
    # Large enough that the remaining references cannot accrue the
    # component back above zero before collection.
    breakdown.llc_nj = -(abs(breakdown.llc_nj) + 1e9)
    return True


def _inject_stats_skew(sim, index: int) -> bool:
    """Phantom L1 miss: a counter increment with no reference behind it.

    Deferred past the warmup boundary for the same reason as
    ``energy-skew``.
    """
    if _before_measurement(sim, index):
        return False
    sim.l1s[0].store.stats.misses += 1
    return True


_INJECTORS = {
    "tft-false-positive": _inject_tft_false_positive,
    "partition-desync": _inject_partition_desync,
    "tlb-shootdown-drop": _inject_tlb_shootdown_drop,
    "trace-truncate": _inject_trace_truncate,
    "energy-skew": _inject_energy_skew,
    "stats-skew": _inject_stats_skew,
}


class FaultPlan:
    """A deterministic schedule of faults, applied between references.

    Arm on a simulator with ``sim.arm_faults(plan)``; the simulator calls
    :meth:`apply` before processing each reference.  The plan is
    stateless (pending faults live on the simulator), so one plan safely
    drives every cell of a sweep, including cells run in subprocesses.
    """

    def __init__(self, specs: Iterable[FaultSpec]) -> None:
        self._specs: Tuple[FaultSpec, ...] = tuple(specs)
        for spec in self._specs:
            if spec.kind not in _INJECTORS:
                raise FaultInjectionError(
                    f"unknown fault kind {spec.kind!r}; valid kinds: "
                    f"{', '.join(FAULT_KINDS)}")
        by_index: Dict[int, List[FaultSpec]] = {}
        for spec in self._specs:
            by_index.setdefault(spec.at_index, []).append(spec)
        self._by_index = by_index

    @classmethod
    def parse(cls, texts: Iterable[str]) -> "FaultPlan":
        """Build a plan from CLI ``kind@index`` specs."""
        return cls(FaultSpec.parse(text) for text in texts)

    @property
    def specs(self) -> Tuple[FaultSpec, ...]:
        return self._specs

    @property
    def kinds(self) -> List[str]:
        """The fault kinds scheduled, in spec order."""
        return [spec.kind for spec in self._specs]

    def apply(self, sim, index: int) -> List[str]:
        """Run injectors due at (or deferred to) ``index``.

        Returns the kinds actually applied this call; deferred specs stay
        in ``sim._fault_pending`` and retry on the next reference.
        """
        pending = sim._fault_pending
        due = self._by_index.get(index)
        if due:
            pending.extend(due)
        if not pending:
            return []
        applied: List[str] = []
        still_pending: List[FaultSpec] = []
        for spec in pending:
            if _INJECTORS[spec.kind](sim, index):
                applied.append(spec.kind)
            else:
                still_pending.append(spec)
        sim._fault_pending = still_pending
        return applied
