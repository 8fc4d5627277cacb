"""Memory-hierarchy energy accounting (paper Figs. 10-12, 15).

The paper reports energy "spent on the entire memory hierarchy (rather than
just the L1 cache), since changes to L1 cache hit rates can affect access
rates and energy of the bigger caches and memory".  The accountant therefore
tracks, per simulation:

* L1 dynamic lookup energy, split into CPU-side and coherence lookups
  (the Fig. 11 attribution), scaled by the number of ways actually probed;
* TLB and TFT lookup energy;
* LLC / DRAM dynamic access energy;
* leakage, proportional to runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

import numpy as np

from repro.energy.sram import SRAMModel


@dataclass
class EnergyBreakdown:
    """Accumulated energy by component, in nanojoules."""

    l1_cpu_lookup_nj: float = 0.0
    l1_coherence_lookup_nj: float = 0.0
    l1_fill_nj: float = 0.0
    tlb_nj: float = 0.0
    tft_nj: float = 0.0
    #: always 0.0: the machine has no private L2 (paper Table II), but
    #: every result and golden carries the component.
    l2_nj: float = 0.0
    llc_nj: float = 0.0
    dram_nj: float = 0.0
    leakage_nj: float = 0.0

    @property
    def total_nj(self) -> float:
        return (self.l1_cpu_lookup_nj + self.l1_coherence_lookup_nj
                + self.l1_fill_nj + self.tlb_nj + self.tft_nj + self.l2_nj
                + self.llc_nj + self.dram_nj + self.leakage_nj)

    @property
    def dynamic_nj(self) -> float:
        return self.total_nj - self.leakage_nj

    def validate(self) -> None:
        """Invariant check: components finite, non-negative, summing to
        ``total_nj``.  Raises
        :class:`repro.devtools.sanitize.SanitizerError` on violation;
        called by the runtime sanitizer on every finished result."""
        from repro.devtools.sanitize import check_energy
        check_energy(self)

    def as_dict(self) -> Dict[str, float]:
        """Component → nJ mapping (for reports)."""
        return {
            "l1_cpu_lookup": self.l1_cpu_lookup_nj,
            "l1_coherence_lookup": self.l1_coherence_lookup_nj,
            "l1_fill": self.l1_fill_nj,
            "tlb": self.tlb_nj,
            "tft": self.tft_nj,
            "l2": self.l2_nj,
            "llc": self.llc_nj,
            "dram": self.dram_nj,
            "leakage": self.leakage_nj,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "EnergyBreakdown":
        """Inverse of :meth:`as_dict` (sweep-journal deserialization)."""
        return cls(
            l1_cpu_lookup_nj=payload["l1_cpu_lookup"],
            l1_coherence_lookup_nj=payload["l1_coherence_lookup"],
            l1_fill_nj=payload["l1_fill"],
            tlb_nj=payload["tlb"],
            tft_nj=payload["tft"],
            l2_nj=payload["l2"],
            llc_nj=payload["llc"],
            dram_nj=payload["dram"],
            leakage_nj=payload["leakage"],
        )


#: The dynamic components, in declaration order: every field but
#: runtime-proportional leakage, which is charged once per result.
DYNAMIC_ENERGY_FIELDS = tuple(f.name for f in fields(EnergyBreakdown)
                              if f.name != "leakage_nj")


@dataclass
class EnergyAccountant:
    """Per-event energy recorder for one simulated system.

    The simulator charges its CPU references' lookups in bulk, in trace
    order, through :meth:`fold_references`, and every L1 miss through
    :meth:`record_miss`; coherence probes, dirty L1 evictions and
    leakage come through :meth:`record_l1_lookup`,
    :meth:`record_llc_access` and :meth:`record_runtime`.

    Args:
        sram: the SRAM model used for L1 lookup/fill energy.
        l1_size_bytes / l1_ways: geometry of the L1 being accounted.
        Remaining fields are per-event constants (nJ) and leakage power
        (mW), with defaults representative of a 22nm hierarchy: LLC and
        DRAM accesses dwarf L1 lookups, and leakage — dominated by the
        multi-MB LLC — is hundreds of mW, which makes total energy strongly
        runtime-proportional (the reason the paper's Fig. 10 energy savings
        track and exceed its runtime savings).
    """

    sram: SRAMModel
    l1_size_bytes: int
    l1_ways: int
    tlb_lookup_nj: float = 0.004
    tft_lookup_nj: float = 0.0008
    llc_access_nj: float = 0.9
    dram_access_nj: float = 18.0
    leakage_mw: float = 350.0
    breakdown: EnergyBreakdown = field(default_factory=EnergyBreakdown)

    def __post_init__(self) -> None:
        # Lookup energies are pure functions of ways_probed for a fixed
        # geometry; memoize so the per-access path avoids pow/log calls.
        self._lookup_energy = {
            ways: self.sram.partial_lookup_energy_nj(
                self.l1_size_bytes, self.l1_ways, ways)
            for ways in range(1, self.l1_ways + 1)
        }
        # The same energies as arrays a block of references indexes: by
        # TLB lookup count (one or two), and by ways probed.
        self._tlb_energy = np.array([self.tlb_lookup_nj * lookups
                                     for lookups in range(3)])
        self._lookup_energy_by_ways = np.array(
            [0.0] + [self._lookup_energy[ways]
                     for ways in range(1, self.l1_ways + 1)])

    # ------------------------------------------------------------- L1 events

    def record_l1_lookup(self, ways_probed: int,
                         coherence: bool = False) -> float:
        """An L1 probe touching ``ways_probed`` ways. Returns nJ charged."""
        energy = self._lookup_energy[ways_probed]
        if coherence:
            self.breakdown.l1_coherence_lookup_nj += energy
        else:
            self.breakdown.l1_cpu_lookup_nj += energy
        return energy

    # --------------------------------------------------- per-reference events

    def fold_references(self, codes: np.ndarray, tft_lookups: int) -> None:
        """Charge a block of CPU references' lookups, in trace order.

        ``codes[i]`` is the ways reference *i*'s L1 lookup probed, or
        ``~ways`` when the L1 TLBs missed: one TLB lookup on an L1 TLB
        hit, two (an L1 and an L2 TLB or walker lookup) otherwise.
        Every reference also makes ``tft_lookups`` TFT probes (one on a
        SEESAW L1, none without a TFT).  Each component's terms are
        added one at a time, left to right (``np.add.accumulate``), so
        its float sum is the one a per-reference ``+=`` would give.
        """
        if not len(codes):
            return
        breakdown = self.breakdown
        missed = codes < 0
        breakdown.tlb_nj = _running_sum(breakdown.tlb_nj,
                                        self._tlb_energy[missed + 1])
        if tft_lookups:
            breakdown.tft_nj = _running_sum(
                breakdown.tft_nj,
                np.full(len(codes), self.tft_lookup_nj * tft_lookups))
        breakdown.l1_cpu_lookup_nj = _running_sum(
            breakdown.l1_cpu_lookup_nj,
            self._lookup_energy_by_ways[np.where(missed, ~codes, codes)])

    def record_miss(self, miss) -> None:
        """One L1 miss: the LLC access every miss makes, DRAM when the
        :class:`~repro.cache.hierarchy.MissServiceResult` ``miss``
        reached it, then the line's install into one L1 way."""
        breakdown = self.breakdown
        breakdown.llc_nj += self.llc_access_nj
        if miss.dram_accessed:
            breakdown.dram_nj += self.dram_access_nj
        breakdown.l1_fill_nj += self._lookup_energy[1]

    # ---------------------------------------------------------- other events

    def record_llc_access(self) -> None:
        self.breakdown.llc_nj += self.llc_access_nj

    def record_runtime(self, cycles: int, frequency_ghz: float) -> None:
        """Charge leakage for ``cycles`` of runtime at ``frequency_ghz``.

        Leakage = power x time; slower runs leak more, which is how SEESAW's
        runtime wins also become leakage wins (paper §VI-B).
        """
        seconds = cycles / (frequency_ghz * 1e9)
        self.breakdown.leakage_nj += self.leakage_mw * 1e-3 * seconds * 1e9


def _running_sum(start: float, terms: np.ndarray) -> float:
    """``start`` plus each of ``terms`` in order, one float add at a time."""
    return float(np.add.accumulate(np.concatenate(([start], terms)))[-1])
