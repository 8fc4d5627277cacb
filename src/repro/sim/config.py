"""System configuration (paper Table II + Table III).

:class:`SystemConfig` is the single knob surface for every experiment: it
selects the L1 design under test, cache geometry, frequency, core model,
TLB organization, coherence fabric, OS policy, and fragmentation level.
Factory helpers derive the timing (Table III) and TLB shapes (Table II)
from the high-level choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.cache.vipt import L1Timing
from repro.core.insertion import InsertionPolicy
from repro.core.scheduling import HitSpeculationPolicy
from repro.energy.sram import SRAMModel, TABLE3
from repro.mem.os_policy import THPPolicy

#: The L1 designs a machine can use: the VIPT baseline, the PIPT and
#: VIVT alternatives (Fig. 14 / §VII) and SEESAW.
L1_DESIGNS = ("vipt", "pipt", "vivt", "seesaw")
#: The core timing models: out-of-order (Sandybridge-like) and in-order
#: (Atom-like), Table II.
CORE_MODELS = ("ooo", "inorder")

#: Paper Table II, for the record (the configuration dump the Table II
#: bench prints).  Values are the paper's, independent of any scaling the
#: simulator applies for tractability.
TABLE2_PARAMETERS: Dict[str, Dict[str, str]] = {
    "cpu_models": {
        "out_of_order": ("~Intel Sandybridge: 168-entry ROB, 54-entry "
                         "instruction scheduler, 16-byte I-fetches/cycle"),
        "in_order": "~Intel Atom: dual-issue, 16-stage pipeline",
    },
    "memory_system": {
        "l1_cache": "Private split L1I (32kB) + L1D (Table III)",
        "tlb_atom": ("L1 (64-entry for 4kB, 32-entry for 2MB), "
                     "512-entry L2"),
        "tlb_sandybridge": "Split L1 (128-entry for 4kB, 16-entry for 2MB)",
        "llc": "Unified, 24MB",
        "dram": "4GB, 51ns round-trip access latency",
    },
    "system": {
        "technology": "22nm",
        "frequency": "1.33 GHz, 2.80 GHz, 4.0 GHz",
        "cores": "32, 64, 128",
        "coherence": "MOESI directory",
    },
}


@dataclass
class SystemConfig:
    """One simulated machine configuration.

    Attributes mirror the paper's evaluated space:

    * ``l1_design``: ``"vipt"`` (baseline), ``"pipt"`` / ``"vivt"``
      (the alternatives of Fig. 14 / §VII), or ``"seesaw"``.
    * ``l1_size_kb`` / ``frequency_ghz``: the Table III axes.
    * ``core``: ``"ooo"`` (Sandybridge-like) or ``"inorder"`` (Atom-like);
      also selects the TLB organization per Table II.
    * ``memhog_fraction``: physical-memory fraction pinned by the
      fragmentation microbenchmark before the workload runs (Figs. 3/12).
    * ``aging_fraction``: baseline fragmentation standing in for the
      paper's "heavily loaded for over a year" system state.
    """

    l1_design: str = "seesaw"
    l1_size_kb: int = 32
    frequency_ghz: float = 1.33
    core: str = "ooo"
    num_cores: int = 4
    # SEESAW specifics
    partition_ways: int = 4
    insertion: InsertionPolicy = InsertionPolicy.FOUR_WAY
    tft_entries: int = 16
    speculation: HitSpeculationPolicy = HitSpeculationPolicy.ADAPTIVE
    way_prediction: bool = False
    # Confidence-gated way prediction: the §VI-F future-work scheme that
    # disables the predictor during poor-locality phases.
    adaptive_way_prediction: bool = False
    # PIPT specifics (Fig. 14 alternative designs).  A serialized TLB
    # costs wall-clock time, so its cycle count scales with frequency;
    # None derives it as ceil(0.75ns * frequency).
    pipt_ways: int = 8
    pipt_tlb_latency: Optional[int] = None
    # VIVT specifics (§VII alternative): associativity of the virtually
    # tagged array, and how often context switches force a full flush.
    vivt_ways: int = 8
    vivt_flush_interval: Optional[int] = 50_000
    # Memory hierarchy.  The LLC is scaled with the (scaled) workload
    # footprints; Table II's machine uses 24MB against multi-GB footprints.
    llc_size_kb: int = 8 * 1024
    llc_ways: int = 16
    llc_latency: int = 30
    # OS / fragmentation.  memory_mb=None auto-scales physical memory to
    # the workload's 2MB-region spread (as the paper's 32GB machine relates
    # to its multi-GB footprints); pass an explicit value to pin it.
    memory_mb: Optional[int] = None
    thp_policy: THPPolicy = THPPolicy.ALWAYS
    memhog_fraction: float = 0.0
    aging_fraction: float = 0.20
    # Coherence
    coherence: str = "directory"           # "directory" | "snoop" | "none"
    # Background OS/IO coherence activity (network stack, kernel threads):
    # one probe into a random L1 every N references.  The paper notes that
    # even single-threaded workloads see substantial coherence lookups from
    # system-level activity (§VI-B, Fig. 11).
    system_probe_interval: int = 12
    # Page-table churn during the run (paper §IV-C2): every N references,
    # splinter one superpage-backed region / promote one splintered region.
    splinter_interval: Optional[int] = None
    promote_interval: Optional[int] = None
    # Misc
    context_switch_interval: Optional[int] = None
    seed: int = 7
    # Runtime invariant sanitizer (repro.devtools.sanitize): adds cheap
    # coherence/indexing/translation/result cross-checks.  Also enabled
    # globally by REPRO_SANITIZE=1 in the environment.
    sanitize: bool = False

    # ------------------------------------------------------------- validation

    def __post_init__(self) -> None:
        if self.l1_design not in L1_DESIGNS:
            raise ValueError(f"unknown l1_design {self.l1_design!r}")
        if self.core not in CORE_MODELS:
            raise ValueError(f"unknown core model {self.core!r}")
        if self.coherence not in ("directory", "snoop", "none"):
            raise ValueError(f"unknown coherence fabric {self.coherence!r}")
        if self.num_cores < 1:
            raise ValueError("num_cores must be at least 1")
        for name in ("memhog_fraction", "aging_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1), got {value!r} — it is the "
                    f"fraction of physical memory pinned before the "
                    f"workload runs, and pinning everything leaves no "
                    f"memory to map")

    # -------------------------------------------------------------- derived

    @property
    def l1_size_bytes(self) -> int:
        return self.l1_size_kb * 1024

    @property
    def l1_ways(self) -> int:
        """VIPT/SEESAW associativity implied by 64 sets x 64B lines."""
        return self.l1_size_kb * 1024 // (64 * 64)

    @property
    def context_switch_period(self) -> Optional[int]:
        """References between context switches (``None``: none happen).

        ``context_switch_interval`` when set.  Otherwise a VIVT L1, which
        has no ASID tags and so flushes on every switch, still sees the
        OS scheduling quantum ``vivt_flush_interval``.
        """
        if self.context_switch_interval is None and self.l1_design == "vivt":
            return self.vivt_flush_interval
        return self.context_switch_interval

    def l1_timing(self, sram: Optional[SRAMModel] = None) -> L1Timing:
        """Hit latencies for this configuration.

        Uses the paper's exact Table III values when the configuration is
        one of the nine published points; otherwise derives cycle counts
        from the analytic SRAM model.
        """
        key = (self.l1_size_kb, round(self.frequency_ghz, 2))
        if key in TABLE3:
            tft, base, super_ = TABLE3[key]
            return L1Timing(base_hit_cycles=base, super_hit_cycles=super_,
                            tft_cycles=tft)
        model = sram or SRAMModel()
        base = model.access_latency_cycles(self.l1_size_bytes, self.l1_ways,
                                           self.frequency_ghz)
        partition_bytes = (self.l1_size_bytes * self.partition_ways
                           // self.l1_ways)
        super_ = model.access_latency_cycles(partition_bytes,
                                             self.partition_ways,
                                             self.frequency_ghz)
        return L1Timing(base_hit_cycles=base, super_hit_cycles=min(super_, base),
                        tft_cycles=1)

    def pipt_hit_cycles(self, sram: Optional[SRAMModel] = None) -> int:
        """Array latency for the PIPT alternative at ``pipt_ways``."""
        model = sram or SRAMModel()
        return model.access_latency_cycles(self.l1_size_bytes, self.pipt_ways,
                                           self.frequency_ghz)

    def pipt_tlb_cycles(self) -> int:
        """Serialized-TLB latency: ~0.75ns of SRAM time, in core cycles."""
        if self.pipt_tlb_latency is not None:
            return self.pipt_tlb_latency
        return max(1, math.ceil(0.75 * self.frequency_ghz))

    def vivt_hit_cycles(self, sram: Optional[SRAMModel] = None) -> int:
        """Array latency for the VIVT alternative at ``vivt_ways``."""
        model = sram or SRAMModel()
        return model.access_latency_cycles(self.l1_size_bytes, self.vivt_ways,
                                           self.frequency_ghz)

    def tlb_shape(self) -> Dict[str, int]:
        """Table II TLB organization for the selected core model.

        For the PIPT alternative (Fig. 14) the L1 TLBs are halved: a PIPT
        cache serializes translation before indexing, so the TLB must
        respond within the index-setup window — which forces a smaller
        structure.  This is the coupling the paper points at: alternatives
        "frequently need to" shrink TLB sizes, which costs TLB hit rate.
        """
        if self.core == "inorder":
            shape = {"l1_4kb_entries": 64, "l1_4kb_ways": 4,
                     "l1_2mb_entries": 32, "l1_2mb_ways": 4,
                     "l2_entries": 512, "l2_ways": 8}
        else:
            shape = {"l1_4kb_entries": 128, "l1_4kb_ways": 4,
                     "l1_2mb_entries": 16, "l1_2mb_ways": 4,
                     "l2_entries": 0, "l2_ways": 8}
        if self.l1_design == "pipt":
            # Quarter-size: only a very small TLB responds within the
            # index-setup window of a serialized lookup.
            for key in ("l1_4kb_entries", "l1_2mb_entries"):
                shape[key] = max(4, shape[key] // 4)
        return shape

    def with_design(self, design: str) -> "SystemConfig":
        """Clone this config with a different L1 design (for comparisons)."""
        return replace(self, l1_design=design)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.l1_design} L1={self.l1_size_kb}KB/"
                f"{self.l1_ways}w @{self.frequency_ghz}GHz "
                f"core={self.core} memhog={self.memhog_fraction:.0%}")
