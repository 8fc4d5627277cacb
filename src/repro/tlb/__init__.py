"""TLB hierarchy: split per-page-size L1 TLBs, unified L2 TLB, page walker.

Models the Intel-style hierarchy the paper assumes (Table II): split
set-associative L1 TLBs for 4KB and 2MB pages, a unified L2 TLB, and a
hardware page walker that terminates early for superpage leaves.
"""

from repro.tlb.tlb import TLB, TLBEntry, TLBStats
from repro.tlb.hierarchy import SplitTLBHierarchy
from repro.tlb.walker import PageWalker

__all__ = [
    "TLB",
    "TLBEntry",
    "TLBStats",
    "SplitTLBHierarchy",
    "PageWalker",
]
