"""SEESAW: the paper's primary contribution.

Set-Enhanced Superpage-Aware caching (paper §IV): a VIPT L1 whose sets are
way-partitioned, with the partition index taken from the virtual-address
bits immediately above the set index.  For accesses to data in superpages
those bits lie inside the page offset, so only one partition's ways need to
be probed — a faster, lower-energy lookup.  A small direct-mapped
Translation Filter Table (TFT) predicts, in parallel with TLB lookup,
whether an access targets a superpage.
"""

from repro.core.tft import TranslationFilterTable, TFTStats
from repro.core.partition import WayPartitioning
from repro.core.insertion import InsertionPolicy
from repro.core.seesaw import SeesawL1Cache, SeesawStats
from repro.core.scheduling import HitSpeculationPolicy, SchedulerModel

__all__ = [
    "TranslationFilterTable",
    "TFTStats",
    "WayPartitioning",
    "InsertionPolicy",
    "SeesawL1Cache",
    "SeesawStats",
    "HitSpeculationPolicy",
    "SchedulerModel",
]
