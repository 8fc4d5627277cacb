"""Cache substrate: generic set-associative caches, VIPT/PIPT/VIVT L1
frontends, way prediction, and the LLC/DRAM backing hierarchy.

The SEESAW L1 itself lives in :mod:`repro.core`; this package provides the
baseline designs it is compared against (paper Figs. 7-15) and the levels
behind the L1.
"""

from repro.cache.basic import CacheSet, SetAssociativeCache, CacheStats
from repro.cache.vipt import ViptL1Cache
from repro.cache.pipt import PiptL1Cache
from repro.cache.vivt import VivtL1Cache
from repro.cache.way_predictor import MRUWayPredictor, WayPredictorStats
from repro.cache.hierarchy import MemoryHierarchy, DRAMModel

__all__ = [
    "CacheSet",
    "SetAssociativeCache",
    "CacheStats",
    "ViptL1Cache",
    "PiptL1Cache",
    "VivtL1Cache",
    "MRUWayPredictor",
    "WayPredictorStats",
    "MemoryHierarchy",
    "DRAMModel",
]
