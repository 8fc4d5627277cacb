"""Shared core-model machinery."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CoreStats:
    """Cycle and instruction accounting for one core.

    Cycles accumulate as floats: sub-cycle quantities (partially hidden hit
    latency, fractional issue slots) must not be rounded away per access or
    a one-cycle L1 improvement vanishes entirely under an out-of-order
    exposure factor.  Round once, at reporting time.
    """

    cycles: float = 0.0
    instructions: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class CoreModel:
    """Base trace-driven core timing model.

    Subclasses define how much of a memory reference's latency is exposed
    as pipeline stall (:meth:`memory_stall`).  The simulator charges its
    references in bulk, in trace order, through
    :meth:`fold_references`: each one's front-end work at
    ``issue_width`` instructions per cycle, then its exposed stall.
    """

    def __init__(self, issue_width: int = 2,
                 frequency_ghz: float = 1.33) -> None:
        self.issue_width = issue_width
        self.frequency_ghz = frequency_ghz
        self.stats = CoreStats()
        # memory_stall() is pure in (hit, latency) for fixed core
        # parameters, and a run asks for a handful of distinct latencies
        # millions of times — memoizing returns the exact same float the
        # pow/log2 computation would.  A hit is keyed by its latency and
        # a miss by ``~latency`` (negative), so one int keys both.  The
        # memo is pickled with the core, so a restored run keeps it.
        self._stall_cache: dict = {}

    def memory_stall(self, hit: bool, latency_cycles: float) -> float:
        """Exposed stall cycles for one memory reference."""
        raise NotImplementedError

    def fold_references(self, gaps: np.ndarray, keys: np.ndarray) -> None:
        """Charge a block of memory references, in trace order.

        Reference *i* retires ``gaps[i]`` non-memory instructions plus
        itself at ``issue_width`` per cycle, then the exposed stall of
        its retire key ``keys[i]``: its latency for a hit, ``~latency``
        for a miss.  ``np.add.accumulate`` adds those terms to
        ``cycles`` one at a time, left to right, so the float sum is the
        one a per-reference ``cycles + issue + stall`` would give.
        """
        if not len(keys):
            return
        stats = self.stats
        stats.instructions += int(gaps.sum()) + len(keys)
        distinct, which = np.unique(keys, return_inverse=True)
        cache = self._stall_cache
        stalls = []
        for key in distinct.tolist():
            stall = cache.get(key)
            if stall is None:
                stall = cache[key] = (self.memory_stall(True, key)
                                      if key >= 0
                                      else self.memory_stall(False, ~key))
            stalls.append(stall)
        terms = np.empty(2 * len(keys) + 1)
        terms[0] = stats.cycles
        terms[1::2] = (gaps + 1) / self.issue_width
        terms[2::2] = np.array(stalls)[which]
        stats.cycles = float(np.add.accumulate(terms)[-1])
