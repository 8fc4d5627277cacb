"""Shared core-model machinery."""

from __future__ import annotations

from dataclasses import dataclass


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
    as pipeline stall (:meth:`memory_stall`).  The simulator charges each
    reference once, through :meth:`retire`: front-end work at
    ``issue_width`` instructions per cycle, then the exposed stall.
    """

    def __init__(self, issue_width: int = 2,
                 frequency_ghz: float = 1.33) -> None:
        self.issue_width = issue_width
        self.frequency_ghz = frequency_ghz
        self.stats = CoreStats()
        # memory_stall() is pure in (hit, latency) for fixed core
        # parameters, and retire() asks for a handful of distinct
        # latencies millions of times — memoizing returns the exact same
        # float the pow/log2 computation would.  A hit is keyed by its
        # latency and a miss by ``~latency`` (negative), so one int keys
        # both.  The memo is pickled with the core, so a restored run
        # keeps it.
        self._stall_cache: dict = {}

    def memory_stall(self, hit: bool, latency_cycles: float) -> float:
        """Exposed stall cycles for one memory reference."""
        raise NotImplementedError

    def retire(self, gap_instructions: int, hit: bool,
               latency_cycles: int) -> None:
        """Charge one memory reference: the ``gap_instructions``
        non-memory instructions before it plus itself at ``issue_width``
        per cycle, then the exposed part of its ``latency_cycles``."""
        stats = self.stats
        instructions = gap_instructions + 1
        stats.instructions += instructions
        key = latency_cycles if hit else ~latency_cycles
        stall = self._stall_cache.get(key)
        if stall is None:
            stall = self._stall_cache[key] = self.memory_stall(
                hit, latency_cycles)
        stats.cycles = stats.cycles + instructions / self.issue_width + stall
