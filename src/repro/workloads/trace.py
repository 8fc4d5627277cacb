"""Memory-trace representation.

A trace is a sequence of memory references, each carrying the virtual
address, read/write flag, issuing core (for multi-threaded workloads), and
the number of non-memory instructions that precede it (so timing models can
charge front-end work between references, and MPKI can be computed against
a true instruction count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class TraceRecord:
    """One memory reference."""

    virtual_address: int
    is_write: bool
    core: int = 0
    #: non-memory instructions executed before this reference.
    gap_instructions: int = 2


class MemoryTrace:
    """A workload's memory trace, stored columnar for compactness.

    Args:
        name: workload label.
        addresses: virtual addresses, one per reference.
        writes: per-reference write flags.
        cores: issuing core per reference (scalar 0 if single-threaded).
        gaps: non-memory instructions preceding each reference.
    """

    def __init__(self, name: str, addresses: Sequence[int],
                 writes: Sequence[bool],
                 cores: Optional[Sequence[int]] = None,
                 gaps: Optional[Sequence[int]] = None) -> None:
        self.name = name
        self.addresses: List[int] = list(map(int, addresses))
        self.writes: List[bool] = list(map(bool, writes))
        n = len(self.addresses)
        if len(self.writes) != n:
            raise ValueError("writes length must match addresses")
        self.cores: List[int] = ([0] * n if cores is None
                                 else list(map(int, cores)))
        self.gaps: List[int] = ([2] * n if gaps is None
                                else list(map(int, gaps)))
        if len(self.cores) != n or len(self.gaps) != n:
            raise ValueError("cores/gaps length must match addresses")

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[TraceRecord]:
        for va, w, c, g in zip(self.addresses, self.writes, self.cores,
                               self.gaps):
            yield TraceRecord(va, w, c, g)

    @property
    def instructions(self) -> int:
        """Total instruction count: memory references plus gap instructions."""
        return len(self) + sum(self.gaps)

    @property
    def num_cores(self) -> int:
        """Number of distinct cores issuing references."""
        return (max(self.cores) + 1) if self.cores else 1

    @property
    def write_fraction(self) -> float:
        """Fraction of references that are writes."""
        return sum(self.writes) / len(self) if len(self) else 0.0

    def footprint_pages(self, page_bytes: int = 4096) -> int:
        """Distinct 4KB pages touched."""
        return len({a // page_bytes for a in self.addresses})

    def columns(self):
        """``(addresses, writes)`` as cached numpy arrays.

        The simulator's per-reference loop wants plain lists, but
        array-rate consumers (the prewarm, the sampling profiler slicing
        thousands of intervals) want vectorized views.  Cached because
        read-only consumers treat traces as immutable.  Fault injection's
        ``trace-truncate`` shortens ``addresses`` in place after the
        prewarm has built the arrays; the length check rebuilds them.
        """
        cols = getattr(self, "_columns", None)
        if cols is None or len(cols[0]) != len(self.addresses):
            cols = (np.asarray(self.addresses, dtype=np.int64),
                    np.asarray(self.writes, dtype=bool))
            self._columns = cols
        return cols

    def slice_for_core(self, core: int) -> "MemoryTrace":
        """Extract one core's references (order preserved)."""
        idx = [i for i, c in enumerate(self.cores) if c == core]
        return MemoryTrace(
            f"{self.name}#c{core}",
            [self.addresses[i] for i in idx],
            [self.writes[i] for i in idx],
            [0] * len(idx),
            [self.gaps[i] for i in idx],
        )

    @staticmethod
    def concatenate(name: str,
                    traces: Sequence["MemoryTrace"]) -> "MemoryTrace":
        """Join traces back-to-back."""
        addresses: List[int] = []
        writes: List[bool] = []
        cores: List[int] = []
        gaps: List[int] = []
        for trace in traces:
            addresses.extend(trace.addresses)
            writes.extend(trace.writes)
            cores.extend(trace.cores)
            gaps.extend(trace.gaps)
        return MemoryTrace(name, addresses, writes, cores, gaps)
