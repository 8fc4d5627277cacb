"""Synthetic access-pattern generators.

Each generator produces a stream of *line indices* inside a workload's
footprint; the suite layer maps those to virtual addresses.  The patterns
cover the behaviours that differentiate the paper's workloads:

* :class:`ZipfGenerator` — skewed reuse (SPEC-like; key-value stores with a
  hot working set).  Good temporal locality, good MRU way-predictor
  accuracy.
* :class:`StreamGenerator` — sequential/strided sweeps (cactus, tigr,
  mummer).  Perfect spatial locality, near-zero reuse at L1 sizes.
* :class:`PointerChaseGenerator` — a random-permutation walk (mcf, canneal,
  graph500, olio).  Poor locality; this is the pattern that makes MRU way
  prediction *mispredict* (paper Fig. 15).
* :class:`UniformRandomGenerator` — GUPS-style uniform random updates.
* :class:`MixedGenerator` — weighted composition of the above.

All generators are seeded and deterministic; addresses come out as numpy
arrays for speed.  Every generator accepts an optional ``rng`` so several
generators (or a whole trace build) can draw from *one* shared
:class:`numpy.random.Generator` — the reproducibility seam used by
``build_trace(..., rng=...)``.  When ``rng`` is omitted, each generator
seeds its own stream from ``seed`` exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.mem.address import CACHE_LINE_SIZE


class PatternGenerator:
    """Base class: generates ``count`` line indices in ``[0, num_lines)``."""

    def __init__(self, num_lines: int, seed: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if num_lines <= 0:
            raise ValueError("num_lines must be positive")
        self.num_lines = num_lines
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def generate(self, count: int) -> np.ndarray:
        """Return ``count`` line indices (dtype int64)."""
        raise NotImplementedError


class ZipfGenerator(PatternGenerator):
    """Zipf-distributed reuse over pages, with sequential bursts inside pages.

    Pages are ranked by hotness with probability ∝ 1/(rank+1)^s; inside the
    chosen page, a short sequential burst of lines is emitted (geometric
    length), giving realistic spatial locality.

    Args:
        s: zipf skew (higher = hotter hot set; 0.8-1.2 typical).
        burst_mean: mean sequential burst length in lines.
    """

    def __init__(self, num_lines: int, s: float = 0.9,
                 burst_mean: float = 4.0, seed: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(num_lines, seed, rng)
        self.s = s
        self.burst_mean = burst_mean
        self.lines_per_page = 4096 // CACHE_LINE_SIZE
        self.num_pages = max(1, num_lines // self.lines_per_page)
        ranks = np.arange(1, self.num_pages + 1, dtype=np.float64)
        weights = ranks ** (-s)
        self._cdf = np.cumsum(weights / weights.sum())
        # Hot ranks map to *contiguous low page numbers*: real heaps keep
        # their hot structures clustered (allocated together, early), which
        # gives the region-level locality that lets a small TFT cover the
        # hot 2MB regions (paper Fig. 13).
        self._rank_to_page = np.arange(self.num_pages)

    def generate(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            rank = int(np.searchsorted(self._cdf, self.rng.random()))
            page = int(self._rank_to_page[min(rank, self.num_pages - 1)])
            burst = 1 + self.rng.geometric(1.0 / self.burst_mean)
            start_line = int(self.rng.integers(0, self.lines_per_page))
            for i in range(min(burst, count - filled)):
                line = (page * self.lines_per_page
                        + (start_line + i) % self.lines_per_page)
                out[filled] = min(line, self.num_lines - 1)
                filled += 1
        return out


class StreamGenerator(PatternGenerator):
    """Sequential sweep with optional stride, wrapping at the footprint end."""

    def __init__(self, num_lines: int, stride: int = 1, seed: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(num_lines, seed, rng)
        if stride <= 0:
            raise ValueError("stride must be positive")
        self.stride = stride
        self._position = int(self.rng.integers(0, num_lines))

    def generate(self, count: int) -> np.ndarray:
        steps = np.arange(count, dtype=np.int64) * self.stride
        out = (self._position + steps) % self.num_lines
        self._position = int((self._position + count * self.stride)
                             % self.num_lines)
        return out


class PointerChaseGenerator(PatternGenerator):
    """Walk a fixed random permutation of the footprint's lines.

    Successive accesses are data-dependent jumps to effectively random
    lines — the access pattern of linked-list/graph traversal.  Reuse
    happens only when the walk cycles past the footprint, so at L1 scale
    the MRU way predictor sees near-random way usage.
    """

    def __init__(self, num_lines: int, seed: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(num_lines, seed, rng)
        # A single Hamiltonian cycle (as list-initialization code builds):
        # the walk visits ``order`` in sequence and wraps.  A raw
        # permutation used as a successor table would decompose into
        # several short cycles.  ``_cursor`` is the walk's next position
        # in ``order``.
        self._order = self.rng.permutation(num_lines).astype(np.int64)
        self._cursor = 0

    def generate(self, count: int) -> np.ndarray:
        out = self._order.take(self._cursor + np.arange(count), mode="wrap")
        self._cursor = (self._cursor + count) % self.num_lines
        return out


class UniformRandomGenerator(PatternGenerator):
    """GUPS: independent uniform random line indices."""

    def generate(self, count: int) -> np.ndarray:
        return self.rng.integers(0, self.num_lines, size=count,
                                 dtype=np.int64)


class MixedGenerator(PatternGenerator):
    """Weighted mixture of component generators, interleaved in chunks.

    Args:
        components: (generator, weight) pairs.
        chunk: references drawn from one component before switching —
            small chunks interleave phases finely.
    """

    def __init__(self, num_lines: int,
                 components: Sequence[tuple],
                 chunk: int = 64, seed: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(num_lines, seed, rng)
        if not components:
            raise ValueError("at least one component required")
        self.generators = [g for g, _ in components]
        weights = np.array([w for _, w in components], dtype=np.float64)
        self._probabilities = weights / weights.sum()
        self.chunk = chunk

    def generate(self, count: int) -> np.ndarray:
        pieces: List[np.ndarray] = []
        produced = 0
        while produced < count:
            take = min(self.chunk, count - produced)
            which = int(self.rng.choice(len(self.generators),
                                        p=self._probabilities))
            pieces.append(self.generators[which].generate(take))
            produced += take
        return np.concatenate(pieces)
