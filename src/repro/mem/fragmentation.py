"""Memhog: the memory-fragmentation microbenchmark the paper uses.

Paper §III-C / Fig. 3 and §VI-C / Fig. 12 fragment physical memory by
running ``memhog``, which "performs random memory allocations".  The model
reproduces the *state* a long-running fragmented system reaches: memhog
first consumes all of physical memory in small allocations (as a year of
system activity would have), then frees memory back until the target
fraction remains pinned.  What matters for superpages is the *shape* of the
freed space: a tunable byte-share comes back as intact 2MB-aligned regions
(defragmentation/compaction successes, buddy coalescing) while the rest
returns as scattered small holes that can never back a superpage.  The
result is the paper's gradual Fig. 3 decay: plenty of 2MB-capable memory at
low memhog levels, collapse at 80%+.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.mem.address import PAGE_SIZE_2MB
from repro.mem.physical import ORDER_2MB, PhysicalMemory

#: draws one RNG call makes while memhog consumes or frees memory.
DRAW_BLOCK = 256
#: exclusive upper bound of each order in a block draw (orders 3-6).
_ORDER_HIGHS = np.full(DRAW_BLOCK, 7)


def _round_robin(regions: List[int], keep: int,
                 counts: Dict[int, int]) -> Iterator[Tuple[int, int]]:
    """Memhog's scattered free-back visits, as ``(region, blocks held)``:
    ``regions`` in turn, each dropping out once it holds ``keep`` blocks.
    The visits do not depend on which block each one frees, so they can
    be known before the picks are drawn.  Counts down ``counts``.
    """
    regions = list(regions)
    cursor = 0
    while regions:
        region = regions[cursor % len(regions)]
        count = counts[region]
        yield region, count
        counts[region] = count - 1
        if count - 1 <= keep:
            regions.remove(region)
        else:
            cursor += 1


@dataclass
class Memhog:
    """A memhog instance pinning a fraction of a :class:`PhysicalMemory`.

    Args:
        memory: the physical memory to fragment.
        fraction: fraction of total memory left *pinned* by memhog
            (``memhog (60%)`` in the paper's notation is ``fraction=0.6``).
        seed: RNG seed; fragmentation patterns are reproducible.
        large_hole_byte_share: share of the freed bytes returned as intact
            2MB regions (the memory a defragmenting OS could still back
            superpages with).  Calibrated to ~0.25 so Fig. 3's coverage
            curve matches the paper's measured decay.
    """

    memory: PhysicalMemory
    fraction: float
    seed: int = 0
    large_hole_byte_share: float = 0.25
    _held: Dict[int, List[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 0.95:
            raise ValueError("memhog fraction must be within [0, 0.95]")

    # ------------------------------------------------------------------- run

    def run(self) -> None:
        """Fragment memory, leaving ``fraction`` of it pinned.

        A zero fraction is a no-op: memhog absent means no fragmentation
        (the paper's ``memhog (0%)``).
        """
        if self.fraction == 0.0:
            return
        rng = np.random.default_rng(self.seed)
        self._consume_all(rng)
        self._free_back(rng)

    def _consume_all(self, rng: np.random.Generator) -> None:
        """Grab every free frame in sub-2MB random allocations.

        Block orders 3-6 (32-256KB) keep the allocation count tractable at
        hundreds of MB of simulated memory while staying far below the 2MB
        threshold that matters: any pinned block of these sizes poisons its
        region for superpage use just as a 4KB one would.

        Each allocation draws its order as ``integers(3, 7)``.  The draws
        come ``DRAW_BLOCK`` at a time from one ``integers`` call, whose
        broadcast bounds yield exactly the scalar sequence.  When memory
        runs out mid-block, the generator is rewound to the block's start
        and redraws only the orders used, the failed allocation's
        included, so :meth:`_free_back` continues from where one draw per
        allocation leaves it.
        """
        held: Dict[int, List[int]] = defaultdict(list)
        try_allocate = self.memory.allocator.try_allocate
        bit_generator = rng.bit_generator
        while True:
            state = bit_generator.state
            orders = rng.integers(3, _ORDER_HIGHS).tolist()
            for used, order in enumerate(orders, 1):
                frame = try_allocate(order)
                if frame is None:
                    frame = try_allocate(0)
                    if frame is None:
                        bit_generator.state = state
                        rng.integers(3, _ORDER_HIGHS[:used])
                        self._held = dict(held)
                        return
                held[frame >> ORDER_2MB].append(frame)  # its 2MB region

    def _free_back(self, rng: np.random.Generator) -> None:
        """Release memory until only ``fraction`` stays pinned.

        A byte-share of the freed memory comes back as whole 2MB regions
        (freeing every small block inside a region lets the buddy allocator
        coalesce it into an order-9 block); the rest returns as scattered
        small holes.
        """
        total = self.memory.total_bytes
        target_free = int(total * (1.0 - self.fraction))
        bytes_needed = target_free - self.memory.free_bytes
        if bytes_needed <= 0:
            return
        large_bytes = int(bytes_needed * self.large_hole_byte_share)
        regions = list(self._held)
        rng.shuffle(regions)
        freed_large = 0
        while freed_large < large_bytes and regions:
            region = regions.pop()
            for frame in self._held.pop(region):
                self.memory.allocator.free(frame)
            freed_large += PAGE_SIZE_2MB
        # Scattered small holes: free random blocks from random regions,
        # but always keep a couple of blocks pinned in each region — one
        # resident allocation is enough to stop buddy coalescing from ever
        # rebuilding an order-9 (2MB) block there, which is exactly how
        # long-lived kernel/user objects poison regions on real systems.
        # Each freed block is ``integers(0, blocks held)``; as in
        # _consume_all, the picks come a block at a time and the
        # generator is rewound to leave only the used ones drawn.
        min_pinned = 2
        held = self._held
        eligible = [r for r, blocks in held.items()
                    if len(blocks) > min_pinned]
        rng.shuffle(eligible)
        visits = _round_robin(eligible, min_pinned,
                              {r: len(held[r]) for r in eligible})
        free = self.memory.allocator.free
        bit_generator = rng.bit_generator
        while True:
            block = list(islice(visits, DRAW_BLOCK))
            if not block:
                return
            state = bit_generator.state
            counts = [count for _, count in block]
            picks = rng.integers(0, counts).tolist()
            for used, ((region, _), pick) in enumerate(zip(block, picks)):
                if self.memory.free_bytes >= target_free:
                    bit_generator.state = state
                    rng.integers(0, counts[:used])
                    return
                free(held[region].pop(pick))

    # ------------------------------------------------------------------- API

    def release(self) -> None:
        """Free everything memhog still holds."""
        for blocks in self._held.values():
            for frame in blocks:
                self.memory.allocator.free(frame)
        self._held.clear()

    @property
    def held_regions(self) -> int:
        """2MB regions in which memhog still pins at least one block."""
        return len(self._held)


def fragment_memory(memory: PhysicalMemory, fraction: float,
                    seed: int = 0) -> Memhog:
    """Create and run a memhog pinning ``fraction`` of ``memory``.

    Returns the :class:`Memhog` so callers can later :meth:`Memhog.release`.
    """
    hog = Memhog(memory=memory, fraction=fraction, seed=seed)
    hog.run()
    return hog
