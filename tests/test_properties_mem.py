"""Property tests for memhog's block draws and the buddy allocator's
running free-frame count.

:class:`~repro.mem.fragmentation.Memhog` draws its allocation orders, and
the blocks it frees back, a block of draws at a time, and rewinds the
generator when it stops mid-block.  It must leave the same held blocks,
free lists and generator state as the readable model below, which makes
one scalar draw per allocation and per freed block.
"""

from collections import defaultdict
from unittest import mock

import hypothesis.strategies as st
import numpy as np
from hypothesis import example, given

from repro.mem.fragmentation import Memhog
from repro.mem.physical import BuddyAllocator, PhysicalMemory

FRAME = 4096
#: frames per 2MB region.
REGION_FRAMES = 512


def free_list_frames(allocator):
    """Free frames summed over the free lists."""
    return sum(len(blocks) << order
               for order, blocks in enumerate(allocator._free_lists))


def reference_memhog(memory, fraction, seed):
    """Memhog with one scalar draw per allocation and per freed block.

    Returns the held blocks by region, the generator's state when the
    consume phase ends, and the generator itself.
    """
    rng = np.random.default_rng(seed)
    allocator = memory.allocator
    held = defaultdict(list)
    # Consume: every free frame, in blocks of order 3-6, then order 0.
    while True:
        order = int(rng.integers(3, 7))
        frame = allocator.try_allocate(order)
        if frame is None:
            frame = allocator.try_allocate(0)
            if frame is None:
                break
        held[frame // REGION_FRAMES].append(frame)
    held = dict(held)
    consumed_state = rng.bit_generator.state
    # Free back: whole regions for a quarter of the bytes (the default
    # large_hole_byte_share), then single blocks round-robin over the
    # regions that still hold more than two.
    target_free = int(memory.total_bytes * (1.0 - fraction))
    needed = target_free - free_list_frames(allocator) * FRAME
    if needed > 0:
        regions = list(held)
        rng.shuffle(regions)
        freed = 0
        while freed < int(needed * 0.25) and regions:
            for frame in held.pop(regions.pop()):
                allocator.free(frame)
            freed += REGION_FRAMES * FRAME
        eligible = [r for r, blocks in held.items() if len(blocks) > 2]
        rng.shuffle(eligible)
        cursor = 0
        while free_list_frames(allocator) * FRAME < target_free and eligible:
            region = eligible[cursor % len(eligible)]
            blocks = held[region]
            allocator.free(blocks.pop(int(rng.integers(0, len(blocks)))))
            if len(blocks) <= 2:
                eligible.remove(region)
            else:
                cursor += 1
    return held, consumed_state, rng


def free_lists(allocator):
    return [sorted(blocks) for blocks in allocator._free_lists]


def run_memhog(memory, fraction, seed):
    """``Memhog.run``, capturing its generator as the consume phase hands
    it to the free-back phase."""
    captured = []
    free_back = Memhog._free_back

    def spy(hog, rng):
        captured.append(rng.bit_generator.state)
        free_back(hog, rng)
        captured.append(rng)

    hog = Memhog(memory, fraction, seed=seed)
    with mock.patch.object(Memhog, "_free_back", spy):
        hog.run()
    return hog, captured


class TestMemhogBlockDraws:
    # Consuming, memory runs out on the 256th order drawn (7552 frames,
    # seed 4), the last of the first block, or on the 257th, the first
    # of the second (7936 frames, seed 0).  Freeing back, the target is
    # met by the 256th pick (11113 frames) or the 257th (11631 frames).
    @example(frames=7552, fraction=0.3, seed=4)
    @example(frames=7936, fraction=0.6, seed=0)
    @example(frames=11113, fraction=0.1, seed=5)
    @example(frames=11631, fraction=0.1, seed=5)
    @example(frames=16384, fraction=0.9, seed=42)
    @given(frames=st.integers(min_value=256, max_value=16384),
           fraction=st.floats(min_value=0.05, max_value=0.95),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_run_equals_per_allocation_draws(self, frames, fraction, seed):
        memory = PhysicalMemory(frames * FRAME)
        hog, (consumed_state, rng) = run_memhog(memory, fraction, seed)
        reference = PhysicalMemory(frames * FRAME)
        held, reference_consumed, reference_rng = reference_memhog(
            reference, fraction, seed)
        assert consumed_state == reference_consumed
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        assert hog._held == held
        assert list(hog._held) == list(held)
        assert (free_lists(memory.allocator)
                == free_lists(reference.allocator))
        assert memory.allocator._allocated == reference.allocator._allocated


#: one allocator operation: allocate an order, free or split the i-th
#: held block (modulo how many are held).
OPERATIONS = st.lists(
    st.one_of(st.tuples(st.just("allocate"), st.integers(0, 9)),
              st.tuples(st.just("free"), st.integers(0, 1000)),
              st.tuples(st.just("split"), st.integers(0, 1000))),
    min_size=1, max_size=80)


class TestBuddyFreeCount:
    @given(frames=st.integers(min_value=1, max_value=4096),
           operations=OPERATIONS)
    def test_running_count_equals_free_list_sum(self, frames, operations):
        buddy = BuddyAllocator(frames * FRAME)
        held = []
        for kind, argument in operations:
            if kind == "allocate":
                frame = buddy.try_allocate(argument)
                if frame is not None:
                    held.append(frame)
            elif held:
                frame = held.pop(argument % len(held))
                if kind == "free":
                    buddy.free(frame)
                else:
                    order = buddy._allocated[frame]
                    buddy.split_allocated(frame, order // 2)
                    held.extend(range(frame, frame + (1 << order),
                                      1 << (order // 2)))
            assert buddy.free_frames() == free_list_frames(buddy)
            assert 0 <= buddy.free_frames() <= buddy.total_frames
