"""Replacement policies for set-associative structures.

The paper's caches use LRU (true LRU at L1; the 4way insertion policy is
"LRU from the particular partition", §IV-B1).  Tree-PLRU and random are
provided for ablations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np


class ReplacementPolicy:
    """Per-set replacement state machine.

    One policy instance manages one set of ``ways`` ways.  ``touch`` records
    a use; ``victim`` picks a way to evict from ``candidates`` (a subset of
    ways — this is how partition-local replacement is expressed).
    """

    def __init__(self, ways: int) -> None:
        self.ways = ways

    def touch(self, way: int) -> None:
        """Record a use (hit or fill) of ``way``."""
        raise NotImplementedError

    def victim(self, candidates: Sequence[int]) -> int:
        """Choose the way to evict among ``candidates``."""
        raise NotImplementedError


class LRUPolicy(ReplacementPolicy):
    """True LRU via a recency list (most recent last)."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._order: List[int] = list(range(ways))

    def touch(self, way: int) -> None:
        self._order.remove(way)
        self._order.append(way)

    def victim(self, candidates: Sequence[int]) -> int:
        candidate_set = set(candidates)
        for way in self._order:
            if way in candidate_set:
                return way
        raise ValueError("no candidates supplied")

    def recency_order(self) -> List[int]:
        """Ways ordered least- to most-recently used (for tests/predictors)."""
        return list(self._order)


def lru_final_state(keys, set_index, ways: int):
    """True LRU's final state after touching ``keys`` in order.

    ``set_index[i]`` is the set of ``keys[i]``.  Returns numpy arrays
    ``(survivors, rank, count)``: each set's last ``ways`` distinct keys,
    sets in first-touch order and least-recent first within a set; each
    survivor's rank among its set's distinct keys; its set's key count.
    """
    keys, set_index = np.asarray(keys), np.asarray(set_index)
    # First occurrence in the reversed stream is the last touch.
    distinct, reversed_first = np.unique(keys[::-1], return_index=True)
    last = keys.size - 1 - reversed_first
    set_ids, set_first = np.unique(set_index, return_index=True)
    group = set_first[np.searchsorted(set_ids, set_index[last])]
    order = np.lexsort((last, group))
    distinct, group = distinct[order], group[order]
    _, starts, sizes = np.unique(group, return_index=True,
                                 return_counts=True)
    count = np.repeat(sizes, sizes)
    rank = np.arange(group.size) - np.repeat(starts, sizes)
    keep = rank >= count - ways
    return distinct[keep], rank[keep], count[keep]


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU (binary decision tree), as found in real L1s.

    Requires ``ways`` to be a power of two.  ``victim`` restricted to a
    candidate subset falls back to following the tree and picking the
    deepest candidate on the victim path, then the first candidate.
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        if ways & (ways - 1):
            raise ValueError("tree PLRU requires power-of-two ways")
        self._bits = [False] * max(ways - 1, 1)

    def touch(self, way: int) -> None:
        node = 0
        low, high = 0, self.ways
        while high - low > 1:
            mid = (low + high) // 2
            went_right = way >= mid
            # Point the bit *away* from the touched side.
            self._bits[node] = not went_right
            node = 2 * node + (2 if went_right else 1)
            if went_right:
                low = mid
            else:
                high = mid

    def _tree_victim(self) -> int:
        node = 0
        low, high = 0, self.ways
        while high - low > 1:
            mid = (low + high) // 2
            go_right = self._bits[node]
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                low = mid
            else:
                high = mid
        return low

    def victim(self, candidates: Sequence[int]) -> int:
        preferred = self._tree_victim()
        if preferred in candidates:
            return preferred
        if not candidates:
            raise ValueError("no candidates supplied")
        return candidates[0]


class RandomPolicy(ReplacementPolicy):
    """Uniform random replacement (seeded for reproducibility).

    Pass ``rng`` to draw victims from a shared
    :class:`numpy.random.Generator` instead of a per-policy stream.
    """

    def __init__(self, ways: int, seed: int = 0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(ways)
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    def touch(self, way: int) -> None:  # random replacement keeps no state
        pass

    def victim(self, candidates: Sequence[int]) -> int:
        if not candidates:
            raise ValueError("no candidates supplied")
        return int(candidates[int(self._rng.integers(0, len(candidates)))])


def make_policy(name: str, ways: int, seed: int = 0,
                rng: Optional[np.random.Generator] = None) -> ReplacementPolicy:
    """Factory: ``lru`` | ``plru`` | ``random``.

    ``rng`` (optional) is a shared generator handed to stochastic policies;
    deterministic policies ignore it.
    """
    if name == "lru":
        return LRUPolicy(ways)
    if name == "plru":
        return TreePLRUPolicy(ways)
    if name == "random":
        return RandomPolicy(ways, seed=seed, rng=rng)
    raise ValueError(f"unknown replacement policy: {name!r}")
