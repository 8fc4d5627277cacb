"""True LRU's final state, computed in one vectorised pass.

Every set-associative structure in the modelled machine is true LRU (the
L1's 4way insertion is "LRU from the particular partition", §IV-B1).  A
cache set keeps its recency list itself (:class:`repro.cache.basic.CacheSet`);
this module holds the bulk primitive that the LLC prewarm and the sampled
lane's translation warmer use to skip a replay.
"""

from __future__ import annotations

import numpy as np


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
    _, set_first, set_of = np.unique(set_index, return_index=True,
                                     return_inverse=True)
    group = set_first[set_of[last]]
    order = np.lexsort((last, group))
    distinct, group = distinct[order], group[order]
    _, starts, sizes = np.unique(group, return_index=True,
                                 return_counts=True)
    count = np.repeat(sizes, sizes)
    rank = np.arange(group.size) - np.repeat(starts, sizes)
    keep = rank >= count - ways
    return distinct[keep], rank[keep], count[keep]
