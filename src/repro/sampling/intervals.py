"""Trace profiling: fixed-size intervals and access-pattern signatures.

The profiler never runs the simulator — it reduces each interval of the
trace to a small feature vector (the *signature*) using vectorized
numpy over :meth:`MemoryTrace.columns`, so profiling cost is a tiny
fraction of one interval's simulation cost.

Signature contents (all order-invariant within the interval, so a
permutation of the interval's references produces the identical vector):

* 64-bin L1 set-index histogram (``(va >> 6) & 63``, normalized) — what
  the interval does to VIPT/SEESAW set pressure;
* page / superpage-region / line footprint per reference — 4KB, 2MB and
  64B working-set densities (the paper's Fig. 3 axes);
* write fraction;
* a reuse-frequency sketch: fraction of references to lines touched
  once, 2-3, 4-7, and 8+ times within the interval — a cheap stand-in
  for a reuse-distance profile that still separates streaming intervals
  from hot-loop intervals;
* the same sketch over 4KB pages — the TLB-pressure analogue (line
  reuse drives L1 behaviour, page reuse drives TLB behaviour, and the
  two diverge on strided or random patterns).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

__all__ = ["partition_intervals", "interval_signature", "profile_trace"]

#: Dimensionality of one signature vector (64 histogram bins + 12 scalars).
SIGNATURE_DIM = 76


def partition_intervals(total: int, interval_size: int,
                        start: int = 0) -> List[Tuple[int, int]]:
    """Split ``[start, total)`` into consecutive ``[lo, hi)`` intervals.

    Every index in the range is covered by exactly one interval; the
    last interval is short when the range is not a multiple of
    ``interval_size``.  Empty when ``start >= total``.
    """
    if interval_size <= 0:
        raise ValueError(
            f"interval_size must be positive, got {interval_size!r}")
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start!r}")
    return [(lo, min(lo + interval_size, total))
            for lo in range(start, total, interval_size)]


def interval_signature(addresses, writes) -> np.ndarray:
    """The feature vector of one interval's references: the one-interval
    case of :func:`_signature_matrix`.

    Accepts any address/write sequences (lists or arrays); empty
    intervals are rejected — the partitioner never produces them.
    """
    va = np.asarray(addresses, dtype=np.int64)
    if va.size == 0:
        raise ValueError("interval_signature: empty interval")
    return _signature_matrix(va, np.asarray(writes, dtype=bool),
                             [(0, va.size)])[0]


#: Reuse buckets: a key touched ``c`` times falls in bucket
#: ``searchsorted(_REUSE_EDGES, c, "right")`` — 1, 2-3, 4-7 or 8+.
_REUSE_EDGES = np.array([2, 4, 8])


def _runs(owner: np.ndarray, keys: np.ndarray, count: int):
    """Each interval's distinct ``keys``, as run lengths.

    ``owner`` is sorted (interval-major), so packing it above the keys'
    offsets and sorting once groups every interval's equal keys into
    runs.  Returns each run's interval and length.  Keys too wide to
    share 63 bits with the interval number are ranked first.
    """
    keys = keys - keys.min()
    width = int(keys.max()).bit_length()
    if width + (count - 1).bit_length() > 63:
        keys = np.unique(keys, return_inverse=True)[1].reshape(-1)
        width = int(keys.max()).bit_length()
    packed = np.sort((owner << width) | keys)
    starts = np.flatnonzero(np.concatenate(
        ([True], packed[1:] != packed[:-1])))
    lengths = np.diff(np.append(starts, packed.size))
    return packed[starts] >> width, lengths


def _signature_matrix(addresses: np.ndarray, writes: np.ndarray,
                      intervals: List[Tuple[int, int]]) -> np.ndarray:
    """Signature matrix (num_intervals x SIGNATURE_DIM) of the
    ``[lo, hi)`` ``intervals`` of the address and write columns, in one
    pass over all of their references.

    Counts per interval come from ``bincount`` over the interval number
    of each reference; distinct lines, pages and regions and their reuse
    buckets from one sort per feature (:func:`_runs`).  Every count is an
    exact integer, so each row equals the per-interval computation bit
    for bit.  Intervals must be non-empty.
    """
    bounds = np.array(intervals, dtype=np.int64).reshape(-1, 2)
    lengths = bounds[:, 1] - bounds[:, 0]
    if not lengths.size or lengths.min() <= 0:
        raise ValueError("profile_trace: empty interval")
    count = lengths.size
    owner = np.repeat(np.arange(count, dtype=np.int64), lengths)
    # Each reference's trace index: its interval's start plus its offset
    # into the interval.
    offsets = np.cumsum(lengths) - lengths
    index = np.arange(owner.size) + np.repeat(bounds[:, 0] - offsets,
                                              lengths)
    va = np.asarray(addresses, dtype=np.int64)[index]
    n = lengths.astype(np.float64)

    lines = va >> 6
    histogram = np.bincount(owner * 64 + (lines & 63),
                            minlength=64 * count).reshape(count, 64) \
        / n[:, None]
    line_owner, line_counts = _runs(owner, lines, count)
    page_owner, page_counts = _runs(owner, va >> 12, count)
    region_owner, _ = _runs(owner, va >> 21, count)
    written = np.bincount(
        owner, weights=np.asarray(writes, dtype=bool)[index], minlength=count)

    def distinct(run_owner):
        return np.bincount(run_owner, minlength=count)

    def reuse(run_owner, run_lengths):
        bucket = np.searchsorted(_REUSE_EDGES, run_lengths, side="right")
        return np.bincount(run_owner * 4 + bucket,
                           weights=run_lengths.astype(np.float64),
                           minlength=4 * count).reshape(count, 4)

    scalars = np.column_stack([
        distinct(page_owner), distinct(region_owner), distinct(line_owner),
        written, reuse(line_owner, line_counts),
        reuse(page_owner, page_counts)]) / n[:, None]
    return np.concatenate([histogram, scalars], axis=1)


def profile_trace(trace, intervals: List[Tuple[int, int]]) -> np.ndarray:
    """Signature matrix (num_intervals x SIGNATURE_DIM) for ``trace``."""
    addresses, writes = trace.columns()
    return _signature_matrix(addresses, writes, intervals)
