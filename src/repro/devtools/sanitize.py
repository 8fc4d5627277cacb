"""Runtime invariant sanitizer for the SEESAW simulator.

Enable with ``REPRO_SANITIZE=1`` in the environment or
``SystemConfig(sanitize=True)``.  When enabled, cheap cross-checks run at
the simulator's trust boundaries:

* **coherence** — at most one dirty copy of a line; every L1 holding a
  line is on the directory's sharer list; a write transaction leaves the
  writer as the only holder; every SEESAW line sits in the partition its
  physical address names;
* **VIPT indexing** — virtual and physical set index agree (the VIPT
  constraint), and for superpage accesses the partition index agrees
  (SEESAW's enabling observation);
* **TLB** — every translation the hierarchy returns matches a direct
  page-table walk (no stale TLB entries after shootdowns);
* **results** — ``l1_hits + l1_misses == memory_references``, the energy
  breakdown sums to its total, and every fraction lands in [0, 1].

Violations raise :class:`SanitizerError` (an :class:`AssertionError`
subclass) rather than corrupting figures silently.  The checks are
designed to be non-perturbing: they never touch replacement state,
statistics, or energy accounting.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, List, Optional

#: Environment variable that switches the sanitizer on.
ENV_VAR = "REPRO_SANITIZE"

_FALSEY = ("", "0", "false", "no", "off")

#: Programmatic override (None = follow the environment).
_override: Optional[bool] = None


class SanitizerError(AssertionError):
    """An invariant the simulator relies on was violated."""


# --------------------------------------------------------------- activation

def enabled() -> bool:
    """True when sanitizer checks should run."""
    if _override is not None:
        return _override
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSEY


def enable(on: bool = True) -> None:
    """Programmatically force the sanitizer on (or off with ``on=False``)."""
    global _override
    _override = on


def reset() -> None:
    """Drop any programmatic override; fall back to the environment."""
    global _override
    _override = None


def check(condition: bool, message: str) -> None:
    """Raise :class:`SanitizerError` with ``message`` unless ``condition``."""
    if not condition:
        raise SanitizerError(message)


# -------------------------------------------------------------- coherence

def _searchable(cache) -> bool:
    """L1s whose store can be probed by physical address.

    Virtually-indexed designs (VIVT) advertise ``physically_indexed =
    False`` and are skipped: their store cannot be searched by PA without
    replaying the synonym bookkeeping the probe itself maintains.
    """
    return (getattr(cache, "store", None) is not None
            and getattr(cache, "physically_indexed", True))


def holders(caches: Iterable, line_address: int) -> List[int]:
    """Core IDs whose (physically searchable) L1 holds ``line_address``."""
    found = []
    for core, cache in enumerate(caches):
        if _searchable(cache) and \
                cache.store.locate(line_address) is not None:
            found.append(core)
    return found


def dirty_holders(caches: Iterable, line_address: int) -> List[int]:
    """Core IDs holding a *dirty* copy of ``line_address``."""
    found = []
    for core, cache in enumerate(caches):
        if not _searchable(cache):
            continue
        located = cache.store.locate(line_address)
        if located is not None and located[0].dirty[located[1]]:
            found.append(core)
    return found


def check_coherence_entry(caches: Iterable, line_address: int,
                          sharers: Iterable[int], owner: Optional[int],
                          context: str) -> None:
    """Directory-entry consistency after a read transaction.

    * every core holding the line is tracked as a sharer (or is the
      owner) — the directory may over-approximate but never miss a
      holder, else invalidations would skip a live copy;
    * at most one core holds the line dirty.
    """
    tracked = set(sharers)
    if owner is not None:
        tracked.add(owner)
    holding = holders(caches, line_address)
    untracked = [core for core in holding if core not in tracked]
    check(not untracked,
          f"{context}: line {line_address:#x} held by core(s) {untracked} "
          f"unknown to the directory (sharers={sorted(tracked)})")
    dirty = dirty_holders(caches, line_address)
    check(len(dirty) <= 1,
          f"{context}: line {line_address:#x} dirty in multiple L1s "
          f"{dirty} — single-writer invariant broken")


def check_write_exclusivity(caches: Iterable, line_address: int,
                            writer: int, context: str) -> None:
    """After a write transaction, no other L1 may still hold the line."""
    stale = [core for core in holders(caches, line_address)
             if core != writer]
    check(not stale,
          f"{context}: write by core {writer} left stale copies of line "
          f"{line_address:#x} in core(s) {stale}")


# ----------------------------------------------------------- VIPT indexing

def check_vipt_index(store, virtual_address: int, physical_address: int,
                     name: str) -> None:
    """The VIPT constraint: VA and PA select the same set."""
    v_index = store.set_index(virtual_address)
    p_index = store.set_index(physical_address)
    check(v_index == p_index,
          f"{name}: virtual set index {v_index} != physical set index "
          f"{p_index} for va={virtual_address:#x} pa={physical_address:#x} "
          f"— the VIPT constraint is broken")


def check_partition_consistency(partitioning, virtual_address: int,
                                physical_address: int, page_size,
                                name: str) -> None:
    """SEESAW's enabling observation: when the partition-index bits sit
    inside the page offset, VA and PA name the same partition."""
    if not partitioning.index_bits_within_page(page_size):
        return
    v_part = partitioning.partition_of(virtual_address)
    p_part = partitioning.partition_of(physical_address)
    check(v_part == p_part,
          f"{name}: virtual partition {v_part} != physical partition "
          f"{p_part} for a {page_size.name} access "
          f"(va={virtual_address:#x} pa={physical_address:#x})")


def check_partition_residency(cache) -> None:
    """Every valid line sits in the partition its physical address names.

    Under the ``4way`` insertion policy this is the structural invariant
    behind SEESAW's single-partition coherence probes (paper §IV-C1): a
    line outside its PA's partition would be invisible to probes and to
    TFT-hit lookups.  Skipped for insertion policies that allow lines
    anywhere in the set.
    """
    insertion = getattr(cache, "insertion", None)
    if insertion is None or not insertion.coherence_probes_single_partition:
        return
    partitioning = cache.partitioning
    for set_index, way, line_address in cache.store.iter_valid_lines():
        expected = partitioning.partition_of(line_address)
        actual = partitioning.partition_of_way(way)
        check(actual == expected,
              f"{cache.name}: line {line_address:#x} resident in "
              f"partition {actual} (set {set_index}, way {way}) but its "
              f"physical address names partition {expected} — the "
              f"partition map is desynchronized")


# ------------------------------------------------------------ translation

def check_translation(page_table, virtual_address: int,
                      translated_address: int, level: str) -> None:
    """A TLB-served translation must match a direct page-table walk."""
    from repro.mem.page_table import TranslationFault
    try:
        expected = page_table.translate(virtual_address)
    except TranslationFault:
        raise SanitizerError(
            f"TLB ({level}) returned pa={translated_address:#x} for "
            f"va={virtual_address:#x} but the page table no longer maps "
            f"it — stale TLB entry survived an unmap") from None
    check(translated_address == expected,
          f"TLB ({level}) returned pa={translated_address:#x} for "
          f"va={virtual_address:#x} but the page table says "
          f"pa={expected:#x} — stale TLB entry survived a shootdown")


# ----------------------------------------------------------------- results

def check_energy(breakdown) -> None:
    """Every component is a finite non-negative nJ value and the
    component sum equals the reported total."""
    components = breakdown.as_dict()
    for name, value in components.items():
        check(math.isfinite(value) and value >= 0.0,
              f"energy component {name!r} is {value!r}")
    total = sum(components.values())
    check(math.isclose(total, breakdown.total_nj,
                       rel_tol=1e-9, abs_tol=1e-9),
          f"energy breakdown sums to {total} nJ but total_nj reports "
          f"{breakdown.total_nj} nJ")


def _check_fraction(value: Optional[float], name: str) -> None:
    if value is None:
        return
    check(0.0 <= value <= 1.0, f"{name} = {value} is outside [0, 1]")


def validate_result(result) -> None:
    """Cross-check a finished :class:`~repro.sim.stats.SimulationResult`."""
    for name in ("runtime_cycles", "instructions", "l1_hits", "l1_misses",
                 "l1_ways_probed", "memory_references", "superpage_accesses",
                 "fast_hits", "squashes", "coherence_probes",
                 "coherence_ways_probed"):
        value = getattr(result, name)
        check(value >= 0, f"result counter {name} = {value} is negative")
    accesses = result.l1_hits + result.l1_misses
    check(accesses == result.memory_references,
          f"l1_hits ({result.l1_hits}) + l1_misses ({result.l1_misses}) "
          f"= {accesses} != memory_references ({result.memory_references}) "
          f"— a reference was double-counted or dropped")
    check(result.fast_hits <= result.l1_hits,
          f"fast_hits ({result.fast_hits}) exceeds l1_hits "
          f"({result.l1_hits})")
    missed = (result.tft_missed_superpage_l1_hits
              + result.tft_missed_superpage_l1_misses)
    check(missed <= result.superpage_accesses or not result.superpage_accesses,
          f"TFT-missed superpage accesses ({missed}) exceed superpage "
          f"accesses ({result.superpage_accesses})")
    for name in ("superpage_reference_fraction",
                 "footprint_superpage_fraction", "tft_hit_rate",
                 "tft_missed_superpage_fraction"):
        _check_fraction(getattr(result, name), name)
    _check_fraction(result.way_prediction_accuracy,
                    "way_prediction_accuracy")
    check_energy(result.energy)
