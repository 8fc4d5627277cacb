"""Directory-based MOESI coherence over per-core L1 caches.

The directory tracks, per physical line, which cores hold a copy and which
(if any) owns it dirty.  CPU reads/writes consult the directory; only the
cores on the sharer list receive probes — "the coherence directory
eliminates many spurious L1 cache coherence lookups" (paper §VI-B).  Each
probe lands in the target L1 via its ``coherence_probe`` method, so SEESAW's
single-partition coherence lookup is exercised naturally and its energy
charged to the energy accountant the directory holds.
"""

from __future__ import annotations

from typing import Dict, List

from repro.devtools import sanitize as _sanitize

#: A directory entry's two slots: the bitmask of sharing cores (bit *c*
#: for core *c*), and the core holding the line M/O (dirty), or None.
SHARERS, OWNER = 0, 1


def _cores(mask: int) -> List[int]:
    """The cores of a sharer bitmask, in ascending order."""
    return [core for core in range(mask.bit_length()) if mask >> core & 1]


class Directory:
    """A full-map directory over ``caches`` (one L1 frontend per core).

    The caches need only expose ``coherence_probe(pa, invalidate=...)``;
    baseline VIPT, PIPT, and SEESAW L1s all qualify, so the same directory
    drives every design point.  Each delivered probe is charged to
    ``energy`` through ``record_l1_lookup(ways, coherence=True)``.
    """

    def __init__(self, caches: List, energy, line_size: int = 64,
                 sanitize: bool = False) -> None:
        self.caches = caches
        self.energy = energy
        self.line_size = line_size
        self._line_mask = ~(line_size - 1)
        #: line -> ``[sharer bitmask, owner]`` (see ``SHARERS``/``OWNER``).
        self._entries: Dict[int, list] = {}
        self._sanitize = bool(sanitize) or _sanitize.enabled()

    def _deliver_probe(self, core: int, line: int, invalidate: bool) -> None:
        result = self.caches[core].coherence_probe(line, invalidate=invalidate)
        self.energy.record_l1_lookup(result.ways_probed, coherence=True)

    # ------------------------------------------------------------------- API

    def cpu_read(self, core: int, physical_address: int) -> bool:
        """Core ``core`` reads a line it missed on. Returns True if another
        core held the only dirty copy (owner forward, faster than DRAM)."""
        line = physical_address & self._line_mask
        entry = self._entries.get(line)
        if entry is None:
            entry = self._entries[line] = [0, None]
        forwarded = False
        owner = entry[OWNER]
        if owner is not None and owner != core:
            # Dirty elsewhere: probe the owner, who transitions M->O / stays O
            # and forwards the data without a memory writeback.
            self._deliver_probe(owner, line, invalidate=False)
            forwarded = True
        entry[SHARERS] |= 1 << core
        if self._sanitize:
            _sanitize.check_coherence_entry(
                self.caches, line, _cores(entry[SHARERS]), owner,
                context="directory.cpu_read")
        return forwarded

    def cpu_write(self, core: int, physical_address: int) -> int:
        """Core ``core`` writes a line. Invalidates all other copies,
        probing the other sharers in ascending core order.

        Returns the number of invalidation probes sent.
        """
        line = physical_address & self._line_mask
        entry = self._entries.get(line)
        if entry is None:
            entry = self._entries[line] = [0, None]
        probes = 0
        sharers, owner = entry
        others, sharer = sharers & ~(1 << core), 0
        while others:
            if others & 1:
                self._deliver_probe(sharer, line, invalidate=True)
                probes += 1
            others >>= 1
            sharer += 1
        if owner is not None and owner != core \
                and not sharers >> owner & 1:
            self._deliver_probe(owner, line, invalidate=True)
            probes += 1
        entry[SHARERS] = 1 << core
        entry[OWNER] = core
        if self._sanitize:
            _sanitize.check_write_exclusivity(
                self.caches, line, core, context="directory.cpu_write")
        return probes

    def evict(self, core: int, physical_address: int) -> None:
        """A core evicted its copy (keeps the directory from over-probing)."""
        line = physical_address & self._line_mask
        entry = self._entries.get(line)
        if entry is None:
            return
        entry[SHARERS] &= ~(1 << core)
        if entry[OWNER] == core:
            entry[OWNER] = None
        if not entry[SHARERS] and entry[OWNER] is None:
            del self._entries[line]

    def sharer_count(self, physical_address: int) -> int:
        """Number of cores currently sharing the line."""
        entry = self._entries.get(physical_address & self._line_mask)
        return bin(entry[SHARERS]).count("1") if entry else 0
