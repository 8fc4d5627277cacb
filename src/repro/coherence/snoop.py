"""Snoopy-bus MOESI coherence.

Every coherence transaction is broadcast: all other cores' L1s are probed
on every miss and every write-upgrade, with no sharer filtering.  Compared
to the directory this multiplies L1 coherence lookups — which is exactly
why the paper found SEESAW's energy savings grow "by an additional 2-5%"
under snooping (§VI-B): each broadcast probe pays the full set cost in the
baseline but only one partition under SEESAW.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.devtools import sanitize as _sanitize


class SnoopyBus:
    """Broadcast fabric over per-core L1 frontends; each delivered probe is
    charged to ``energy`` as the directory's are."""

    def __init__(self, caches: List, energy, line_size: int = 64,
                 sanitize: bool = False) -> None:
        self.caches = caches
        self.energy = energy
        self.line_size = line_size
        self._sanitize = bool(sanitize) or _sanitize.enabled()
        # A snoop filter: minimal sharer tracking so write *hits* know
        # whether an upgrade broadcast is needed.  Probe delivery itself
        # remains broadcast — the energy difference vs the directory.
        self._sharers: Dict[int, Set[int]] = {}

    def _line(self, physical_address: int) -> int:
        return physical_address & ~(self.line_size - 1)

    def _broadcast(self, requester: int, line: int, invalidate: bool) -> int:
        """Probe every other core's L1; returns how many held the line."""
        remote_hits = 0
        for core, cache in enumerate(self.caches):
            if core == requester:
                continue
            result = cache.coherence_probe(line, invalidate=invalidate)
            if result.present:
                remote_hits += 1
            self.energy.record_l1_lookup(result.ways_probed, coherence=True)
        return remote_hits

    # ------------------------------------------------------------------- API

    def cpu_read(self, core: int, physical_address: int) -> bool:
        """Broadcast a read miss; True if any remote cache held the line."""
        line = self._line(physical_address)
        self._sharers.setdefault(line, set()).add(core)
        hit_remote = self._broadcast(core, line, invalidate=False) > 0
        if self._sanitize:
            # The snoop filter over-approximates sharers, so only the
            # single-writer invariant is checkable here.
            dirty = _sanitize.dirty_holders(self.caches, line)
            _sanitize.check(
                len(dirty) <= 1,
                f"snoop.cpu_read: line {line:#x} dirty in multiple L1s "
                f"{dirty}")
        return hit_remote

    def cpu_write(self, core: int, physical_address: int) -> int:
        """Broadcast an invalidating write; returns probes delivered."""
        line = self._line(physical_address)
        self._broadcast(core, line, invalidate=True)
        self._sharers[line] = {core}
        if self._sanitize:
            _sanitize.check_write_exclusivity(
                self.caches, line, core, context="snoop.cpu_write")
        return len(self.caches) - 1

    def sharer_count(self, physical_address: int) -> int:
        """Sharers per the snoop filter (write-upgrade decisions only)."""
        sharers = self._sharers.get(self._line(physical_address))
        return len(sharers) if sharers else 0

    def evict(self, core: int, physical_address: int) -> None:
        """Evictions are silent on a snoopy bus (the filter stays stale,
        which only causes extra broadcasts — never missed ones)."""
        sharers = self._sharers.get(self._line(physical_address))
        if sharers is not None:
            sharers.discard(core)
