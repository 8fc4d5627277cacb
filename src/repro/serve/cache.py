"""Content-addressed result cache for ``repro serve``.

Cells are keyed by the same config + trace SHA-256 digests the
checkpoint/journal layer already uses (:mod:`repro.resilience.checkpoint`),
so "the same simulation" means *bit-identical config and trace*, not
"similar-looking request".  Identical cells are served without
re-simulating — across requests, across clients, and (with a spool
directory) across server restarts.

Two tiers:

* an in-memory LRU bounded by ``capacity`` entries;
* an optional disk tier under ``<spool>/cache/``: one JSON file per
  key, published atomically and durably
  (:func:`repro.resilience.fsio.publish`) with an embedded payload
  checksum (:func:`repro.resilience.fsio.record_checksum`).  A corrupt
  or torn file is simply a miss — the cell re-simulates and the entry
  is rewritten; the cache never propagates bad bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional

from repro.resilience.fsio import publish, record_checksum

__all__ = ["ResultCache", "result_key"]


def result_key(config_digest: str, trace_digest: str) -> str:
    """SHA-256 over the config and trace digests — the cache address."""
    return hashlib.sha256(
        f"{config_digest}:{trace_digest}".encode("ascii")).hexdigest()


class ResultCache:
    """Thread-safe two-tier (memory LRU + optional disk) result cache."""

    def __init__(self, capacity: int = 256,
                 directory: Optional[os.PathLike] = None) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be > 0")
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: "OrderedDict[str, Dict]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.result.json"

    # ---------------------------------------------------------------- get/put

    def get(self, key: str) -> Optional[Dict]:
        """Return the cached result payload for ``key`` or None (a miss)."""
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return payload
        payload = self._disk_get(key)
        with self._lock:
            if payload is not None:
                self._remember(key, payload)
                self.hits += 1
            else:
                self.misses += 1
        return payload

    def put(self, key: str, payload: Dict) -> None:
        """Remember ``payload`` under ``key`` and publish it to disk,
        unless the memory tier already holds an equal payload: that one
        was read from or written to the disk tier already."""
        with self._lock:
            unchanged = self._memory.get(key) == payload
            self._remember(key, payload)
        if not unchanged:
            self._disk_put(key, payload)

    def _remember(self, key: str, payload: Dict) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)

    # ------------------------------------------------------------- disk tier

    def _disk_get(self, key: str) -> Optional[Dict]:
        if self.directory is None:
            return None
        try:
            raw = self._path(key).read_text(encoding="utf-8")
            entry = json.loads(raw)
            payload = entry["payload"]
            if entry.get("checksum") != record_checksum(payload):
                return None  # torn/corrupt entry: a miss, never bad bytes
            return payload
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def _disk_put(self, key: str, payload: Dict) -> None:
        if self.directory is None:
            return
        entry = {"key": key, "payload": payload,
                 "checksum": record_checksum(payload)}
        try:
            publish(self._path(key),
                    json.dumps(entry, sort_keys=True).encode("utf-8"))
        except OSError:
            # The cache is an accelerator, not a durability promise: disk
            # trouble degrades to re-simulation, it never fails a request.
            pass

    # --------------------------------------------------------------- stats

    def snapshot(self) -> Dict:
        with self._lock:
            out = {
                "capacity": self.capacity,
                "entries": len(self._memory),
                "hits": self.hits,
                "misses": self.misses,
            }
        if self.directory is not None:
            try:
                out["disk_entries"] = sum(
                    1 for _ in self.directory.glob("*.result.json"))
            except OSError:
                pass
        return out
