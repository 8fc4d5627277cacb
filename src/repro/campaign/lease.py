"""Crash-safe lease files: how campaign shards claim cells.

Shards coordinate through the shared campaign directory alone — no
server, no sockets — so the mutual-exclusion primitive has to be built
from what every POSIX filesystem gives us:

* **claim** — an exclusive create (``O_CREAT|O_EXCL``, see
  :mod:`repro.resilience.fsio`) makes ``leases/<cell>.lease``
  atomically; exactly one shard wins a free cell.  The lease body
  records the owner, its acquisition wall-clock time, an expiry
  timestamp, and the *claim generation* (``attempt``): how many shards,
  this one included, have held the cell.
* **renew** — the owner heartbeats by atomically publishing the lease
  with a pushed-out expiry.  A shard that stops heartbeating — SIGKILL,
  a wedged loop, a network partition from the shared directory — stops
  renewing, and its leases age out.
* **steal** — an expired lease is reclaimed by *renaming* it to a
  per-claimant unique name.  ``os.rename`` succeeds for exactly one
  racing claimant (the losers get ENOENT), so reclaim needs no lock of
  its own; the winner then publishes the lease with ``attempt + 1``.

Expiry uses wall-clock time (``time.time()``) because it must compare
across processes and hosts; a lease is expired once ``now >=
expires_at`` — the boundary instant itself counts as expired, which the
lease-expiry boundary test pins.

The chaos layer hooks the claim path: ``stale-lock@N`` plants an
already-expired phantom lease in front of the N-th claim (forcing it
through the steal path), and ``lease-steal@N`` backdates the N-th
acquired lease and suppresses its renewal (so another shard reclaims
the cell while this one still runs it — the duplicate-record drill).
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.resilience import chaos
from repro.resilience.errors import CampaignError
from repro.resilience.fsio import create_exclusive, jsonl, publish

#: Default lease lifetime; renewals push expiry this far out again.
DEFAULT_LEASE_TTL_S = 15.0

#: Owner name written on chaos-planted stale locks.
PHANTOM_OWNER = "phantom-crashed-shard"


@dataclass
class Lease:
    """One held (or observed) lease."""

    cell_id: str
    owner: str
    acquired_at: float
    expires_at: float
    #: claim generation: 1 for the first claimant, +1 per steal.
    attempt: int
    #: chaos lease-steal armed this lease: never renew it.
    no_renew: bool = False

    def expired(self, now: Optional[float] = None) -> bool:
        """True once the expiry instant is reached (boundary inclusive)."""
        return (time.time() if now is None else now) >= self.expires_at

    def to_dict(self) -> dict:
        return {"cell": self.cell_id, "owner": self.owner,
                "acquired_at": self.acquired_at,
                "expires_at": self.expires_at, "attempt": self.attempt}


class LeaseDir:
    """The ``leases/`` directory of one campaign."""

    def __init__(self, root, ttl_s: float = DEFAULT_LEASE_TTL_S) -> None:
        if ttl_s <= 0:
            raise CampaignError(f"lease ttl must be positive, got {ttl_s!r}")
        self.root = Path(root)
        self.ttl_s = ttl_s
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, cell_id: str) -> Path:
        return self.root / f"{cell_id}.lease"

    # ----------------------------------------------------------- primitives

    def _load(self, path: Path) -> Optional[Lease]:
        """Read a lease file; None when missing or torn (a torn lease is
        treated as expired-with-attempt-0 by the caller via steal)."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            return Lease(cell_id=payload["cell"], owner=payload["owner"],
                         acquired_at=float(payload["acquired_at"]),
                         expires_at=float(payload["expires_at"]),
                         attempt=int(payload["attempt"]))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # A lease torn by a crash mid-write: claimable immediately —
            # whoever wrote it never completed its claim.
            return Lease(cell_id=path.stem, owner="", acquired_at=0.0,
                         expires_at=0.0, attempt=0)

    def peek(self, cell_id: str) -> Optional[Lease]:
        """The current lease on a cell, if any (no side effects)."""
        return self._load(self._path(cell_id))

    def plant_stale(self, cell_id: str,
                    owner: str = PHANTOM_OWNER) -> bool:
        """Plant an already-expired lease (chaos's stale-lock injection,
        also handy in tests); False when a lease already exists."""
        now = time.time()
        stale = Lease(cell_id=cell_id, owner=owner,
                      acquired_at=now - 2 * self.ttl_s,
                      expires_at=now - self.ttl_s, attempt=1)
        return create_exclusive(self._path(cell_id), jsonl([stale.to_dict()]))

    # ---------------------------------------------------------------- claim

    def claim(self, cell_id: str, owner: str) -> Optional[Lease]:
        """Try to claim ``cell_id`` for ``owner``.

        Returns the held :class:`Lease` (fresh claim or steal of an
        expired one), or None when another live owner holds the cell.
        Re-claiming a cell this owner already holds renews and returns
        it (crash-restart idempotence).
        """
        path = self._path(cell_id)
        fault = chaos.lease_fault()
        if fault == "stale-lock":
            self.plant_stale(cell_id)
        now = time.time()
        lease = Lease(cell_id=cell_id, owner=owner, acquired_at=now,
                      expires_at=now + self.ttl_s, attempt=1)
        if not create_exclusive(path, jsonl([lease.to_dict()])):
            existing = self._load(path)
            if existing is None:
                # Released between our O_EXCL failure and the read: the
                # next claim round gets it; don't spin here.
                return None
            if existing.owner == owner:
                lease.attempt = existing.attempt
                publish(path, jsonl([lease.to_dict()]))
            elif existing.expired(now):
                stolen = self._steal(path, owner)
                if stolen is None:
                    return None
                lease = stolen
            else:
                return None
        if fault == "lease-steal":
            # Simulated partition: backdate our own lease so any other
            # shard sees it expired, and never renew it.  We keep
            # executing — the reclaimer's duplicate record is resolved
            # deterministically at merge.
            lease.expires_at = now - 1.0
            lease.no_renew = True
            publish(path, jsonl([lease.to_dict()]))
        return lease

    def _steal(self, path: Path, owner: str) -> Optional[Lease]:
        """Reclaim an expired lease; exactly one racing claimant wins."""
        tomb = path.with_name(
            f"{path.name}.steal.{owner}.{uuid.uuid4().hex[:8]}")
        try:
            os.rename(path, tomb)
        except FileNotFoundError:
            return None  # another claimant renamed first
        try:
            previous = self._load(tomb)
            prior_attempts = previous.attempt if previous is not None else 0
        finally:
            try:
                tomb.unlink()
            except FileNotFoundError:
                pass
        now = time.time()
        lease = Lease(cell_id=path.stem, owner=owner, acquired_at=now,
                      expires_at=now + self.ttl_s,
                      attempt=prior_attempts + 1)
        # Replace, not create: a fresh claim made while the lease was
        # renamed away must not reset the claim generation to 1.
        publish(path, jsonl([lease.to_dict()]))
        return lease

    # ------------------------------------------------------------ ownership

    def renew(self, lease: Lease) -> bool:
        """Push the expiry out another TTL; False when the lease was
        stolen (another owner's file is in place) or chaos pinned it."""
        if lease.no_renew:
            return False
        path = self._path(lease.cell_id)
        current = self._load(path)
        if current is None or current.owner != lease.owner:
            return False
        lease.expires_at = time.time() + self.ttl_s
        publish(path, jsonl([lease.to_dict()]))
        return True

    def release(self, lease: Lease) -> None:
        """Drop the lease (only if still ours — a thief's lease stays)."""
        path = self._path(lease.cell_id)
        current = self._load(path)
        if current is not None and current.owner == lease.owner:
            try:
                path.unlink()
            except FileNotFoundError:
                pass


__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "PHANTOM_OWNER",
    "Lease",
    "LeaseDir",
]
