"""Shard workers: claim cells by lease, execute, journal, settle.

``run_shard`` is the body of ``repro campaign worker`` — N of them run
as independent processes (or hosts) sharing nothing but the campaign
directory.  Coordination state on disk:

* ``leases/<cell>.lease`` — who is executing a cell right now (see
  :mod:`repro.campaign.lease`);
* ``settled/<cell>.json`` — the cell has a journaled outcome somewhere;
  created ``O_EXCL`` after the record lands, so "is work left?" is one
  directory listing instead of a scan of every shard journal;
* ``shards/<shard>.journal`` — this shard's outcome records.

The claim loop walks the grid in spec order, skipping settled cells and
cells under a live lease.  A shard that dies mid-cell (SIGKILL, wedge,
partition) stops renewing its lease; once it expires, a survivor steals
it and re-runs the cell.  Steals are bounded by the claim-generation
budget ``1 + max_retries``: a cell whose claimants keep dying degrades
into a journaled :class:`~repro.resilience.runner.FailedCell` with full
shard/attempt provenance instead of wedging the campaign forever.

Two crash windows are reconciled at startup: a record appended but not
settled (the marker is re-created from the journal), and a lease held by
this shard's previous life (re-claiming our own lease renews it).  When
nothing is claimable but unsettled cells remain, the shard waits — other
live shards may settle them, or their leases may expire — and gives up
only after ``stall_timeout_s`` without observable progress, returning an
incomplete report (the campaign is resumable: exit code 4).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.campaign.journal import CampaignShardJournal, shard_journal_path
from repro.campaign.lease import DEFAULT_LEASE_TTL_S, Lease, LeaseDir
from repro.campaign.spec import CampaignCell, CampaignSpec, load_spec
from repro.resilience import chaos
from repro.resilience.errors import CampaignError, JournalWriteError
from repro.resilience.fsio import fsync_parent_dir
from repro.resilience.runner import (
    FailedCell,
    _CellTask,
    _ParallelDispatcher,
    retry_rng_for,
)

#: Error class journaled when a cell's claimants keep dying.
RECLAIM_EXHAUSTED = "ReclaimBudgetExhausted"


@dataclass
class ShardReport:
    """What one shard worker did (and how the campaign looked when it
    stopped)."""

    shard_id: str
    cells_total: int
    executed: int = 0
    #: cells this shard took over after another claimant's lease expired.
    reclaimed: int = 0
    failed: int = 0
    settled_total: int = 0
    #: False when the shard gave up with unsettled cells (stall timeout
    #: or a journal write pause) — the campaign is resumable.
    complete: bool = False
    pause_reason: str = ""
    failures: List[FailedCell] = field(default_factory=list)

    def as_dict(self) -> Dict:
        return {
            "shard": self.shard_id,
            "cells_total": self.cells_total,
            "executed": self.executed,
            "reclaimed": self.reclaimed,
            "failed": self.failed,
            "settled_total": self.settled_total,
            "complete": self.complete,
            "pause_reason": self.pause_reason,
            "failures": [failure.as_dict() for failure in self.failures],
        }


def settled_dir(campaign_dir) -> Path:
    return Path(campaign_dir) / "settled"


def leases_dir(campaign_dir) -> Path:
    return Path(campaign_dir) / "leases"


def _settle(campaign_dir, cell_id: str, outcome: str, shard_id: str,
            attempt: int) -> bool:
    """Create the settled marker for a cell (O_EXCL — first writer wins;
    a duplicate outcome from a presumed-dead shard is a no-op here and
    resolved at merge)."""
    directory = settled_dir(campaign_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{cell_id}.json"
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    try:
        payload = {"cell": cell_id, "type": outcome, "shard": shard_id,
                   "attempt": attempt}
        os.write(fd, (json.dumps(payload, sort_keys=True) + "\n")
                 .encode("utf-8"))
        os.fsync(fd)
    finally:
        os.close(fd)
    fsync_parent_dir(path)
    return True


def _settled_cells(campaign_dir) -> Dict[str, Dict]:
    """``{cell_id: marker payload}`` for every settled cell."""
    directory = settled_dir(campaign_dir)
    if not directory.exists():
        return {}
    settled: Dict[str, Dict] = {}
    for path in directory.glob("*.json"):
        try:
            settled[path.stem] = json.loads(
                path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            # A torn marker still proves the settle was attempted after
            # the record landed; treat the cell as settled.
            settled[path.stem] = {"cell": path.stem, "type": "unknown"}
    return settled


class _Heartbeat:
    """Daemon thread renewing one lease while its cell executes."""

    def __init__(self, leases: LeaseDir, lease: Lease,
                 period_s: float) -> None:
        self._leases = leases
        self._lease = lease
        self._period_s = period_s
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._period_s):
            if not self._leases.renew(self._lease):
                self.lost = True
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join(timeout=2 * self._period_s + 1)


def _reconcile(campaign_dir, journal: CampaignShardJournal,
               shard_id: str) -> None:
    """Startup repair of the record-appended-but-not-settled crash
    window: every cell in our own journal gets its settled marker."""
    if not journal.exists():
        return
    _header, records, _corrupt = journal.salvage()
    for cell_id, record in records.items():
        _settle(campaign_dir, cell_id, record.get("type", "done"),
                shard_id, int(record.get("attempt", 1)))


def run_shard(campaign_dir, shard_id: str, *,
              ttl_s: float = DEFAULT_LEASE_TTL_S,
              heartbeat_s: Optional[float] = None,
              timeout_s: Optional[float] = None,
              max_retries: int = 1,
              retry_backoff_s: float = 0.25,
              isolate: bool = False,
              stall_timeout_s: Optional[float] = None,
              poll_s: Optional[float] = None) -> ShardReport:
    """Run one shard worker until the campaign settles or progress stalls.

    ``max_retries`` bounds two nested budgets the same way the sweep
    engine does: transient failures *within* a claim (timeout/crash of
    the cell itself) retry up to ``max_retries`` times inside the sweep
    engine's dispatcher, and *claim generations* (a claimant dying with
    the lease) are bounded at ``1 + max_retries`` before the cell
    degrades to a journaled failure.
    """
    campaign_dir = Path(campaign_dir)
    spec = load_spec(campaign_dir)
    cells = spec.cells()
    if heartbeat_s is None:
        heartbeat_s = max(ttl_s / 3.0, 0.05)
    if stall_timeout_s is None:
        stall_timeout_s = max(4.0 * ttl_s, 20.0)
    if poll_s is None:
        poll_s = min(max(ttl_s / 10.0, 0.05), 1.0)
    max_claims = 1 + max_retries
    leases = LeaseDir(leases_dir(campaign_dir), ttl_s=ttl_s)
    journal = CampaignShardJournal(shard_journal_path(campaign_dir,
                                                      shard_id))
    if journal.exists():
        header, _records, _corrupt = journal.salvage()
        if header is not None \
                and header.get("spec_digest") != spec.digest():
            raise CampaignError(
                f"{journal.path}: shard journal belongs to a different "
                f"campaign (spec digest "
                f"{str(header.get('spec_digest'))[:12]}... != "
                f"{spec.digest()[:12]}...); use a fresh shard id or "
                f"campaign directory")
    else:
        journal.write_campaign_header(spec, shard_id)
    _reconcile(campaign_dir, journal, shard_id)

    report = ShardReport(shard_id=shard_id, cells_total=len(cells))
    rng = retry_rng_for(spec.seed)
    last_progress = time.monotonic()
    while True:
        settled = _settled_cells(campaign_dir)
        if len(settled) >= len(cells):
            report.complete = True
            break
        progressed = False
        for cell in cells:
            if cell.cell_id in settled:
                continue
            lease = leases.claim(cell.cell_id, shard_id)
            if lease is None:
                continue
            if lease.attempt > max_claims:
                failure = _reclaim_exhausted(spec, cell, shard_id,
                                             lease.attempt)
                outcome = _journal_outcome(journal, campaign_dir, spec,
                                           cell, shard_id, lease, None,
                                           failure, report)
                leases.release(lease)
                if not outcome:
                    # Journal paused (write fault / disk guard): stop
                    # cleanly; the campaign is resumable.
                    report.settled_total = len(_settled_cells(campaign_dir))
                    return report
                progressed = True
                continue
            if lease.attempt > 1:
                report.reclaimed += 1
            if chaos.shard_kill_due():
                # The canonical died-mid-campaign drill: drop dead with
                # the lease held and the journal mid-story.
                os.kill(os.getpid(), signal.SIGKILL)
            result, failure = _execute_cell(spec, cell, leases, lease,
                                            heartbeat_s, timeout_s,
                                            max_retries, retry_backoff_s,
                                            isolate, rng, shard_id)
            report.executed += 1
            outcome = _journal_outcome(journal, campaign_dir, spec, cell,
                                       shard_id, lease, result, failure,
                                       report)
            leases.release(lease)
            if not outcome:
                report.settled_total = len(_settled_cells(campaign_dir))
                return report
            progressed = True
            settled = _settled_cells(campaign_dir)
        if progressed:
            last_progress = time.monotonic()
            continue
        # Nothing claimable: other shards hold live leases, or every
        # remaining lease has yet to expire.  Wait for settles or expiry.
        if time.monotonic() - last_progress > stall_timeout_s:
            report.pause_reason = (
                f"no progress for {stall_timeout_s:g}s with "
                f"{len(cells) - len(settled)} cell(s) unsettled — "
                f"leases outlive this shard's patience; re-run "
                f"`repro campaign run` to resume")
            break
        time.sleep(poll_s)
    report.settled_total = len(_settled_cells(campaign_dir))
    report.complete = report.settled_total >= len(cells)
    return report


def _reclaim_exhausted(spec: CampaignSpec, cell: CampaignCell,
                       shard_id: str, attempt: int) -> FailedCell:
    """The degradation record for a cell whose claimants keep dying."""
    from repro.resilience.checkpoint import config_digest

    config = spec.cell_config(cell)
    return FailedCell(
        workload=cell.workload, design=config.l1_design,
        error_class=RECLAIM_EXHAUSTED,
        message=(f"cell {cell.cell_id}: {attempt - 1} claim generation(s) "
                 f"died holding the lease (budget 1 + max_retries = "
                 f"{attempt - 1}); degrading instead of reclaiming "
                 f"forever"),
        traceback="", config_digest=config_digest(config),
        attempts=attempt - 1, shard=shard_id)


def _execute_cell(spec: CampaignSpec, cell: CampaignCell, leases: LeaseDir,
                  lease: Lease, heartbeat_s: float,
                  timeout_s: Optional[float], max_retries: int,
                  retry_backoff_s: float, isolate: bool, rng,
                  shard_id: str) -> Tuple[Optional[object],
                                          Optional[FailedCell]]:
    """Run one claimed cell through the sweep engine's dispatcher (one
    slot, failures stamped with this shard's id) under a lease
    heartbeat."""
    from repro.resilience.checkpoint import config_digest

    config = spec.cell_config(cell)
    dispatcher = _ParallelDispatcher(
        jobs=1, trace_length=spec.trace_length, seed=spec.seed,
        fault_plan=None, timeout_s=timeout_s, max_retries=max_retries,
        retry_backoff_s=retry_backoff_s, fail_fast=False, retry_rng=rng,
        isolate=isolate, shard=shard_id)
    task = _CellTask(0, cell.workload, config.l1_design, config,
                     config_digest(config))
    outcomes: List[Tuple[str, object]] = []
    with _Heartbeat(leases, lease, heartbeat_s):
        dispatcher.run([task], lambda _task, kind, payload:
                       outcomes.append((kind, payload)))
    kind, payload = outcomes[0]
    return (payload, None) if kind == "ok" else (None, payload)


def _journal_outcome(journal: CampaignShardJournal, campaign_dir,
                     spec: CampaignSpec, cell: CampaignCell, shard_id: str,
                     lease: Lease, result, failure: Optional[FailedCell],
                     report: ShardReport) -> bool:
    """Append the cell's record and settle it; False when the journal
    paused (write fault / disk guard) and the shard must stop."""
    from repro.resilience.checkpoint import config_digest

    try:
        if result is not None:
            journal.append_cell_done(
                cell.cell_id, cell.values,
                config_digest(spec.cell_config(cell)),
                result.to_dict(), shard_id, lease.attempt)
        else:
            report.failed += 1
            report.failures.append(failure)
            journal.append_cell_failed(cell.cell_id, cell.values, failure,
                                       lease.attempt)
    except JournalWriteError as exc:
        report.pause_reason = str(exc)
        return False
    _settle(campaign_dir, cell.cell_id,
            "done" if result is not None else "failed",
            shard_id, lease.attempt)
    return True


def campaign_status(campaign_dir) -> Dict:
    """One structured snapshot of a campaign directory.

    Counts settled done/failed cells, live and expired leases, and
    pending (unclaimed, unsettled) cells, plus per-shard journal record
    counts — everything ``repro campaign status`` prints.
    """
    campaign_dir = Path(campaign_dir)
    spec = load_spec(campaign_dir)
    cells = spec.cells()
    settled = _settled_cells(campaign_dir)
    leases = LeaseDir(leases_dir(campaign_dir))
    now = time.time()
    leased_live: List[str] = []
    leased_expired: List[str] = []
    for cell in cells:
        if cell.cell_id in settled:
            continue
        lease = leases.peek(cell.cell_id)
        if lease is None:
            continue
        (leased_expired if lease.expired(now)
         else leased_live).append(cell.cell_id)
    done = sum(1 for marker in settled.values()
               if marker.get("type") == "done")
    failed = sum(1 for marker in settled.values()
                 if marker.get("type") == "failed")
    shards: Dict[str, int] = {}
    shards_root = campaign_dir / "shards"
    if shards_root.exists():
        for path in sorted(shards_root.glob("*.journal")):
            _header, records, _corrupt = CampaignShardJournal(
                path).salvage()
            shards[path.stem] = len(records)
    pending = (len(cells) - len(settled) - len(leased_live)
               - len(leased_expired))
    return {
        "campaign": spec.name,
        "spec_digest": spec.digest(),
        "cells": len(cells),
        "settled": len(settled),
        "done": done,
        "failed": failed,
        "leased_live": len(leased_live),
        "leased_expired": len(leased_expired),
        "pending": max(pending, 0),
        "shards": shards,
        "complete": len(settled) >= len(cells),
    }


__all__ = [
    "RECLAIM_EXHAUSTED",
    "ShardReport",
    "campaign_status",
    "run_shard",
    "settled_dir",
    "leases_dir",
]
