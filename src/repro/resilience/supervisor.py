"""Self-healing supervision for sweep worker processes.

A :class:`SupervisionPolicy` handed to the sweep engine
(:func:`repro.resilience.runner.resilient_sweep`, whose
``_ParallelDispatcher`` reads it) supervises every cell that runs in a
subprocess — every cell above one job, and at one job every isolated,
timed or deadlined cell — with the monitoring a multi-day campaign needs
to actually reach its last cell:

* **Heartbeats.**  Workers send ``("hb",)`` over their result pipe every
  ``heartbeat_s``; a worker silent for ``hung_after_s`` is declared hung,
  SIGKILLed, and its cell requeued under the sweep's existing retry
  budget (a cell that hangs deterministically degrades into a
  ``FailedCell`` with error class ``CellHung`` instead of wedging the
  campaign).
* **RSS watchdog.**  Each worker's resident set (``/proc/<pid>/statm``)
  is sampled every ``check_interval_s``; a breach of ``max_rss_mb``
  kills the worker and — when more than one slot is active — *downshifts*
  the effective ``--jobs`` by one and requeues the cell for free: memory
  pressure is treated as a concurrency problem, not the cell's fault.
  Only at one job does a breach consume the retry budget
  (``CellResourceLimit``), so a single cell that genuinely cannot fit
  still degrades instead of looping.
* **Free-disk guard.**  ``min_free_mb`` is the journal's pre-fsync
  free-space floor at every ``jobs`` value, in-process cells included;
  hitting it pauses the sweep cleanly with a resume hint instead of
  tearing the journal on ENOSPC.
* **Graceful interrupts.**  :func:`trap_interrupts` converts the first
  SIGINT/SIGTERM into a flag the engine polls: dispatch stops, in-flight
  workers are reaped, buffered completed cells are flushed, the journal
  is canonicalized, and the sweep raises
  :class:`~repro.resilience.errors.SweepInterrupted` (CLI exit
  ``128 + signum``).  A second Ctrl-C falls through to the default
  KeyboardInterrupt for users who really mean it.

None of this changes journal bytes: supervision manages *processes*, and
the engine's enumeration-order record buffering is untouched, so the
serial ≡ parallel differential goldens hold under supervision.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "SupervisionPolicy",
    "InterruptState",
    "trap_interrupts",
    "worker_rss_bytes",
    "free_disk_bytes",
    "host_readiness",
]


@dataclass(frozen=True)
class SupervisionPolicy:
    """Watchdog thresholds for a sweep's subprocess cells, plus the
    journal's free-disk floor.

    Attributes:
        heartbeat_s: worker heartbeat period (0/None disables heartbeats
            and therefore hung detection).
        hung_after_s: a worker silent for this long is hung (killed and
            requeued); must comfortably exceed ``heartbeat_s``.
        max_rss_mb: per-worker resident-set ceiling in MB (None disables
            the RSS watchdog).
        min_free_mb: free-disk floor (MB) for the journal's pre-fsync
            guard, honoured at every ``jobs`` value (None keeps the
            journal's default floor).
        check_interval_s: watchdog sampling period; also bounds how long
            an interrupt can go unnoticed.
    """

    heartbeat_s: Optional[float] = 1.0
    hung_after_s: Optional[float] = 30.0
    max_rss_mb: Optional[float] = None
    min_free_mb: Optional[float] = 32.0
    check_interval_s: float = 0.25

    def __post_init__(self) -> None:
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be > 0")
        if self.heartbeat_s is not None and self.heartbeat_s < 0:
            raise ValueError("heartbeat_s must be >= 0")
        if (self.heartbeat_s and self.hung_after_s is not None
                and self.hung_after_s <= self.heartbeat_s):
            raise ValueError(
                f"hung_after_s ({self.hung_after_s}) must exceed "
                f"heartbeat_s ({self.heartbeat_s}); a healthy worker "
                f"would be declared hung between beats")


# ------------------------------------------------------------ host probes

def worker_rss_bytes(pid: int) -> Optional[int]:
    """Resident set size of ``pid`` in bytes, or None when unavailable
    (non-Linux hosts, or the process already exited)."""
    try:
        with open(f"/proc/{pid}/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


def free_disk_bytes(path) -> Optional[int]:
    """Free bytes on the filesystem holding ``path`` (None on failure)."""
    import shutil

    try:
        return shutil.disk_usage(path).free
    except OSError:
        return None


def host_readiness(path, max_rss_mb: Optional[float] = None,
                   min_free_mb: Optional[float] = None):
    """Evaluate the supervisor's RSS/disk guards for *this* process.

    Returns ``(ready, checks)``: ``ready`` is False when a configured
    guard is breached, and ``checks`` is a JSON-safe dict of what was
    measured (``rss_mb``, ``free_disk_mb``) plus a ``reasons`` list
    naming each breached guard.  This is the probe behind ``repro
    serve``'s ``/readyz`` endpoint, so a server on a filling disk or
    with a ballooning RSS stops admitting work *before* a sweep would
    have to pause.
    """
    checks: dict = {"reasons": []}
    ready = True
    rss = worker_rss_bytes(os.getpid())
    if rss is not None:
        checks["rss_mb"] = round(rss / 2 ** 20, 1)
        if max_rss_mb is not None and rss > max_rss_mb * 2 ** 20:
            ready = False
            checks["reasons"].append(
                f"rss {rss / 2 ** 20:.0f}MB exceeds the "
                f"{max_rss_mb:g}MB ceiling")
    free = free_disk_bytes(path)
    if free is not None:
        checks["free_disk_mb"] = round(free / 2 ** 20, 1)
        if min_free_mb is not None and free < min_free_mb * 2 ** 20:
            ready = False
            checks["reasons"].append(
                f"free disk {free / 2 ** 20:.0f}MB below the "
                f"{min_free_mb:g}MB floor")
    return ready, checks


# ------------------------------------------------------- interrupt trapping

class InterruptState:
    """Which signal (if any) asked the sweep to stop gracefully."""

    __slots__ = ("signum",)

    def __init__(self) -> None:
        self.signum: Optional[int] = None


@contextmanager
def trap_interrupts(signals=(signal.SIGINT, signal.SIGTERM)):
    """Trap SIGINT/SIGTERM into a polled flag for graceful shutdown.

    The first signal sets ``state.signum`` and returns, letting the sweep
    finish its cell, flush buffers, and canonicalize the journal; a
    second SIGINT raises ``KeyboardInterrupt`` immediately (the user
    insists).  Outside the main thread, where handlers cannot be
    installed, the state is yielded unarmed and default signal behaviour
    applies.
    """
    state = InterruptState()

    def _handler(signum, frame) -> None:
        if state.signum is None:
            state.signum = signum
        elif signum == signal.SIGINT:
            raise KeyboardInterrupt

    previous = {}
    try:
        for sig in signals:
            previous[sig] = signal.signal(sig, _handler)
    except ValueError:
        previous = {}  # not the main thread: no handlers were installed
    try:
        yield state
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
