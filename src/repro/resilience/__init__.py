"""Resilient experiment execution.

Long multi-workload sweeps are the unit of work behind every paper figure;
this package makes them survivable:

* :mod:`repro.resilience.errors` — the unified
  :class:`~repro.resilience.errors.ReproResilienceError` taxonomy and the
  documented CLI exit-code contract (0 ok, 1 failed cells, 2 usage, 3
  sanitizer, 4 paused, 128+signum interrupted).
* :mod:`repro.resilience.checkpoint` — versioned, checksummed, atomically
  written on-disk checkpoints of a :class:`~repro.sim.system.SystemSimulator`
  snapshot, plus the config/trace digests that guard them.
* :mod:`repro.resilience.runner` — the one sweep engine: each completed
  (workload, design) cell is journaled atomically so an interrupted sweep
  resumes instead of restarting; cells run in ``jobs`` slots, in-process
  or in watchdogged subprocesses, with bounded retry, and failures
  degrade gracefully into structured
  :class:`~repro.resilience.runner.FailedCell` records.
* :mod:`repro.resilience.faults` — a :class:`~repro.resilience.faults.FaultPlan`
  that deliberately corrupts simulator state mid-run, proving the runtime
  sanitizer (:mod:`repro.devtools.sanitize`) detects each fault class.
* :mod:`repro.resilience.chaos` — deterministic *host* fault injection
  (worker SIGKILL, ENOSPC/EIO/torn journal and checkpoint writes,
  scheduled SIGINT/SIGTERM) proving the supervision stack keeps every
  campaign resumable.
* :mod:`repro.resilience.supervisor` — the supervision policy the engine
  applies to every subprocess cell: worker heartbeats, hung-worker
  replacement, RSS watchdogs with adaptive job downshift, the free-disk
  guard, and graceful interrupt trapping.
* :mod:`repro.resilience.doctor` — ``repro doctor``: validate and repair
  journals/checkpoints, quarantining corrupt records and reporting the
  exact cells a resume will re-run.
"""

from repro.resilience.errors import (
    EXIT_FAILED_CELLS,
    EXIT_INTERRUPT_BASE,
    EXIT_OK,
    EXIT_PAUSED,
    EXIT_SANITIZER,
    EXIT_USAGE,
    AdmissionError,
    CampaignError,
    CellCrash,
    CellHung,
    CellResourceLimit,
    CellTimeout,
    CheckpointError,
    DeadlineExceeded,
    DiskSpaceError,
    JobNotFound,
    JournalError,
    JournalWriteError,
    PoolOverloaded,
    QuotaExceeded,
    ReproResilienceError,
    ServerDraining,
    SweepInterrupted,
)
from repro.resilience.chaos import (
    HOST_FAULT_KINDS,
    HostFaultError,
    HostFaultPlan,
    HostFaultSpec,
)
from repro.resilience.checkpoint import (
    config_digest,
    config_from_dict,
    config_to_dict,
    load_checkpoint,
    restore_simulator,
    save_checkpoint,
    trace_digest,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjectionError,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.runner import (
    FailedCell,
    SweepJournal,
    SweepReport,
    resilient_sweep,
)
from repro.resilience.doctor import (
    Diagnosis,
    diagnose,
    repair,
)
from repro.resilience.supervisor import (
    SupervisionPolicy,
    trap_interrupts,
)

__all__ = [
    "EXIT_OK",
    "EXIT_FAILED_CELLS",
    "EXIT_USAGE",
    "EXIT_SANITIZER",
    "EXIT_PAUSED",
    "EXIT_INTERRUPT_BASE",
    "ReproResilienceError",
    "AdmissionError",
    "CampaignError",
    "CellCrash",
    "CellHung",
    "CellResourceLimit",
    "CellTimeout",
    "CheckpointError",
    "DeadlineExceeded",
    "DiskSpaceError",
    "JobNotFound",
    "JournalError",
    "JournalWriteError",
    "PoolOverloaded",
    "QuotaExceeded",
    "ServerDraining",
    "SweepInterrupted",
    "HOST_FAULT_KINDS",
    "HostFaultError",
    "HostFaultPlan",
    "HostFaultSpec",
    "config_digest",
    "config_from_dict",
    "config_to_dict",
    "load_checkpoint",
    "restore_simulator",
    "save_checkpoint",
    "trace_digest",
    "FAULT_KINDS",
    "FaultInjectionError",
    "FaultPlan",
    "FaultSpec",
    "FailedCell",
    "SweepJournal",
    "SweepReport",
    "resilient_sweep",
    "Diagnosis",
    "diagnose",
    "repair",
    "SupervisionPolicy",
    "trap_interrupts",
]
