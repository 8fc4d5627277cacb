"""Parallel sweeps: the sweep engine with one worker process per core.

:func:`parallel_sweep` is :func:`repro.resilience.runner.resilient_sweep`
with ``jobs`` defaulting to ``os.cpu_count()``.  The engine runs cells
in ``jobs`` slots while preserving every sweep contract:

* **Byte-identical journals.**  Cells complete out of order, but records
  are buffered and appended in cell-enumeration order, so the journal a
  ``--jobs 8`` sweep writes is byte-for-byte the journal a ``--jobs 1``
  sweep writes.  Crash-safety granularity follows: the journal always
  holds a clean enumeration-order prefix, and a killed parallel sweep
  resumes exactly like a killed serial one.
* **Retry + degradation.**  Transient failures (wall-clock timeout, a
  worker dying without reporting, a hung or over-RSS worker) retry with
  seeded exponential backoff; deterministic errors degrade into
  ``FailedCell`` records (or raise under ``fail_fast``).
* **Duplicate-cell rejection.**  Dispatching a cell that is already in
  flight raises :class:`DuplicateCellError` — two workers simulating the
  same (workload, design) would race their journal records.

The dispatcher and its cell task type live beside the journal in
:mod:`repro.resilience.runner`; they are re-exported here.
"""

from __future__ import annotations

import os
from typing import Optional

# _CellTask and _ParallelDispatcher are re-exported for the dispatcher
# unit tests and perfbench's traced run, which import them from here.
from repro.resilience.runner import (  # noqa: F401
    DuplicateCellError,
    SweepReport,
    _CellTask,
    _ParallelDispatcher,
    resilient_sweep,
)

__all__ = ["DuplicateCellError", "parallel_sweep"]


def parallel_sweep(base_config, workloads, *args,
                   jobs: Optional[int] = None, **kwargs) -> SweepReport:
    """Run a journaled (workload x design) sweep across worker processes.

    Identical to :func:`repro.resilience.runner.resilient_sweep` — same
    arguments, report, journal bytes and resume behaviour — except that
    ``jobs=None`` uses ``os.cpu_count()`` worker processes.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    return resilient_sweep(base_config, workloads, *args, jobs=jobs,
                           **kwargs)
