"""Performance engineering: parallel sweep execution and benchmarking.

* :func:`repro.perf.parallel.parallel_sweep` — the sweep engine
  (:func:`repro.resilience.runner.resilient_sweep`) with one worker
  process per core by default; at every ``jobs`` value it writes the
  exact journal bytes a one-job sweep would.
* :mod:`repro.perf.bench` — the ``repro bench`` harness: per-stage
  latency percentiles, cells/sec and accesses/sec throughput, and a
  calibration-normalized regression gate against a committed baseline.
"""

from repro.perf.parallel import DuplicateCellError, parallel_sweep
from repro.perf.bench import check_regression, run_benchmark

__all__ = [
    "DuplicateCellError",
    "parallel_sweep",
    "run_benchmark",
    "check_regression",
]
