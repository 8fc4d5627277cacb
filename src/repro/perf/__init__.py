"""Performance engineering: parallel sweep execution and the bench gates.

* :func:`repro.perf.parallel.parallel_sweep` — the sweep engine
  (:func:`repro.resilience.runner.resilient_sweep`) with one worker
  process per core by default; at every ``jobs`` value it writes the
  exact journal bytes a one-job sweep would.
* :mod:`repro.perf.bench` — the ``repro bench`` gates: perfbench's
  simulation speed against the newest committed
  ``benchmarks/perf/BENCH_<n>.json``, and, with ``--sampled``, the
  sampled lane's speedup and accuracy against the exact lane.
"""

from repro.perf.parallel import DuplicateCellError, parallel_sweep

__all__ = [
    "DuplicateCellError",
    "parallel_sweep",
]
