"""simlint: simulator-aware static analysis for the SEESAW reproduction.

Usage::

    python -m repro.devtools.simlint src/        # human-readable
    python -m repro.devtools.simlint --json src/ # machine-readable (CI)
    repro lint            # via the main CLI
    repro-lint src/       # console script

Rules
-----
SL001  counter-drift   stats/result/energy field never written; stats field never read
SL002  determinism     unseeded RNGs, global ``random.*``, set iteration
SL003  config hygiene  config field never read / unknown field constructed
SL004  unit mixing     ``*_cycles`` added to ``*_ns``/``*_nj``/``*_pj``
SL005  silent except   bare ``except`` / ``except Exception: pass``

Suppress a finding with ``# simlint: disable=SL002`` (or ``disable=all``)
on the flagged line or the line directly above it.

Exit codes: 0 clean, 1 findings reported, 2 usage/parse error.
"""

from repro.devtools.simlint.checkers import (
    ConfigHygieneChecker,
    CounterDriftChecker,
    DeterminismChecker,
    SilentExceptionChecker,
    UnitMixingChecker,
    default_checkers,
)
from repro.devtools.simlint.framework import (
    ALL_RULES,
    Checker,
    Finding,
    Module,
    render_json,
    run_checkers,
)
from repro.devtools.simlint.cli import main

__all__ = [
    "ALL_RULES",
    "Checker",
    "ConfigHygieneChecker",
    "CounterDriftChecker",
    "DeterminismChecker",
    "Finding",
    "Module",
    "SilentExceptionChecker",
    "UnitMixingChecker",
    "default_checkers",
    "main",
    "render_json",
    "run_checkers",
]
