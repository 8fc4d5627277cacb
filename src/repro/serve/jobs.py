"""Request execution for ``repro serve``: params -> journaled sweep.

Every admitted ``run``/``sweep`` request is executed as a journaled
sweep under the existing resilience machinery, with three serve-specific
twists:

* **Spool journals keyed by request digest.**  The journal lives at
  ``<spool>/<digest>.jsonl`` where ``digest`` is a SHA-256 over the
  request's canonical simulation params
  (:data:`repro.serve.protocol.SIM_PARAM_KEYS`).  Identical requests —
  from any client, before or after a restart — share one journal, so a
  duplicate of a finished request replays entirely from the journal and
  simulates **zero** cells.  The digest doubles as the resume token; a
  ``<digest>.request.json`` sidecar records the canonical params so a
  bare token can reconstruct the job.
* **Cache preseeding.**  Before the sweep runs, each not-yet-done cell
  is looked up in the content-addressed result cache (config digest +
  trace digest, exactly the checkpoint keys); hits are appended to the
  journal as ordinary ``done`` records and the sweep resumes over them —
  the sweep machinery itself needs no cache awareness.
* **Deadline + interrupt seams.**  The request's ``deadline_s`` and the
  job's :class:`~repro.resilience.supervisor.InterruptState` thread
  straight into ``resilient_sweep``, so a server drain stops a request
  exactly like Ctrl-C stops the CLI: in-flight cells flush, the journal
  canonicalizes, and the client gets a resumable token.  Every cell runs
  in a watchdogged subprocess under the server's supervision policy,
  whatever the request's ``jobs``.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.resilience.checkpoint import config_digest, trace_digest
from repro.resilience.errors import JobNotFound, SweepInterrupted
from repro.resilience.fsio import publish
from repro.resilience.runner import (execution_host, rtrace_digests,
                                     sweep_header_fields)
from repro.serve.cache import ResultCache, result_key
from repro.serve.pending import Job
from repro.serve.protocol import SIM_PARAM_KEYS
from repro.sim.config import SystemConfig

__all__ = [
    "request_digest",
    "base_config_from_params",
    "sampling_plan_from_params",
    "load_request_params",
    "save_request_params",
    "execute_job",
]


def request_digest(params: Dict) -> str:
    """SHA-256 over the canonical simulation params.

    Only :data:`SIM_PARAM_KEYS` participate: scheduling knobs (``jobs``,
    ``wait``, ``deadline_s``, ...) don't change *what* is simulated, so
    retrying with a different deadline dedupes onto the same journal.
    An ``rtrace:`` workload names a file that can be re-ingested, so its
    trace digest joins the identity too: a changed trace gets its own
    journal.  Requests on synthetic workloads hash their params alone.
    """
    identity = {key: params[key] for key in SIM_PARAM_KEYS if key in params}
    digests = rtrace_digests(params.get("workloads", ()))
    if digests:
        identity["rtrace_digests"] = digests
    return hashlib.sha256(
        json.dumps(identity, sort_keys=True).encode("utf-8")).hexdigest()


def base_config_from_params(params: Dict) -> SystemConfig:
    """The base machine every cell of this request derives from."""
    return SystemConfig(
        l1_design=params["designs"][0],
        l1_size_kb=params["size_kb"],
        frequency_ghz=params["freq"],
        core=params["core"],
        memhog_fraction=params["memhog"],
        way_prediction=params["way_prediction"],
        seed=params["seed"],
    )


def sampling_plan_from_params(params: Dict):
    """The request's :class:`~repro.sampling.SamplingPlan`, or ``None``
    for the exact lane.  The protocol layer guarantees the tuning keys
    are present exactly when ``sampled`` is true."""
    if not params.get("sampled"):
        return None
    from repro.sampling import SamplingPlan

    return SamplingPlan(interval_size=params["interval_size"],
                        max_clusters=params["max_clusters"],
                        warmup=params["warmup"])


# --------------------------------------------------------- request sidecar

def _request_path(spool: Path, digest: str) -> Path:
    return spool / f"{digest}.request.json"


def save_request_params(spool: Path, digest: str, params: Dict) -> None:
    """Record the canonical params beside the journal (atomic, idempotent)
    so a bare resume token can reconstruct the job after a restart."""
    path = _request_path(spool, digest)
    if path.exists():
        return
    body = {key: params[key] for key in SIM_PARAM_KEYS if key in params}
    publish(path, json.dumps(body, sort_keys=True).encode("utf-8"))


def load_request_params(spool: Path, token: str) -> Dict:
    """Params recorded for ``token``; raises :class:`JobNotFound` when the
    token names no spooled request (or its sidecar is unreadable).

    The token is re-checked against the digest format here even though
    the protocol layer already validates it — this function builds a
    filesystem path from client input, so it must never accept a token
    that could escape the spool directory.
    """
    from repro.serve.protocol import TOKEN_RE

    if not isinstance(token, str) or not TOKEN_RE.fullmatch(token):
        raise JobNotFound(
            f"resume token {token[:16]!r}... is not a request digest "
            f"(64 lowercase hex chars)", token=str(token)[:80])
    path = _request_path(spool, token)
    try:
        params = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise JobNotFound(
            f"resume token {token[:16]}... names no spooled request "
            f"(checked {path})", token=token) from exc
    if not isinstance(params, dict) or "workloads" not in params:
        raise JobNotFound(
            f"resume token {token[:16]}... has a malformed request "
            f"sidecar at {path}", token=token)
    return params


# ------------------------------------------------------------- execution

def _cell_digests(params: Dict) -> List[Tuple[str, str, str, str]]:
    """``(workload, design, config_digest, trace_digest)`` per cell.

    Traces come from the memoized builder, so digest computation shares
    work with the simulation that may follow.  Sampled requests fold the
    plan into each cell's config digest, so their journal records and
    cache entries live in a namespace the exact lane can never hit.
    """
    from repro.workloads.suite import cached_trace

    base = base_config_from_params(params)
    plan = sampling_plan_from_params(params)
    cells = []
    trace_digests: Dict[str, str] = {}
    for workload in params["workloads"]:
        if workload not in trace_digests:
            trace = cached_trace(workload, params["length"],
                                 seed=params["seed"])
            trace_digests[workload] = trace_digest(trace)
        for design in params["designs"]:
            config = base.with_design(design)
            digest = config_digest(config)
            if plan is not None:
                from repro.sampling import sampling_cell_digest

                digest = sampling_cell_digest(digest, plan)
            cells.append((workload, design, digest,
                          trace_digests[workload]))
    return cells


def _preseed_from_cache(journal, params: Dict, cache: ResultCache,
                        base_config, cells) -> int:
    """Append cache-hit ``done`` records for every one of ``cells``
    (:func:`_cell_digests`) the journal does not already have; returns
    the number preseeded."""
    done: Dict[Tuple[str, str], Dict] = {}
    if journal.exists():
        _, done = journal.read()
    else:
        journal.write_header(sweep_header_fields(
            base_config, params["workloads"], params["designs"],
            params["length"], params["seed"],
            sampling_plan=sampling_plan_from_params(params)))
    preseeded = 0
    for workload, design, cfg_digest, trc_digest in cells:
        record = done.get((workload, design))
        if record is not None and record.get("type") == "done" \
                and record.get("config_digest") == cfg_digest:
            continue  # the journal already has it; nothing to preseed
        payload = cache.get(result_key(cfg_digest, trc_digest))
        if payload is not None:
            journal.append_done(workload, design, cfg_digest, payload)
            preseeded += 1
    return preseeded


def _fill_cache(journal, cache: ResultCache, cells) -> None:
    """Publish every ``done`` record of the finished journal to the
    cache, keyed by the trace digests of ``cells``
    (:func:`_cell_digests`)."""
    trace_by_cell = {(workload, design): trc_digest
                     for workload, design, _cfg, trc_digest in cells}
    _, done = journal.read()
    for (workload, design), record in done.items():
        if record.get("type") != "done":
            continue
        trc_digest = trace_by_cell.get((workload, design))
        if trc_digest is None:
            continue
        cache.put(result_key(record["config_digest"], trc_digest),
                  record["result"])


def _improvements(results: Dict[str, Dict], designs: List[str]) -> List[Dict]:
    """Per-workload improvement rows of every design over ``designs[0]``."""
    from repro.sim.experiment import energy_improvement, runtime_improvement

    baseline = designs[0]
    rows: List[Dict] = []
    for workload, by_design in results.items():
        if baseline not in by_design:
            continue
        for design in designs[1:]:
            if design not in by_design:
                continue
            rows.append({
                "workload": workload,
                "baseline": baseline,
                "design": design,
                "runtime_improvement_pct": round(
                    runtime_improvement(by_design, baseline, design), 3),
                "energy_improvement_pct": round(
                    energy_improvement(by_design, baseline, design), 3),
            })
    return rows


def execute_job(job: Job, spool: Path, cache: ResultCache,
                policy=None, retry_backoff_s: float = 0.25,
                default_timeout_s: Optional[float] = None,
                default_retries: int = 1) -> Dict:
    """Run an admitted job to completion; returns the JSON-RPC result.

    Raises :class:`SweepInterrupted` when the job's interrupt seam was
    flipped (server drain) — the caller turns that into an
    ``interrupted`` payload carrying the resume token.
    """
    from repro.resilience.runner import SweepJournal, resilient_sweep

    params = job.params
    base_config = base_config_from_params(params)
    sampling_plan = sampling_plan_from_params(params)
    journal_path = spool / f"{job.digest}.jsonl"
    journal = SweepJournal(journal_path)
    save_request_params(spool, job.digest, params)

    # Each digest hashes whole trace columns: compute them once.
    cells = _cell_digests(params)
    reused_cache = _preseed_from_cache(journal, params, cache, base_config,
                                       cells)

    deadline_s = None
    if job.deadline_at is not None:
        deadline_s = max(0.001, job.deadline_at - time.monotonic())
    started = time.monotonic()
    # Always subprocess-isolated, so per-cell watchdogs, the policy and
    # chaos worker kills apply at one slot as at many.
    report = resilient_sweep(
        base_config, params["workloads"],
        trace_length=params["length"],
        seed=params["seed"],
        designs=params["designs"],
        journal_path=journal_path,
        resume=True,
        jobs=params["jobs"],
        isolate=True,
        timeout_s=params.get("timeout_s", default_timeout_s),
        max_retries=params.get("retries", default_retries),
        retry_backoff_s=retry_backoff_s,
        policy=policy,
        deadline_s=deadline_s,
        interrupt_state=job.interrupt,
        sampling_plan=sampling_plan,
    )
    elapsed = time.monotonic() - started

    _fill_cache(journal, cache, cells)

    results_payload = {
        workload: {design: result.to_dict()
                   for design, result in by_design.items()}
        for workload, by_design in report.results.items()}
    payload: Dict = {
        "state": ("paused" if report.paused
                  else "failed" if report.failures else "done"),
        "job_id": job.id,
        "resume_token": job.resume_token,
        "journal": str(journal_path),
        "cells": sum(len(by_design) for by_design in report.results.values())
        + len(report.failures),
        "simulated": report.executed,
        "reused_cache": reused_cache,
        "reused_journal": max(0, report.reused - reused_cache),
        "results": results_payload,
        "improvements": _improvements(report.results, params["designs"]),
        # Degradation payloads carry host:pid provenance so a client's
        # post-mortem can attribute each failure to the serving process
        # (the journal record itself stays host-independent).
        "failures": [dict(failure.as_dict(),
                          shard=failure.shard or execution_host())
                     for failure in report.failures],
        "elapsed_s": round(elapsed, 3),
    }
    if sampling_plan is not None:
        # Worst observed per-metric bound across cells: the request-level
        # accuracy contract a client can check without walking every cell.
        bounds: Dict[str, float] = {}
        for by_design in report.results.values():
            for result in by_design.values():
                block = result.sampling or {}
                for metric, bound in (block.get("error_bounds")
                                      or {}).items():
                    bounds[metric] = max(bounds.get(metric, 0.0),
                                         float(bound))
        payload["sampled"] = True
        payload["sampling"] = {"plan": sampling_plan.to_dict(),
                               "error_bounds": bounds}
    if report.paused:
        payload["pause_reason"] = report.pause_reason
        payload["resume_hint"] = report.resume_hint
    return payload


def interrupted_payload(job: Job, exc: SweepInterrupted,
                        spool: Path) -> Dict:
    """The structured answer a drained client receives: the request is
    journaled and resumable via the returned token."""
    return {
        "state": "interrupted",
        "job_id": job.id,
        "resume_token": job.resume_token,
        "journal": str(spool / f"{job.digest}.jsonl"),
        "signum": exc.signum,
        "exit_code": exc.exit_code,
        "resume": {"method": job.method,
                   "params": {"resume_token": job.resume_token}},
        "message": ("server drained mid-request; the journal is canonical "
                    "and the request resumes with zero lost cells"),
    }
