"""JSON-RPC 2.0 protocol layer for ``repro serve``.

Wire format: HTTP ``POST /rpc`` with a JSON-RPC 2.0 request object
(batch arrays are accepted and answered element-wise).  Methods:

* ``run``    — one (workload, design) cell; returns the result row.
* ``sweep``  — a workloads x designs matrix with improvement summary.
* ``status`` — one job (by ``job_id`` or ``resume_token``) or the whole
  server's counters.
* ``shutdown`` — begin a clean drain; the server exits 0.

Overload, quota, drain, and unknown-job conditions answer with
*structured* JSON-RPC errors (the HTTP-429 convention carried in the
error ``data``: ``retry_after_s``, pool occupancy, resume tokens) — an
overloaded server never hangs a client and never drops a request on the
floor undocumented.

Error codes:

=========  ===============================================
code       meaning
=========  ===============================================
-32700     parse error (bad JSON)
-32600     invalid request (not JSON-RPC 2.0 shaped)
-32601     method not found
-32602     invalid params (message names the valid forms)
-32603     internal error
-32001     pending pool full (structured 429; retry later)
-32002     client quota exhausted (structured 429)
-32003     server draining (resubmit after restart/resume)
-32004     job/token not found
=========  ===============================================
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Optional, Tuple

from repro.resilience.errors import AdmissionError
from repro.sim.config import CORE_MODELS, L1_DESIGNS

__all__ = [
    "PARSE_ERROR",
    "INVALID_REQUEST",
    "METHOD_NOT_FOUND",
    "INVALID_PARAMS",
    "INTERNAL_ERROR",
    "METHODS",
    "SIM_PARAM_KEYS",
    "ProtocolError",
    "parse_request",
    "validate_params",
    "result_response",
    "error_response",
    "admission_error_response",
]

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603

#: Methods the server dispatches.
METHODS = ("run", "sweep", "status", "shutdown")

#: Largest request body the HTTP layer accepts (bytes).
MAX_BODY_BYTES = 1_000_000

#: Params that define *what is simulated* — the request digest (and so
#: the journal path and resume token) covers exactly these, so retries,
#: deadlines, and wait-mode changes dedupe onto the same journal.  The
#: sampling keys only appear in validated params when ``sampled`` is
#: true, so exact requests keep their historical digests.
SIM_PARAM_KEYS = ("workloads", "designs", "length", "seed", "size_kb",
                  "freq", "core", "memhog", "way_prediction",
                  "sampled", "interval_size", "max_clusters", "warmup")

_SIZES = (32, 64, 128)

#: Resume tokens are request digests — exactly 64 lowercase hex chars.
#: Anything else is rejected *before* the token is ever used to build a
#: spool path, so a hostile token can't probe files outside the spool.
TOKEN_RE = re.compile(r"[0-9a-f]{64}")

#: every key ``run``/``sweep`` params may carry, with a short form note.
_PARAM_FORMS = {
    "workload": "workload: a workload name or rtrace:<path> (run only)",
    "workloads": "workloads: list of workload names / rtrace:<path> tokens",
    "design": f"design: one of {', '.join(L1_DESIGNS)} (run only)",
    "designs": f"designs: list drawn from {', '.join(L1_DESIGNS)}",
    "length": "length: trace references, int >= 1",
    "seed": "seed: int",
    "size_kb": f"size_kb: one of {', '.join(map(str, _SIZES))}",
    "freq": "freq: core GHz, float > 0",
    "core": f"core: one of {', '.join(CORE_MODELS)}",
    "memhog": "memhog: fraction in [0, 0.75]",
    "way_prediction": "way_prediction: bool",
    "sampled": "sampled: bool, run the sampled interval-simulation lane",
    "interval_size": "interval_size: refs per sampling interval, int >= 1 "
                     "(requires sampled)",
    "max_clusters": "max_clusters: sampling cluster budget, int >= 1 "
                    "(requires sampled)",
    "warmup": "warmup: sampling warmup refs, int >= 0 (requires sampled)",
    "jobs": "jobs: parallel workers for this request, int >= 1",
    "timeout_s": "timeout_s: per-cell wall clock, float > 0",
    "retries": "retries: transient-failure retries, int >= 0",
    "deadline_s": "deadline_s: whole-request budget, float > 0",
    "wait": "wait: false to return a job_id immediately",
    "resume_token": "resume_token: 64-hex-char token from an "
                    "interrupted request",
}


class ProtocolError(Exception):
    """A request that cannot be dispatched; carries the JSON-RPC code."""

    def __init__(self, code: int, message: str,
                 data: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.data = data


def parse_request(raw: bytes) -> Any:
    """Decode a JSON-RPC request body (single object or batch list).

    Raises :class:`ProtocolError` with the matching JSON-RPC code on bad
    JSON or a non-request shape; per-element validation of batches is
    left to the dispatcher so one bad element doesn't reject its peers.
    """
    if len(raw) > MAX_BODY_BYTES:
        raise ProtocolError(
            INVALID_REQUEST,
            f"request body is {len(raw)} bytes; limit {MAX_BODY_BYTES}")
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(PARSE_ERROR, f"bad JSON: {exc}") from exc
    if isinstance(payload, list):
        if not payload:
            raise ProtocolError(INVALID_REQUEST, "empty batch")
        return payload
    if not isinstance(payload, dict):
        raise ProtocolError(
            INVALID_REQUEST,
            "a JSON-RPC request must be an object (or a batch array)")
    return payload


def check_envelope(request: Dict) -> Tuple[Any, str, Dict]:
    """Validate one request object; returns ``(id, method, params)``."""
    if not isinstance(request, dict):
        raise ProtocolError(INVALID_REQUEST, "request must be an object")
    request_id = request.get("id")
    if request.get("jsonrpc") not in (None, "2.0"):
        raise ProtocolError(
            INVALID_REQUEST,
            f"unsupported jsonrpc version {request.get('jsonrpc')!r}")
    method = request.get("method")
    if not isinstance(method, str):
        raise ProtocolError(INVALID_REQUEST, "missing method")
    if method not in METHODS:
        raise ProtocolError(
            METHOD_NOT_FOUND,
            f"unknown method {method!r}; valid methods: "
            f"{', '.join(METHODS)}")
    params = request.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(INVALID_PARAMS, "params must be an object")
    return request_id, method, params


def _invalid(key: str, detail: str) -> ProtocolError:
    forms = "; ".join(_PARAM_FORMS.values())
    return ProtocolError(INVALID_PARAMS,
                         f"bad param {key!r}: {detail}",
                         data={"valid_forms": forms})


def _as_bool(key: str, value) -> bool:
    if isinstance(value, bool):
        return value
    raise _invalid(key, f"expected a bool, got {value!r}")


def _as_int(key: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _invalid(key, f"expected an int, got {value!r}")
    if value < minimum:
        raise _invalid(key, f"must be >= {minimum}")
    return value


def _as_positive_float(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _invalid(key, f"expected a number, got {value!r}")
    if value <= 0:
        raise _invalid(key, "must be > 0")
    return float(value)


def validate_params(method: str, params: Dict) -> Dict:
    """Normalize ``run``/``sweep`` params into the canonical sweep shape.

    Returns a dict whose :data:`SIM_PARAM_KEYS` subset is the request's
    simulation identity (``run`` folds into a one-cell sweep).  Raises
    :class:`ProtocolError` (code -32602) naming the valid forms on any
    unknown key or out-of-range value.  Workload names are validated
    against the suite; design/core/size enumerations against the CLI's.
    """
    from repro.workloads.suite import WORKLOADS

    allowed = set(_PARAM_FORMS)
    if method == "sweep":
        allowed -= {"workload", "design"}
    unknown = sorted(set(params) - allowed)
    if unknown:
        forms = "; ".join(_PARAM_FORMS[key] for key in sorted(allowed))
        raise ProtocolError(
            INVALID_PARAMS,
            f"unknown param(s) {', '.join(unknown)} for {method!r}; "
            f"valid params: {forms}")

    out: Dict = {}
    token = params.get("resume_token")
    if token is not None:
        if not isinstance(token, str) or not TOKEN_RE.fullmatch(token):
            raise _invalid(
                "resume_token",
                "expected a 64-char lowercase hex request digest (the "
                "token an interrupted request returned)")
        out["resume_token"] = token

    if method == "run":
        workloads = ([params["workload"]] if "workload" in params
                     else None)
        designs = [params.get("design", "seesaw")]
    else:
        workloads = params.get("workloads")
        designs = params.get("designs", ["vipt", "seesaw"])

    # A bare resume_token carries no simulation params: the server loads
    # the canonical params recorded beside the original journal.
    token_only = "resume_token" in out and workloads is None \
        and "designs" not in params and "design" not in params
    if not token_only:
        if workloads is None:
            if method == "run":
                raise _invalid("workload", "required for run "
                                           "(or pass resume_token)")
            workloads = sorted(WORKLOADS)
        if not isinstance(workloads, list) or not workloads:
            raise _invalid("workloads", "expected a non-empty list")
        for workload in workloads:
            if workload in WORKLOADS:
                continue
            if isinstance(workload, str) and workload.startswith("rtrace:"):
                # Ingested-trace tokens: admit only a readable, valid
                # .rtrace (header check — cheap), so a bad path fails the
                # request at validation instead of inside a worker.  The
                # result cache keys on the trace digest in that header.
                from repro.ingest import read_header, rtrace_path
                from repro.resilience.errors import RtraceError
                try:
                    read_header(rtrace_path(workload))
                except RtraceError as exc:
                    raise _invalid(
                        "workloads" if method == "sweep" else "workload",
                        str(exc))
                continue
            raise _invalid(
                "workloads" if method == "sweep" else "workload",
                f"unknown workload {workload!r}; valid workloads: "
                f"{', '.join(sorted(WORKLOADS))} (or rtrace:<path> for "
                f"an ingested trace)")
        if not isinstance(designs, list) or not designs:
            raise _invalid("designs", "expected a non-empty list")
        for design in designs:
            if design not in L1_DESIGNS:
                raise _invalid(
                    "designs" if method == "sweep" else "design",
                    f"unknown design {design!r}; valid designs: "
                    f"{', '.join(L1_DESIGNS)}")
        out["workloads"] = list(workloads)
        out["designs"] = list(dict.fromkeys(designs))

        out["length"] = _as_int("length", params.get("length", 20_000), 1)
        out["seed"] = _as_int("seed", params.get("seed", 42), 0)
        size_kb = params.get("size_kb", 32)
        if size_kb not in _SIZES:
            raise _invalid("size_kb",
                           f"got {size_kb!r}; valid sizes: "
                           f"{', '.join(map(str, _SIZES))}")
        out["size_kb"] = size_kb
        out["freq"] = _as_positive_float("freq", params.get("freq", 1.33))
        core = params.get("core", "ooo")
        if core not in CORE_MODELS:
            raise _invalid("core", f"got {core!r}; valid cores: "
                                   f"{', '.join(CORE_MODELS)}")
        out["core"] = core
        memhog = params.get("memhog", 0.0)
        if isinstance(memhog, bool) or not isinstance(memhog, (int, float)) \
                or not 0.0 <= memhog <= 0.75:
            raise _invalid("memhog", f"got {memhog!r}; expected a "
                                     f"fraction in [0, 0.75]")
        out["memhog"] = float(memhog)
        out["way_prediction"] = _as_bool(
            "way_prediction", params.get("way_prediction", False))
        sampled = _as_bool("sampled", params.get("sampled", False))
        tuning = [key for key in ("interval_size", "max_clusters", "warmup")
                  if params.get(key) is not None]
        if tuning and not sampled:
            raise _invalid(tuning[0],
                           "only valid with sampled: true (the exact lane "
                           "has no sampling intervals)")
        if sampled:
            from repro.sampling import SamplingPlan

            defaults = SamplingPlan()
            out["sampled"] = True
            out["interval_size"] = _as_int(
                "interval_size",
                params.get("interval_size", defaults.interval_size), 1)
            out["max_clusters"] = _as_int(
                "max_clusters",
                params.get("max_clusters", defaults.max_clusters), 1)
            out["warmup"] = _as_int(
                "warmup", params.get("warmup", defaults.warmup), 0)

    out["jobs"] = _as_int("jobs", params.get("jobs", 1), 1)
    if params.get("timeout_s") is not None:
        out["timeout_s"] = _as_positive_float("timeout_s",
                                              params["timeout_s"])
    if params.get("retries") is not None:
        out["retries"] = _as_int("retries", params["retries"], 0)
    if params.get("deadline_s") is not None:
        out["deadline_s"] = _as_positive_float("deadline_s",
                                               params["deadline_s"])
    out["wait"] = _as_bool("wait", params.get("wait", True))
    return out


# ------------------------------------------------------------- responses

def result_response(request_id, result) -> Dict:
    return {"jsonrpc": "2.0", "id": request_id, "result": result}


def error_response(request_id, code: int, message: str,
                   data: Optional[Dict] = None) -> Dict:
    error: Dict = {"code": code, "message": message}
    if data:
        error["data"] = data
    return {"jsonrpc": "2.0", "id": request_id, "error": error}


def admission_error_response(request_id, exc: AdmissionError) -> Dict:
    """Map a resilience-taxonomy admission error to its JSON-RPC error."""
    message = exc.args[0] if exc.args else type(exc).__name__
    return error_response(request_id, exc.rpc_code, message,
                          data=exc.data or None)


def encode_response(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def http_response(status: int, body: bytes,
                  content_type: str = "application/json") -> bytes:
    """Assemble a minimal HTTP/1.1 response (connection: close)."""
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              405: "Method Not Allowed", 413: "Payload Too Large",
              500: "Internal Server Error",
              503: "Service Unavailable"}.get(status, "OK")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body
