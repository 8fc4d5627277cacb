"""Crash-safe, isolated, resumable, parallel sweeps — the one sweep engine.

:func:`resilient_sweep` is the only sweep body: ``repro sweep``/``resume``,
:func:`repro.sim.experiment.sweep`, :func:`repro.perf.parallel.parallel_sweep`
and served requests all run through it, and :class:`_ParallelDispatcher`
is the only code that executes cells (campaign shards use it directly):

* **Journaling** — every completed (workload, design) cell is appended to
  a JSONL journal with an fsync and a per-record checksum, so a sweep
  killed mid-run (even ``SIGKILL``) resumes from the journal instead of
  restarting.  Reused cells are rebuilt with
  ``SimulationResult.from_dict`` and are bit-identical to a fresh run
  (the round trip is lossless).  Records are appended in cell-enumeration
  order whatever order cells finish in, so the journal bytes are the same
  for every ``jobs`` value.
* **Slots** — ``jobs`` cells run at once.  At one job with no isolation,
  timeout or deadline, a cell runs in-process; otherwise each cell runs
  in a subprocess with a wall-clock watchdog, so a wedged or crashing
  cell cannot take the sweep down.
* **Retry + graceful degradation** — transient failures (timeout, worker
  crash, a hung or over-RSS worker) are retried with seeded exponential
  backoff; deterministic errors are recorded as structured
  :class:`FailedCell` entries and the sweep moves on.
* **Supervision** — an optional
  :class:`~repro.resilience.supervisor.SupervisionPolicy` adds worker
  heartbeats and the hung/RSS watchdogs to every subprocess cell.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import shutil
import signal as _signal_module
import threading
import time
import traceback
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.resilience import chaos
from repro.resilience.checkpoint import config_digest, config_to_dict
from repro.resilience.fsio import replace_durable
from repro.resilience.errors import (
    CellCrash,
    CellError,
    CellHung,
    CellResourceLimit,
    CellTimeout,
    DeadlineExceeded,
    DiskSpaceError,
    JournalError,
    JournalWriteError,
    ReproResilienceError,
    SweepInterrupted,
    classify_write_error,
)
from repro.resilience.supervisor import trap_interrupts, worker_rss_bytes

#: Designs a sweep accepts (mirrors SystemConfig.l1_design validation).
VALID_DESIGNS = ("vipt", "pipt", "vivt", "seesaw")

#: Default free-space floor (bytes) checked before every journal append;
#: hitting it pauses the sweep cleanly instead of tearing the journal.
DEFAULT_MIN_FREE_BYTES = 32 * 2 ** 20

#: Ceiling on any single retry backoff sleep ("bounded exponential").
MAX_RETRY_BACKOFF_S = 30.0

__all__ = [
    "VALID_DESIGNS",
    "MAX_RETRY_BACKOFF_S",
    "CellTimeout",
    "CellCrash",
    "CellError",
    "JournalError",
    "DuplicateCellError",
    "FailedCell",
    "SweepReport",
    "SweepJournal",
    "resilient_sweep",
    "retry_delay",
    "retry_rng_for",
]


def retry_delay(base_s: float, attempt: int, rng=None,
                max_s: float = MAX_RETRY_BACKOFF_S) -> float:
    """Bounded exponential backoff with deterministic jitter.

    ``attempt`` is 1-based (the attempt that just failed).  With ``rng``
    — a seeded ``random.Random`` threaded through the sweep — the delay
    is stretched by a jitter factor in [1.0, 1.5) drawn from that RNG, so
    concurrent retries de-synchronize while the whole schedule stays
    reproducible for a given sweep seed.  Without ``rng`` the delay is
    the plain exponential.  Always capped at ``max_s``.
    """
    delay = base_s * 2 ** max(0, attempt - 1)
    if rng is not None:
        delay *= 1.0 + 0.5 * rng.random()
    return min(delay, max_s)


def retry_rng_for(seed: int) -> random.Random:
    """The shared seeded RNG for a sweep's retry jitter.

    Derived from the sweep seed (offset so it never aliases the trace
    RNG stream), so two runs of the same sweep sleep the same jittered
    backoff sequence — service retry tests are reproducible.
    """
    return random.Random((seed & 0xFFFFFFFF) ^ 0x5EE5AB0F)


def execution_host() -> str:
    """``host:pid`` provenance for degradation records written here.

    Post-mortems of a distributed campaign (or a served request) need to
    attribute a failure to the process that observed it; this is the
    default value threaded into :class:`FailedCell.shard` when no
    campaign shard id applies.
    """
    import socket

    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class FailedCell:
    """A (workload, design) cell that failed after all retries.

    ``shard`` and ``attempts`` are failure provenance: which shard worker
    (campaigns), or which ``host:pid`` (sweeps and served requests),
    observed the final failure, and how many attempts it burned.  Both
    ride the journal record and every degradation payload, so a
    post-mortem can attribute a failure to a host.
    """

    workload: str
    design: str
    error_class: str
    message: str
    traceback: str
    config_digest: str
    attempts: int
    shard: str = ""

    def as_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "design": self.design,
            "error_class": self.error_class,
            "message": self.message,
            "traceback": self.traceback,
            "config_digest": self.config_digest,
            "attempts": self.attempts,
            "shard": self.shard,
        }


@dataclass
class SweepReport:
    """Everything a resilient sweep produced.

    ``results`` keeps the classic ``sweep()`` shape —
    ``{workload: {design: SimulationResult}}`` — while ``failures``
    records cells that degraded instead of completing.
    """

    results: Dict[str, Dict]
    failures: List[FailedCell] = field(default_factory=list)
    #: cells reused from the journal instead of re-simulated.
    reused: int = 0
    #: cells actually simulated this invocation.
    executed: int = 0
    #: the sweep stopped cleanly before finishing (disk guard / write
    #: fault); the journal is intact and ``resume_hint`` continues it.
    paused: bool = False
    pause_reason: str = ""
    resume_hint: str = ""

    @property
    def ok(self) -> bool:
        """True when every cell completed (possibly across resumes)."""
        return not self.failures and not self.paused


# ------------------------------------------------------------------ journal

def _record_checksum(record: Dict) -> str:
    """SHA-256 of the record's canonical JSON, excluding the checksum field."""
    body = {key: value for key, value in record.items() if key != "checksum"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


class SweepJournal:
    """Append-only JSONL journal of sweep progress.

    Record types:

    * ``header`` — the sweep's identity: serialized base config plus its
      digest, workloads, designs, trace length, seed.
    * ``done`` — a completed cell with its full ``SimulationResult``
      payload.
    * ``failed`` — a cell that degraded into a :class:`FailedCell`.

    Every record carries a ``checksum`` over its canonical JSON, and
    appends are flushed and fsynced, so after a crash the journal is
    valid up to (at worst) one torn trailing line, which :meth:`read`
    tolerates and resume re-runs.

    Appends are guarded: a free-disk-space floor (``min_free_bytes``) is
    checked *before* each write, so a filling disk pauses the sweep with
    a :class:`DiskSpaceError` instead of fsyncing into ENOSPC and tearing
    the file, and write failures surface as :class:`JournalWriteError`
    (the on-disk journal stays valid and resumable either way).  The
    chaos layer (:mod:`repro.resilience.chaos`) hooks the same path to
    inject deterministic ENOSPC/EIO/torn-write faults.
    """

    def __init__(self, path,
                 min_free_bytes: Optional[int] = DEFAULT_MIN_FREE_BYTES
                 ) -> None:
        self.path = Path(path)
        self.min_free_bytes = min_free_bytes
        #: True while :meth:`write_header` has yet to land its header;
        #: until then there is no journal a resume could continue.
        self._header_pending = False

    def exists(self) -> bool:
        return self.path.exists()

    @property
    def _resume_command(self) -> str:
        """What continues a sweep paused on this journal."""
        if self._header_pending:
            return f"re-run the sweep (no journal header reached {self.path})"
        return f"python -m repro resume {self.path}"

    @property
    def _resume_hint(self) -> str:
        if self._header_pending:
            return f"there is nothing to resume: {self._resume_command}"
        return f"the journal is intact and resumable: {self._resume_command}"

    def _guard_free_space(self, incoming_bytes: int) -> None:
        if not self.min_free_bytes:
            return
        try:
            free = shutil.disk_usage(self.path.parent or Path(".")).free
        except OSError:
            return  # cannot stat the filesystem; let the write decide
        if free < max(self.min_free_bytes, incoming_bytes):
            raise DiskSpaceError(
                f"{self.path}: only {free} bytes free on the journal's "
                f"filesystem (floor {self.min_free_bytes}) — pausing "
                f"before the append could tear the journal; free space — "
                f"{self._resume_hint}")

    def _append(self, record: Dict) -> None:
        record = dict(record)
        record["checksum"] = _record_checksum(record)
        line = json.dumps(record, sort_keys=True)
        data = (line + "\n").encode("utf-8")
        self._guard_free_space(len(data))
        try:
            torn = chaos.write_fault("journal", data)
            with open(self.path, "ab") as handle:
                handle.write(data if torn is None else torn)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise classify_write_error(exc, self.path,
                                       self._resume_hint) from exc
        if torn is not None:
            raise JournalWriteError(
                f"{self.path}: torn write — only {len(torn)} of "
                f"{len(data)} bytes reached the disk (crash mid-append); "
                f"{self._resume_hint}")
        chaos.after_write("journal")

    def write_header(self, header_fields: Dict) -> None:
        """Start a fresh journal (truncating any previous one)."""
        if self.path.exists():
            self.path.unlink()
        self._header_pending = True
        self._append({"type": "header", **header_fields})
        self._header_pending = False

    def append_done(self, workload: str, design: str, digest: str,
                    result_payload: Dict) -> None:
        self._append({"type": "done", "workload": workload, "design": design,
                      "config_digest": digest, "result": result_payload})

    def append_failed(self, failure: FailedCell) -> None:
        self._append({"type": "failed", **failure.as_dict()})

    def scan(self) -> Iterator[Tuple[int, str, Optional[Dict]]]:
        """Yield ``(line_number, raw_line, record)`` for every non-blank
        line; ``record`` is None when the line is corrupt (truncated JSON,
        a non-object, or a checksum mismatch).  Never raises on content —
        this is the salvage primitive ``repro doctor`` is built on.
        """
        if not self.path.exists():
            raise JournalError(f"no sweep journal at {self.path}")
        with open(self.path, "r", encoding="utf-8",
                  errors="replace") as handle:
            lines = handle.read().splitlines()
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                good = (isinstance(record, dict)
                        and record.get("checksum") == _record_checksum(record))
            except (json.JSONDecodeError, TypeError):
                good = False
            yield number, line, (record if good else None)

    def read(self) -> Tuple[Dict, Dict[Tuple[str, str], Dict]]:
        """Return ``(header, {(workload, design): last record})``.

        A corrupt or checksum-failing *trailing* line is treated as torn
        by the crash and skipped; corruption anywhere else means the file
        is not a journal we can trust as-is and raises
        :class:`JournalError` naming the repair path — ``repro doctor
        --repair`` quarantines the bad record(s) and rebuilds the journal
        from every checksum-valid one.  Later records for a cell
        supersede earlier ones (a failed cell re-run on resume appends a
        fresh record rather than rewriting).
        """
        entries = list(self.scan())
        records: List[Dict] = []
        for position, (number, _line, record) in enumerate(entries):
            if record is None:
                if position == len(entries) - 1:
                    break  # torn trailing append from a crash: resume re-runs it
                raise JournalError(
                    f"{self.path}: corrupt record at line {number} "
                    f"(mid-file corruption, not a torn append) — run "
                    f"`python -m repro doctor --repair {self.path}` to "
                    f"quarantine it to {self.path.name}.quarantine and "
                    f"rebuild the journal from every intact record")
            records.append(record)
        if not records or records[0].get("type") != "header":
            raise JournalError(
                f"{self.path}: missing journal header — the journal "
                f"cannot identify its sweep; `repro doctor` can only "
                f"salvage journals with an intact header, so re-run the "
                f"sweep with a fresh journal")
        header = records[0]
        cells: Dict[Tuple[str, str], Dict] = {}
        for record in records[1:]:
            if record.get("type") in ("done", "failed"):
                cells[(record["workload"], record["design"])] = record
        return header, cells

    def rewrite_canonical(self, cell_order=None) -> bool:
        """Rewrite as header + the last record per cell, in canonical order.

        Canonical order is the sweep's cell enumeration — ``workloads x
        designs`` from the header, or an explicit ``cell_order`` list of
        ``(workload, design)`` pairs; cells outside the enumeration (e.g.
        after the matrix shrank) sort after it, lexicographically.  A
        resumed or parallel sweep appends records in completion order;
        canonicalizing collapses superseded records and makes the journal
        bytes independent of that order, so an interrupted-and-resumed
        sweep ends with the same journal as an uninterrupted one.

        Atomic and durable: the new content is written to a sibling temp
        file, fsynced, ``os.replace``d over the journal, and the parent
        directory is fsynced so the rename survives power loss.  Returns
        True when the file content changed.
        """
        header, cells = self.read()
        if cell_order is None:
            cell_order = [(workload, design)
                          for workload in header.get("workloads", [])
                          for design in header.get("designs", [])]
        rank = {key: position for position, key in enumerate(cell_order)}
        ordered = sorted(
            cells.items(),
            key=lambda item: (rank.get(item[0], len(rank)), item[0]))
        # Records already carry their checksums; re-dumping with sorted keys
        # reproduces each original line byte for byte.
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(record, sort_keys=True)
                     for _, record in ordered)
        content = "\n".join(lines) + "\n"
        current = self.path.read_text(encoding="utf-8")
        if content == current:
            return False
        temp = self.path.with_name(self.path.name + ".canonical.tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())
        replace_durable(temp, self.path)
        return True


# ----------------------------------------------------------- sweep headers

def sweep_header_fields(base_config, workloads, designs, trace_length: int,
                        seed: int, sampling_plan=None) -> Dict:
    """The journal header both sweep engines write.

    One shared builder keeps the serial and parallel engines byte-identical
    (a pinned invariant).  When any workload is an ``rtrace:`` token, the
    header records that trace's digest so a resume against a re-ingested
    or swapped trace file is refused instead of mixing results.
    """
    fields: Dict = {
        "config": config_to_dict(base_config),
        "config_digest": config_digest(base_config),
        "workloads": list(workloads),
        "designs": list(designs),
        "trace_length": trace_length,
        "seed": seed,
    }
    rtrace_digests = _rtrace_digests(workloads)
    if rtrace_digests:
        fields["rtrace_digests"] = rtrace_digests
    if sampling_plan is not None:
        fields["sampling"] = sampling_plan.to_dict()
    return fields


def _rtrace_digests(workloads) -> Dict[str, str]:
    """token -> trace digest for every ingested-trace workload (cheap:
    header reads only)."""
    from repro.ingest import is_rtrace_token, read_header, rtrace_path

    return {workload: read_header(rtrace_path(workload))["trace_digest"]
            for workload in workloads if is_rtrace_token(workload)}


def verify_rtrace_digests(header: Dict, journal_path) -> None:
    """Refuse to resume a journal whose ingested traces changed on disk.

    Synthetic workloads are pinned by (name, length, seed) in the header;
    ingested traces are files that can be re-ingested or replaced between
    runs, so their digests are checked against the current ``.rtrace``
    headers before any cell is reused.
    """
    digests = header.get("rtrace_digests") or {}
    if not digests:
        return
    from repro.ingest import read_header, rtrace_path
    from repro.resilience.errors import RtraceError

    for token, expected in digests.items():
        path = rtrace_path(token)
        try:
            current = read_header(path)["trace_digest"]
        except RtraceError as exc:
            raise JournalError(
                f"{journal_path}: cannot resume — ingested trace {path} is "
                f"missing or unreadable ({exc}); restore it or start a "
                f"fresh journal") from exc
        if current != expected:
            raise JournalError(
                f"{journal_path}: cannot resume — ingested trace {path} "
                f"changed since the journal was written (digest "
                f"{current[:12]}… != journaled {expected[:12]}…); re-run "
                f"against the original trace or start a fresh journal")


# ------------------------------------------------------------ cell execution

def _run_cell(config, workload: str, trace_length: int, seed: int,
              fault_plan=None, sampling_plan=None):
    """Simulate one (workload, design) cell inline and return its result."""
    from repro.sim.system import SystemSimulator
    from repro.workloads.suite import build_trace, cached_trace, get_workload

    if sampling_plan is not None:
        from repro.sampling import simulate_sampled

        trace = cached_trace(workload, trace_length, seed=seed)
        return simulate_sampled(config, trace, sampling_plan)
    if fault_plan is None:
        # Fault-free cells treat the trace as read-only, so consecutive
        # designs of one sweep row share a memoized copy.
        trace = cached_trace(workload, trace_length, seed=seed)
    else:
        # Fault injection may mutate the trace in place (trace-truncate);
        # build a private copy (a fresh verified load for ingested traces).
        from repro.ingest import is_rtrace_token, load_rtrace, rtrace_path
        if is_rtrace_token(workload):
            trace = load_rtrace(rtrace_path(workload))
        else:
            trace = build_trace(get_workload(workload), trace_length,
                                seed=seed)
    sim = SystemSimulator(config, trace)
    if fault_plan is not None:
        sim.arm_faults(fault_plan)
    return sim.run()


def _cell_worker(connection, config, workload: str, trace_length: int,
                 seed: int, fault_plan,
                 heartbeat_s: Optional[float] = None,
                 sampling_plan=None) -> None:
    """Subprocess entry point: run a cell, ship the outcome over a pipe.

    With ``heartbeat_s``, a daemon thread sends ``("hb",)`` over the pipe
    on that period so a supervisor can tell a *hung* worker (alive but
    silent) from a slow one; the final result/error message shares the
    pipe under a lock, so heartbeats never interleave with it.
    """
    try:
        # A forked worker inherits the parent's signal wakeup fd.  Under
        # an asyncio parent (repro serve) that fd is the event loop's
        # self-pipe, so a signal delivered to the *worker* (e.g. the
        # reaper's terminate()) would be read by the parent's loop as its
        # own and trigger a spurious drain.  Detach it first thing.
        _signal_module.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass  # not the main thread / platform quirk: nothing inherited
    send_lock = threading.Lock()
    stop = threading.Event()
    if heartbeat_s:
        def _beat() -> None:
            while not stop.wait(heartbeat_s):
                try:
                    with send_lock:
                        connection.send(("hb",))
                except OSError:
                    return  # pipe gone: the parent moved on
        threading.Thread(target=_beat, daemon=True).start()
    try:
        result = _run_cell(config, workload, trace_length, seed, fault_plan,
                           sampling_plan)
        with send_lock:
            connection.send(("ok", result.to_dict()))
    except BaseException as exc:  # noqa: BLE001 - the pipe is the error channel
        with send_lock:
            connection.send(("error", type(exc).__name__, str(exc),
                             traceback.format_exc()))
    finally:
        stop.set()
        connection.close()


# ------------------------------------------------------------- cell dispatch

class DuplicateCellError(ReproResilienceError):
    """The same (workload, design) cell was dispatched twice concurrently."""


class _CellTask:
    """Dispatch state for one sweep cell."""

    __slots__ = ("slot", "workload", "design", "config", "digest",
                 "attempts", "ready_at")

    def __init__(self, slot: int, workload: str, design: str, config,
                 digest: str) -> None:
        self.slot = slot              # position in the execution order
        self.workload = workload
        self.design = design
        self.config = config
        self.digest = digest
        self.attempts = 0
        self.ready_at = 0.0           # monotonic time a retry becomes due


class _Running:
    """A task currently executing in a worker process."""

    __slots__ = ("task", "worker", "receiver", "deadline", "last_heartbeat")

    def __init__(self, task: _CellTask, worker, receiver,
                 deadline: Optional[float]) -> None:
        self.task = task
        self.worker = worker
        self.receiver = receiver
        self.deadline = deadline
        self.last_heartbeat = time.monotonic()


class _ParallelDispatcher:
    """The one engine that executes sweep cells, in ``jobs`` slots.

    A slot runs its cell in-process through :func:`_run_cell` when no
    subprocess is needed: one job, no ``isolate``, no per-cell timeout
    and no sweep deadline.  Otherwise every slot runs its cell in a
    watchdogged :func:`_cell_worker` subprocess.  The contract is the
    same either way:

    * transient failures (the per-cell timeout, a worker dying without
      reporting, a hung or over-RSS worker) retry with seeded exponential
      backoff (:func:`retry_delay`) within ``max_retries``;
    * deterministic errors are never retried;
    * when the sweep deadline (``deadline_at``, a ``time.monotonic``
      instant) passes, in-flight workers are killed and every unfinished
      cell degrades with error class ``DeadlineExceeded``;
    * a failure degrades into a :class:`FailedCell` stamped with
      ``shard`` provenance, or raises under ``fail_fast`` (an in-process
      cell raises its own exception, a worker error raises
      :class:`CellError`).

    ``policy``, a :class:`~repro.resilience.supervisor.SupervisionPolicy`,
    supervises every subprocess cell: worker heartbeats, the hung and RSS
    watchdogs, and — above one job — an RSS breach sheds a slot and
    requeues its cell for free.  ``interrupt``, an
    :class:`~repro.resilience.supervisor.InterruptState`, stops dispatch
    when its ``signum`` is set.

    Completion is reported through ``on_complete(task, kind, payload)``
    where ``kind`` is ``"ok"`` (payload: the ``SimulationResult``) or
    ``"failed"`` (payload: a :class:`FailedCell`).  The callback order is
    completion order; callers that need deterministic order re-sequence
    by ``task.slot``.
    """

    def __init__(self, jobs: int, trace_length: int, seed: int, fault_plan,
                 timeout_s: Optional[float], max_retries: int,
                 retry_backoff_s: float, fail_fast: bool,
                 retry_rng=None,
                 deadline_at: Optional[float] = None,
                 sampling_plan=None, policy=None, isolate: bool = False,
                 shard: str = "", interrupt=None) -> None:
        self.jobs = max(1, jobs)
        self.trace_length = trace_length
        self.seed = seed
        self.fault_plan = fault_plan
        self.sampling_plan = sampling_plan
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.fail_fast = fail_fast
        #: shared seeded RNG for deterministic retry-backoff jitter.
        self.retry_rng = (retry_rng if retry_rng is not None
                          else retry_rng_for(seed))
        #: monotonic instant the whole sweep must stop by (None = none).
        self.deadline_at = deadline_at
        self.policy = policy
        #: worker heartbeat period (None: workers send none).
        self.heartbeat_s = ((policy.heartbeat_s or None) if policy is not None
                            else None)
        self.shard = shard
        self.interrupt = interrupt
        self.in_process = not (self.jobs > 1 or isolate
                               or timeout_s is not None
                               or deadline_at is not None)
        method = ("fork"
                  if "fork" in multiprocessing.get_all_start_methods()
                  else "spawn")
        self._context = multiprocessing.get_context(method)
        self._in_flight: Dict[Tuple[str, str], _Running] = {}
        #: cells waiting for a slot, and cells waiting out a retry backoff.
        self._pending: deque = deque()
        self._retries: List[_CellTask] = []

    # ------------------------------------------------------------- lifecycle

    def _spawn(self, task: _CellTask) -> None:
        key = (task.workload, task.design)
        if key in self._in_flight:
            raise DuplicateCellError(
                f"cell ({task.workload}, {task.design}) is already in "
                f"flight — refusing to race two workers on one journal "
                f"record")
        receiver, sender = self._context.Pipe(duplex=False)
        worker = self._context.Process(
            target=_cell_worker,
            args=(sender, task.config, task.workload, self.trace_length,
                  self.seed, self.fault_plan, self.heartbeat_s,
                  self.sampling_plan),
            daemon=True)
        worker.start()
        sender.close()  # parent keeps only the read end
        if chaos.worker_kill_due():
            os.kill(worker.pid, _signal_module.SIGKILL)
        task.attempts += 1
        deadline = (time.monotonic() + self.timeout_s
                    if self.timeout_s is not None else None)
        self._in_flight[key] = _Running(task, worker, receiver, deadline)

    def _reap(self, running: _Running) -> None:
        running.receiver.close()
        if running.worker.is_alive():
            running.worker.terminate()
            running.worker.join(2)
        if running.worker.is_alive():
            running.worker.kill()
            running.worker.join(2)

    def _shutdown(self) -> None:
        for running in list(self._in_flight.values()):
            self._reap(running)
        self._in_flight.clear()

    def _kill(self, running: _Running) -> _CellTask:
        """Stop an in-flight cell's worker; returns its task."""
        task = running.task
        del self._in_flight[(task.workload, task.design)]
        self._reap(running)
        return task

    # -------------------------------------------------------------- outcome

    def _failed(self, task: _CellTask, error_class: str, message: str,
                traceback_text: str = "") -> FailedCell:
        return FailedCell(
            workload=task.workload, design=task.design,
            error_class=error_class, message=message,
            traceback=traceback_text, config_digest=task.digest,
            attempts=task.attempts, shard=self.shard)

    def _transient(self, task: _CellTask, exc, on_complete) -> None:
        """Timeout/crash/hang/RSS: retry with backoff, else degrade (or
        raise).

        With one slot, the slot waits out the backoff and retries this
        cell next (serial order); with more, the cell waits in the retry
        queue while the other slots keep working.
        """
        if task.attempts <= self.max_retries:
            delay = retry_delay(self.retry_backoff_s, task.attempts,
                                self.retry_rng)
            ready_at = time.monotonic() + delay
            if self.deadline_at is None or ready_at < self.deadline_at:
                if self.jobs == 1:
                    self._sleep(delay)
                    self._pending.appendleft(task)
                else:
                    task.ready_at = ready_at
                    self._retries.append(task)
                return
            exc = DeadlineExceeded(
                f"cell ({task.workload}, {task.design}) has no deadline "
                f"budget left for a retry after: {exc}")
        if self.fail_fast:
            raise exc
        on_complete(task, "failed",
                    self._failed(task, type(exc).__name__, str(exc)))

    def _expire_deadline(self, on_complete) -> None:
        """The sweep deadline passed: kill in-flight workers and degrade
        every unfinished cell into a ``DeadlineExceeded`` FailedCell (all
        journaled, so a resume re-runs exactly these cells)."""
        if self.fail_fast:
            raise DeadlineExceeded("sweep deadline exceeded")
        stranded = [self._kill(running)
                    for running in list(self._in_flight.values())]
        stranded.extend(self._retries)
        stranded.extend(self._pending)
        self._retries.clear()
        self._pending.clear()
        for task in stranded:
            on_complete(task, "failed", self._failed(
                task, DeadlineExceeded.__name__,
                f"cell ({task.workload}, {task.design}) unfinished when "
                f"the sweep deadline expired"))

    def _interrupted(self) -> bool:
        return (self.interrupt is not None
                and self.interrupt.signum is not None)

    def _sleep(self, seconds: float) -> None:
        """Sleep, waking every 0.2s to notice a graceful interrupt."""
        while seconds > 0 and not self._interrupted():
            step = seconds if self.interrupt is None else min(seconds, 0.2)
            time.sleep(step)
            seconds -= step

    # ------------------------------------------------------------------ run

    def run(self, tasks: List[_CellTask],
            on_complete: Callable[[_CellTask, str, object], None]) -> None:
        """Dispatch until every task completed — or a graceful interrupt
        was flagged, in which case in-flight workers are reaped and their
        cells simply stay unfinished (the journal already holds every
        flushed record, so resume re-runs them)."""
        self._pending = pending = deque(tasks)
        self._retries = retries = []
        try:
            while pending or retries or self._in_flight:
                if self._interrupted():
                    break
                now = time.monotonic()
                if self.deadline_at is not None and now >= self.deadline_at:
                    self._expire_deadline(on_complete)
                    break
                if self.in_process:
                    self._run_in_process(pending.popleft(), on_complete)
                    continue
                for task in [t for t in retries if t.ready_at <= now]:
                    retries.remove(task)
                    pending.append(task)
                while pending and len(self._in_flight) < self.jobs:
                    self._spawn(pending.popleft())
                if self._in_flight:
                    self._wait(now, on_complete)
                elif retries:
                    self._sleep(min(t.ready_at for t in retries)
                                - time.monotonic())
        finally:
            self._shutdown()

    def _run_in_process(self, task: _CellTask, on_complete) -> None:
        """Run one cell in this process; its errors are deterministic."""
        task.attempts += 1
        try:
            # Looked up in the module namespace at call time, so a wrapper
            # installed on ``runner._run_cell`` sees every in-process cell.
            result = _run_cell(task.config, task.workload,
                               self.trace_length, self.seed,
                               self.fault_plan, self.sampling_plan)
        except Exception as exc:  # noqa: BLE001 - degrade, don't die
            if self.fail_fast:
                raise
            on_complete(task, "failed", self._failed(
                task, type(exc).__name__, str(exc), traceback.format_exc()))
            return
        on_complete(task, "ok", result)

    def _wait(self, now: float, on_complete) -> None:
        """Block until a worker reports or the next timeout, retry or
        watchdog check is due, then settle whatever finished, timed out,
        hung or broke its RSS ceiling."""
        from repro.sim.stats import SimulationResult

        due = [r.deadline for r in self._in_flight.values()
               if r.deadline is not None]
        due.extend(task.ready_at for task in self._retries)
        if self.deadline_at is not None:
            due.append(self.deadline_at)
        timeout = max(0.0, min(due) - now) if due else None
        if self.policy is not None:
            interval = self.policy.check_interval_s
            timeout = interval if timeout is None else min(timeout, interval)
        if self.interrupt is not None:
            # Stay responsive to a pending SIGINT/SIGTERM flag.
            timeout = 0.2 if timeout is None else min(timeout, 0.2)
        by_receiver = {r.receiver: r for r in self._in_flight.values()}
        for receiver in _connection_wait(list(by_receiver), timeout):
            running = by_receiver[receiver]
            task = running.task
            try:
                outcome = receiver.recv()
            except EOFError:
                self._kill(running)
                self._transient(task, CellCrash(
                    f"cell ({task.workload}, {task.design}) worker died "
                    f"without reporting (exit code "
                    f"{running.worker.exitcode})"), on_complete)
                continue
            if outcome[0] == "hb":
                running.last_heartbeat = time.monotonic()
                continue
            self._kill(running)
            if outcome[0] == "ok":
                on_complete(task, "ok",
                            SimulationResult.from_dict(outcome[1]))
                continue
            # Deterministic error: never retried (same input, same crash).
            _, error_class, message, traceback_text = outcome
            if self.fail_fast:
                raise CellError(error_class, message, traceback_text)
            on_complete(task, "failed", self._failed(
                task, error_class, message, traceback_text))
        self._watchdogs(on_complete)

    def _watchdogs(self, on_complete) -> None:
        """Kill and settle workers past their timeout, silent past
        ``hung_after_s``, or over the RSS ceiling."""
        policy = self.policy
        now = time.monotonic()
        for running in list(self._in_flight.values()):
            if running.receiver.poll(0):
                continue  # a result/heartbeat is waiting; let recv see it
            task = running.task
            if running.deadline is not None and running.deadline <= now:
                self._kill(running)
                self._transient(task, CellTimeout(
                    f"cell ({task.workload}, {task.design}) exceeded "
                    f"{self.timeout_s:g}s wall clock"), on_complete)
                continue
            if policy is None:
                continue
            if (self.heartbeat_s and policy.hung_after_s is not None
                    and now - running.last_heartbeat > policy.hung_after_s):
                self._kill(running)
                self._transient(task, CellHung(
                    f"cell ({task.workload}, {task.design}) worker sent no "
                    f"heartbeat for {policy.hung_after_s:g}s — killed as "
                    f"hung"), on_complete)
                continue
            if policy.max_rss_mb is None:
                continue
            rss = worker_rss_bytes(running.worker.pid)
            if rss is None or rss <= policy.max_rss_mb * 2 ** 20:
                continue
            self._kill(running)
            if self.jobs > 1:
                # Memory pressure is a concurrency problem: shed a slot and
                # requeue the cell without spending its retry budget.
                self.jobs -= 1
                task.attempts -= 1
                self._pending.appendleft(task)
            else:
                self._transient(task, CellResourceLimit(
                    f"cell ({task.workload}, {task.design}) worker RSS "
                    f"{rss / 2 ** 20:.0f}MB exceeded the "
                    f"{policy.max_rss_mb:g}MB ceiling with no concurrency "
                    f"left to shed"), on_complete)


# ------------------------------------------------------------------- sweep

def resilient_sweep(base_config, workloads, trace_length: int = 60_000,
                    seed: int = 42, designs=("vipt", "seesaw"),
                    mutate=None, journal_path=None, resume: bool = True,
                    jobs: int = 1, isolate: bool = False,
                    timeout_s: Optional[float] = None,
                    max_retries: int = 1, retry_backoff_s: float = 0.25,
                    fault_plan=None, fail_fast: bool = False, policy=None,
                    deadline_s: Optional[float] = None,
                    retry_rng=None,
                    interrupt_state=None,
                    sampling_plan=None) -> SweepReport:
    """Run a (workload x design) sweep that survives crashes and bad cells.

    Args:
        base_config: the machine every cell derives from via
            ``with_design``.
        workloads: workload names (see ``repro.workloads.suite``).
        trace_length / seed: forwarded to ``build_trace``.
        designs: L1 designs to sweep; duplicates are collapsed, order kept.
        mutate: optional ``f(config, workload) -> config`` hook applied
            once per workload (kept from the classic ``sweep``).
        journal_path: JSONL journal location; None disables journaling.
        resume: with a journal, reuse completed cells whose config digest
            matches instead of re-simulating them.  ``resume=False``
            truncates any existing journal and starts over.
        jobs: cell slots.  Above one, every cell runs in its own worker
            process; the journal bytes and the report are identical for
            every value — only wall-clock time changes.
        isolate: run each cell in a subprocess even at one job (implied
            by ``timeout_s`` and ``deadline_s``).
        timeout_s: wall-clock budget per cell attempt.
        max_retries: extra attempts for transient (timeout, crash, hang,
            RSS) failures; deterministic errors never retry.
        retry_backoff_s: base of the exponential backoff between retries.
        fault_plan: optional :class:`~repro.resilience.faults.FaultPlan`
            armed on every cell (fault-injection campaigns).
        fail_fast: propagate cell errors instead of degrading them into
            :class:`FailedCell` records (classic ``sweep()`` behaviour).
        policy: a :class:`~repro.resilience.supervisor.SupervisionPolicy`
            supervising every subprocess cell (heartbeats, hung and RSS
            watchdogs); its ``min_free_mb`` is the journal's free-disk
            floor at every ``jobs`` value.  ``None`` runs unsupervised
            with the journal's default floor.
        deadline_s: overall wall-clock budget for the sweep.  When it
            expires, in-flight workers are killed and every unfinished
            cell degrades into a ``FailedCell`` with error class
            ``DeadlineExceeded`` — never retried, always journaled,
            re-run on resume.
        retry_rng: a seeded ``random.Random`` for backoff jitter (see
            :func:`retry_delay`); ``None`` derives one from ``seed`` via
            :func:`retry_rng_for`, so the jitter schedule is reproducible.
        interrupt_state: an externally owned
            :class:`~repro.resilience.supervisor.InterruptState` to poll
            instead of trapping SIGINT/SIGTERM here — the seam
            ``repro serve`` uses to drain a request without process
            signals.  Setting its ``signum`` makes the sweep stop
            dispatching, flush, canonicalize, and raise
            :class:`SweepInterrupted` exactly as a real signal would.
        sampling_plan: optional :class:`~repro.sampling.SamplingPlan`
            switching every cell to the sampled lane.  The journal header
            records the plan, cell digests are folded through
            :func:`~repro.sampling.sampling_cell_digest` (so sampled and
            exact records never satisfy each other on resume), and
            combining it with ``fault_plan`` is refused up front.

    Returns:
        a :class:`SweepReport`; ``report.results`` matches the classic
        ``sweep()`` return shape.

    Cells complete out of order above one job, but their records are
    buffered and appended in cell-enumeration order, so the journal
    always holds a clean enumeration-order prefix.  Journaled sweeps trap
    SIGINT/SIGTERM: dispatch stops, completed cells are flushed, the
    journal is canonicalized, and :class:`SweepInterrupted` is raised —
    the interrupted sweep resumes exactly where it stopped.  Journal
    write trouble (ENOSPC, EIO, torn writes, the free-disk floor) pauses
    the sweep instead: the report comes back with ``paused=True`` and a
    ``resume_hint``.
    """
    from repro.sim.stats import SimulationResult
    from repro.workloads.suite import get_workload

    workloads = list(workloads)
    designs = list(designs)
    for design in designs:
        if design not in VALID_DESIGNS:
            raise ValueError(
                f"unknown design {design!r}; valid designs: "
                f"{', '.join(VALID_DESIGNS)}")
    for workload in workloads:
        get_workload(workload)  # typo fails up front, naming valid choices
    if sampling_plan is not None and fault_plan is not None:
        raise ValueError(
            "sampled simulation cannot be combined with fault injection: "
            "extrapolated counters would hide or scale the injected "
            "damage — run the exact lane for fault campaigns")

    journal = SweepJournal(journal_path) if journal_path is not None else None
    if (journal is not None and policy is not None
            and policy.min_free_mb is not None):
        journal.min_free_bytes = int(policy.min_free_mb * 2 ** 20)
    cells = list(dict.fromkeys(
        (workload, design) for workload in workloads for design in designs))
    reused_records: Dict[Tuple[str, str], Dict] = {}
    tasks: List[_CellTask] = []
    # Completion-order outcomes, re-sequenced into enumeration order for
    # the journal: slot N's record is appended only once slots 0..N-1 are
    # written, so the journal is always a clean serial-order prefix.
    outcomes: Dict[int, Tuple[str, object]] = {}
    next_slot = 0

    def append(slot: int) -> None:
        kind, payload = outcomes[slot]
        task = tasks[slot]
        if kind == "ok":
            journal.append_done(task.workload, task.design, task.digest,
                                payload.to_dict())
        else:
            journal.append_failed(payload)

    def on_complete(task: _CellTask, kind: str, payload) -> None:
        nonlocal next_slot
        outcomes[task.slot] = (kind, payload)
        while next_slot < len(tasks) and next_slot in outcomes:
            if journal is not None:
                append(next_slot)
            next_slot += 1

    pause: Optional[JournalWriteError] = None
    with ExitStack() as stack:
        interrupt = interrupt_state
        if interrupt is None and journal is not None:
            # Trap SIGINT/SIGTERM for the whole journaled section — header
            # write through the final flush — so a signal anywhere in it
            # degrades into a graceful, resumable stop.
            interrupt = stack.enter_context(trap_interrupts())
        try:
            done: Dict[Tuple[str, str], Dict] = {}
            if journal is not None:
                if resume and journal.exists():
                    header, done = journal.read()
                    verify_rtrace_digests(header, journal.path)
                else:
                    journal.write_header(sweep_header_fields(
                        base_config, workloads, designs, trace_length, seed,
                        sampling_plan=sampling_plan))
            # mutate is called once per workload (the classic sweep()
            # contract), before the design is applied.
            per_workload_config: Dict[str, object] = {}
            for workload, design in cells:
                if workload not in per_workload_config:
                    per_workload_config[workload] = (
                        mutate(base_config, workload) if mutate
                        else base_config)
                config = per_workload_config[workload].with_design(design)
                digest = config_digest(config)
                if sampling_plan is not None:
                    from repro.sampling import sampling_cell_digest

                    digest = sampling_cell_digest(digest, sampling_plan)
                record = done.get((workload, design))
                if (record is not None and record.get("type") == "done"
                        and record.get("config_digest") == digest):
                    reused_records[(workload, design)] = record
                    continue
                tasks.append(
                    _CellTask(len(tasks), workload, design, config, digest))
            _ParallelDispatcher(
                jobs=jobs, trace_length=trace_length, seed=seed,
                fault_plan=fault_plan, timeout_s=timeout_s,
                max_retries=max_retries, retry_backoff_s=retry_backoff_s,
                fail_fast=fail_fast, retry_rng=retry_rng,
                deadline_at=(time.monotonic() + deadline_s
                             if deadline_s is not None else None),
                sampling_plan=sampling_plan, policy=policy, isolate=isolate,
                interrupt=interrupt).run(tasks, on_complete)
            if journal is not None:
                # Flush completed cells still buffered past an unfinished
                # slot (only an interrupt leaves any); rewrite_canonical
                # restores enumeration order below.
                for slot in sorted(s for s in outcomes if s >= next_slot):
                    append(slot)
        except JournalWriteError as exc:
            pause = exc
        if journal is not None and journal.exists():
            # Collapse superseded records and order by cell enumeration,
            # so a resumed sweep leaves the same journal bytes as an
            # uninterrupted one (no-op when already canonical).
            try:
                journal.rewrite_canonical(cells)
            except (JournalError, OSError):
                pass  # disk trouble: the append-order journal stays valid
    interrupted = interrupt is not None and interrupt.signum is not None
    if interrupted and pause is None and len(outcomes) < len(tasks):
        raise SweepInterrupted(interrupt.signum,
                               journal.path if journal is not None else None)

    finished = {(tasks[slot].workload, tasks[slot].design): outcome
                for slot, outcome in outcomes.items()}
    for cell, record in reused_records.items():
        finished[cell] = ("ok", SimulationResult.from_dict(record["result"]))
    results: Dict[str, Dict] = {
        workload: {} for workload in dict.fromkeys(workloads)}
    failures: List[FailedCell] = []
    for workload, design in cells:
        kind, payload = finished.get((workload, design), (None, None))
        if kind == "ok":
            results[workload][design] = payload
        elif kind == "failed":
            failures.append(payload)
    report = SweepReport(results=results, failures=failures,
                         reused=len(reused_records), executed=len(outcomes))
    if pause is not None:
        report.paused = True
        report.pause_reason = str(pause)
        report.resume_hint = journal._resume_command
    return report
