"""The asyncio HTTP/JSON-RPC simulation server behind ``repro serve``.

Stdlib only: an :func:`asyncio.start_server` loop speaks just enough
HTTP/1.1 for ``POST /rpc`` (JSON-RPC 2.0, batches allowed) plus
``GET /healthz`` / ``GET /readyz``.  Simulation jobs run on a thread
pool and dispatch onto the sweep engine
(:func:`~repro.resilience.runner.resilient_sweep`), so every robustness
property of the CLI — journaling, retries, watchdogs, chaos hooks —
holds per request.

Robustness model:

* **Admission control.**  A request must pass, in order: the drain
  flag, the per-client token bucket, and the bounded pending pool.
  Each rejection is a *structured* JSON-RPC error with a retry hint —
  an overloaded server answers fast, it never hangs or silently drops.
  A pool rejection refunds the quota token it charged, so backoff from
  an overloaded pool never compounds into quota exhaustion.  A request
  identical to one already in flight bypasses the pool entirely: it
  attaches as a second waiter on the live job (one journal writer per
  digest, zero duplicate simulation).
* **Deadlines.**  A request's ``deadline_s`` (or the server default)
  covers queueing *and* execution: a job that cannot get worker slots
  in time fails with ``DeadlineExceeded`` without simulating anything,
  and when a running job's remaining budget expires its unfinished
  cells degrade to ``DeadlineExceeded``.
* **Readiness.**  ``/readyz`` evaluates the supervisor's RSS/disk
  guards (:func:`~repro.resilience.supervisor.host_readiness`) against
  the spool directory; a breached guard or an active drain answers 503
  so load balancers stop routing new work before a sweep would pause.
* **Graceful drain.**  SIGINT/SIGTERM (or the ``shutdown`` method)
  flips every active job's interrupt seam — the same mechanism as the
  CLI's signal trap — so in-flight cells flush through the
  enumeration-order journal buffer, journals canonicalize, and waiting
  clients receive an ``interrupted`` payload with a resume token.  The
  process then exits ``128 + signum`` (130/143), or 0 for a clean
  ``shutdown`` call, per the documented exit-code contract.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

from repro.resilience.errors import (
    EXIT_INTERRUPT_BASE,
    AdmissionError,
    DeadlineExceeded,
    PoolOverloaded,
    ServerDraining,
    SweepInterrupted,
)
from repro.resilience.supervisor import SupervisionPolicy, host_readiness
from repro.serve import jobs as jobs_mod
from repro.serve import protocol
from repro.serve.cache import ResultCache
from repro.serve.pending import Job, PendingPool
from repro.serve.protocol import ProtocolError
from repro.serve.quota import QuotaRegistry

__all__ = ["ServeConfig", "SimulationServer", "serve_in_thread"]


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to stand up a server."""

    host: str = "127.0.0.1"
    port: int = 0
    port_file: Optional[Path] = None
    #: worker slots shared by all requests (a request's ``jobs`` param is
    #: clamped to this).
    jobs: int = 2
    max_pending: int = 8
    quota_capacity: float = 16.0
    quota_refill_per_s: float = 4.0
    spool: Path = field(default_factory=lambda: Path("serve-spool"))
    cache_capacity: int = 256
    #: default per-cell watchdog / retry budget when a request names none.
    timeout_s: Optional[float] = 30.0
    retries: int = 1
    retry_backoff_s: float = 0.25
    #: default whole-request deadline when a request names none (None =
    #: unbounded).
    deadline_s: Optional[float] = None
    policy: Optional[SupervisionPolicy] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("serve needs at least one worker slot")
        self.spool = Path(self.spool)


class SimulationServer:
    """One ``repro serve`` process: admission, execution, drain."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        config.spool.mkdir(parents=True, exist_ok=True)
        self.pool = PendingPool(max_pending=config.max_pending)
        self.quota = QuotaRegistry(capacity=config.quota_capacity,
                                   refill_per_s=config.quota_refill_per_s)
        self.cache = ResultCache(capacity=config.cache_capacity,
                                 directory=config.spool / "cache")
        self.draining = False
        self.started_at = time.monotonic()
        self.bound_port: Optional[int] = None
        #: set once the listener is bound (``serve_in_thread`` waits on it).
        self.ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._exit_code = 0
        self._done: Optional[asyncio.Event] = None
        self._drain_signum: Optional[int] = None
        self._job_tasks: Set[asyncio.Task] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        # One live job per request digest: duplicates of an in-flight
        # request attach to its task instead of racing it on the shared
        # spool journal.  Touched only from the event-loop thread.
        self._active_by_digest: Dict[str, Tuple[Job, asyncio.Task]] = {}
        #: requests served by attaching to an in-flight duplicate.
        self.deduped = 0
        self.exit_code: Optional[int] = None
        # Simulations run on threads; each job occupies one thread for its
        # whole life, so size the pool to the admission bound, not to the
        # worker-slot count (slots gate *simulation* concurrency).
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=config.max_pending,
            thread_name_prefix="repro-serve-job")
        self._slots = asyncio.Semaphore(config.jobs)
        # Serializes multi-slot acquisition so two wide jobs can't
        # deadlock by each holding half the slots.
        self._slot_order = asyncio.Lock()

    # ------------------------------------------------------------ lifecycle

    def run_forever(self) -> int:
        """Serve until drained; returns the process exit code."""
        return asyncio.run(self._main())

    async def _main(self) -> int:
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._loop.add_signal_handler(
                    signum, self._begin_drain,
                    EXIT_INTERRUPT_BASE + signum, signum)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main-thread (tests) or exotic platform: drain is
                # still reachable via begin_drain_threadsafe / shutdown.
                pass
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.bound_port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file is not None:
            Path(self.config.port_file).write_text(
                f"{self.bound_port}\n", encoding="ascii")
        self.ready.set()
        await self._done.wait()
        await self._drain()
        return self._exit_code

    def _begin_drain(self, exit_code: int, signum: Optional[int]) -> None:
        """Flip the drain flag and interrupt every active job (loop thread)."""
        if self.draining:
            return
        self.draining = True
        self._exit_code = exit_code
        self._drain_signum = signum
        if signum is not None:
            self.pool.interrupt_active(signum)
        if self._done is not None:
            self._done.set()

    def begin_drain_threadsafe(self, exit_code: int,
                               signum: Optional[int]) -> None:
        """Drain entry point for other threads (tests, embedding)."""
        if self._loop is None or self._loop.is_closed():
            return  # never started, or already drained and exited
        try:
            self._loop.call_soon_threadsafe(self._begin_drain,
                                            exit_code, signum)
        except RuntimeError:
            pass  # the loop closed between the check and the call

    async def _drain(self) -> None:
        """Stop accepting, let interrupted jobs flush, answer waiters."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Interrupted jobs raise SweepInterrupted once their in-flight
        # cell finishes; their waiting clients get 'interrupted' payloads
        # through the normal response path before we exit.
        if self._job_tasks:
            # gather order is unobservable  # simlint: disable=SL002
            await asyncio.gather(*list(self._job_tasks),
                                 return_exceptions=True)
        # Let handlers that were awaiting those jobs write their
        # 'interrupted' responses before the loop shuts down.
        if self._conn_tasks:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(  # simlint: disable=SL002
                        *list(self._conn_tasks),
                        return_exceptions=True), 10)
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------- HTTP layer

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            status, body = 500, b"{}"
            try:
                request_line = await asyncio.wait_for(reader.readline(), 30)
                parts = request_line.decode("latin-1").split()
                if len(parts) < 2:
                    return
                verb, target = parts[0], parts[1]
                headers: Dict[str, str] = {}
                while True:
                    line = await asyncio.wait_for(reader.readline(), 30)
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                status, body = await self._route(
                    verb, target, headers, reader, writer)
            except (asyncio.TimeoutError, ConnectionError,
                    UnicodeDecodeError):
                return
            except ProtocolError as exc:
                payload = protocol.error_response(None, exc.code,
                                                 exc.message, exc.data)
                status, body = 400, protocol.encode_response(payload)
            except Exception as exc:  # noqa: BLE001 - answer, don't die
                payload = protocol.error_response(
                    None, protocol.INTERNAL_ERROR,
                    f"internal error: {type(exc).__name__}: {exc}")
                status, body = 500, protocol.encode_response(payload)
            with contextlib.suppress(ConnectionError):
                writer.write(protocol.http_response(status, body))
                await writer.drain()
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    async def _route(self, verb, target, headers, reader, writer):
        if verb == "GET" and target == "/healthz":
            return 200, protocol.encode_response(
                {"status": "draining" if self.draining else "alive",
                 "uptime_s": round(time.monotonic() - self.started_at, 1)})
        if verb == "GET" and target == "/readyz":
            return self._readiness()
        if verb != "POST":
            return 405, protocol.encode_response(
                protocol.error_response(None, protocol.INVALID_REQUEST,
                                        f"{verb} not supported; POST /rpc"))
        if target not in ("/rpc", "/"):
            return 404, protocol.encode_response(
                protocol.error_response(None, protocol.INVALID_REQUEST,
                                        f"no such endpoint {target}"))
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ProtocolError(protocol.INVALID_REQUEST,
                                "bad Content-Length")
        if length > protocol.MAX_BODY_BYTES:
            return 413, protocol.encode_response(protocol.error_response(
                None, protocol.INVALID_REQUEST,
                f"request body is {length} bytes; "
                f"limit {protocol.MAX_BODY_BYTES}"))
        raw = await asyncio.wait_for(reader.readexactly(length), 60)
        client = headers.get("x-client") or self._peer_name(writer)
        return await self._handle_rpc(raw, client)

    def _readiness(self):
        guards = self.config.policy or SupervisionPolicy()
        ready, checks = host_readiness(self.config.spool,
                                       max_rss_mb=guards.max_rss_mb,
                                       min_free_mb=guards.min_free_mb)
        if self.draining:
            ready = False
            checks["reasons"].append("server is draining")
        checks["ready"] = ready
        checks["pool"] = self.pool.snapshot()
        checks["quota"] = self.quota.snapshot()
        checks["cache"] = self.cache.snapshot()
        return (200 if ready else 503), protocol.encode_response(checks)

    @staticmethod
    def _peer_name(writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        return peer[0] if isinstance(peer, tuple) else "unknown"

    # ------------------------------------------------------------ dispatch

    async def _handle_rpc(self, raw: bytes, client: str):
        payload = protocol.parse_request(raw)
        if isinstance(payload, list):
            answers = []
            for element in payload:
                answers.append(await self._dispatch_one(element, client))
            return 200, protocol.encode_response(answers)
        return 200, protocol.encode_response(
            await self._dispatch_one(payload, client))

    async def _dispatch_one(self, request, client: str) -> Dict:
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            request_id, method, params = protocol.check_envelope(request)
            if method == "status":
                return protocol.result_response(request_id,
                                                self._status(params))
            if method == "shutdown":
                # Answer first, then drain: the caller gets its ack.
                asyncio.get_running_loop().call_soon(
                    self._begin_drain, 0, None)
                return protocol.result_response(
                    request_id, {"state": "draining", "exit_code": 0})
            return await self._submit(request_id, method, params, client)
        except ProtocolError as exc:
            return protocol.error_response(request_id, exc.code,
                                           exc.message, exc.data)
        except AdmissionError as exc:
            return protocol.admission_error_response(request_id, exc)
        except Exception as exc:  # noqa: BLE001 - per-request containment
            return protocol.error_response(
                request_id, protocol.INTERNAL_ERROR,
                f"internal error: {type(exc).__name__}: {exc}")

    def _status(self, params: Dict) -> Dict:
        token = params.get("job_id") or params.get("resume_token")
        if token:
            job = self.pool.find(token)  # raises JobNotFound
            out = job.summary()
            if job.payload is not None:
                out["result"] = job.payload
            return out
        return {
            "draining": self.draining,
            "uptime_s": round(time.monotonic() - self.started_at, 1),
            "worker_slots": self.config.jobs,
            "deduped": self.deduped,
            "pool": self.pool.snapshot(),
            "quota": self.quota.snapshot(),
            "cache": self.cache.snapshot(),
            "active": [job.summary() for job in self.pool.active()],
        }

    async def _submit(self, request_id, method: str, params: Dict,
                      client: str) -> Dict:
        if self.draining:
            raise ServerDraining(
                "server is draining; resubmit to the restarted server "
                "(interrupted requests resume via their resume_token)")
        validated = protocol.validate_params(method, params)
        token = validated.get("resume_token")
        if token is not None and "workloads" not in validated:
            # Bare token: reconstruct the canonical params from the spool.
            spooled = jobs_mod.load_request_params(self.config.spool, token)
            for key, value in spooled.items():
                validated.setdefault(key, value)
        # The clamp ServeConfig promises: a request never simulates wider
        # than the worker slots it can hold.
        validated["jobs"] = min(validated["jobs"], self.config.jobs)
        digest = jobs_mod.request_digest(validated)

        # Duplicate of an in-flight request: attach as a waiter on the
        # live job instead of running a second writer against the shared
        # <spool>/<digest>.jsonl journal.
        active = self._active_by_digest.get(digest)
        if active is not None and not active[1].done():
            dup_job, dup_task = active
            self.quota.take(client)
            self.deduped += 1
            if not validated["wait"]:
                return protocol.result_response(request_id, {
                    "state": "attached",
                    "job_id": dup_job.id,
                    "resume_token": dup_job.resume_token,
                    "poll": {"method": "status",
                             "params": {"job_id": dup_job.id}},
                })
            # shield: a dropped duplicate waiter must not cancel the
            # job its originator is still waiting on.
            payload = await asyncio.shield(dup_task)
            return protocol.result_response(request_id, payload)

        self.quota.take(client)
        deadline_s = validated.get("deadline_s", self.config.deadline_s)
        deadline_at = (time.monotonic() + deadline_s
                       if deadline_s is not None else None)
        try:
            job = self.pool.admit(client, method, validated, digest,
                                  slots=validated["jobs"],
                                  deadline_at=deadline_at)
        except PoolOverloaded:
            # The request was never served; give the token back so a
            # client backing off from an overloaded pool isn't also
            # marched toward quota exhaustion.
            self.quota.refund(client)
            raise
        task = asyncio.get_running_loop().create_task(self._run_job(job))
        self._job_tasks.add(task)
        self._active_by_digest[digest] = (job, task)

        def _job_finished(done_task: asyncio.Task, *,
                          digest: str = digest) -> None:
            self._job_tasks.discard(done_task)
            entry = self._active_by_digest.get(digest)
            if entry is not None and entry[1] is done_task:
                del self._active_by_digest[digest]

        task.add_done_callback(_job_finished)
        if not validated["wait"]:
            return protocol.result_response(request_id, {
                "state": "accepted",
                "job_id": job.id,
                "resume_token": job.resume_token,
                "poll": {"method": "status",
                         "params": {"job_id": job.id}},
            })
        payload = await task
        return protocol.result_response(request_id, payload)

    # ------------------------------------------------------------ execution

    async def _acquire_slots(self, job: Job) -> int:
        """Take ``job.slots`` semaphore slots, respecting the deadline."""
        acquired = 0
        remaining = job.remaining_s()
        async with self._slot_order:
            try:
                for _ in range(job.slots):
                    remaining = job.remaining_s()
                    if remaining is None:
                        await self._slots.acquire()
                    else:
                        await asyncio.wait_for(self._slots.acquire(),
                                               max(0.0, remaining))
                    acquired += 1
            except asyncio.TimeoutError:
                for _ in range(acquired):
                    self._slots.release()
                raise DeadlineExceeded(
                    f"job {job.id} spent its whole deadline queued for "
                    f"worker slots ({self.config.jobs} total)") from None
        return acquired

    async def _run_job(self, job: Job) -> Dict:
        loop = asyncio.get_running_loop()
        try:
            acquired = await self._acquire_slots(job)
        except DeadlineExceeded as exc:
            payload = {
                "state": "failed", "job_id": job.id,
                "resume_token": job.resume_token,
                "simulated": 0,
                "failures": [{"error_class": "DeadlineExceeded",
                              "message": str(exc),
                              "shard": jobs_mod.execution_host()}],
            }
            self.pool.mark(job, "failed", payload)
            return payload
        self.pool.mark(job, "running")
        try:
            payload = await loop.run_in_executor(
                self._executor, self._execute, job)
            self.pool.mark(job, payload.get("state", "done"), payload)
            return payload
        except SweepInterrupted as exc:
            payload = jobs_mod.interrupted_payload(job, exc,
                                                  self.config.spool)
            self.pool.mark(job, "interrupted", payload)
            return payload
        except Exception as exc:  # noqa: BLE001 - degrade, don't die
            payload = {
                "state": "failed", "job_id": job.id,
                "resume_token": job.resume_token,
                "failures": [{"error_class": type(exc).__name__,
                              "message": str(exc),
                              "shard": jobs_mod.execution_host()}],
            }
            self.pool.mark(job, "failed", payload)
            return payload
        finally:
            for _ in range(acquired):
                self._slots.release()

    def _execute(self, job: Job) -> Dict:
        return jobs_mod.execute_job(
            job, self.config.spool, self.cache,
            policy=self.config.policy,
            retry_backoff_s=self.config.retry_backoff_s,
            default_timeout_s=self.config.timeout_s,
            default_retries=self.config.retries)


@contextlib.contextmanager
def serve_in_thread(config: ServeConfig):
    """Run a :class:`SimulationServer` on a background thread (tests).

    Yields the server once its listener is bound; on exit, drains it
    cleanly (exit code 0) and joins the thread.
    """
    server = SimulationServer(config)
    outcome: Dict = {}

    def _run() -> None:
        outcome["exit_code"] = server.run_forever()

    thread = threading.Thread(target=_run, daemon=True,
                              name="repro-serve-test")
    thread.start()
    if not server.ready.wait(30):
        raise RuntimeError("serve_in_thread: server never became ready")
    try:
        yield server
    finally:
        server.begin_drain_threadsafe(0, None)
        thread.join(60)
        server.exit_code = outcome.get("exit_code")
