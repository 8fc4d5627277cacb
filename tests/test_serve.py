"""Tests for the ``repro serve`` simulation service."""

import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.resilience.errors import (
    JobNotFound,
    PoolOverloaded,
    QuotaExceeded,
)
from repro.serve.cache import ResultCache, result_key
from repro.serve.pending import PendingPool
from repro.serve.protocol import (
    INVALID_PARAMS,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    ProtocolError,
    check_envelope,
    parse_request,
    validate_params,
)
from repro.serve.quota import QuotaRegistry, TokenBucket

SMALL = {"workload": "gups", "length": 1500}


# --------------------------------------------------------------- protocol

class TestProtocol:
    def test_bad_json_is_parse_error(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b"{nope")
        assert info.value.code == PARSE_ERROR

    def test_non_object_is_invalid_request(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b'"hello"')
        assert info.value.code == INVALID_REQUEST

    def test_unknown_method(self):
        with pytest.raises(ProtocolError) as info:
            check_envelope({"jsonrpc": "2.0", "id": 1, "method": "explode"})
        assert info.value.code == METHOD_NOT_FOUND
        assert "run" in str(info.value)  # names the valid methods

    def test_run_folds_to_one_cell_sweep(self):
        out = validate_params("run", {"workload": "gups"})
        assert out["workloads"] == ["gups"]
        assert out["designs"] == ["seesaw"]
        assert out["length"] == 20_000 and out["seed"] == 42

    def test_unknown_param_names_valid_forms(self):
        with pytest.raises(ProtocolError) as info:
            validate_params("sweep", {"workloads": ["gups"], "bogus": 1})
        assert info.value.code == INVALID_PARAMS
        assert "bogus" in str(info.value)
        assert "designs" in str(info.value)  # the valid forms

    def test_unknown_workload_names_suite(self):
        with pytest.raises(ProtocolError) as info:
            validate_params("sweep", {"workloads": ["doom"]})
        assert "gups" in str(info.value)

    def test_out_of_range_memhog(self):
        with pytest.raises(ProtocolError) as info:
            validate_params("run", {"workload": "gups", "memhog": 0.9})
        assert info.value.code == INVALID_PARAMS

    def test_bare_token_skips_sim_validation(self):
        token = "ab" * 32  # well-formed 64-hex-char digest
        out = validate_params("sweep", {"resume_token": token})
        assert out["resume_token"] == token
        assert "workloads" not in out

    def test_malformed_resume_token_rejected(self):
        # Tokens are digests; anything else — especially path
        # separators — must die in validation, before the server ever
        # builds a spool path from it.
        for bad in ("abc123", "../../etc/passwd", "A" * 64,
                    "ab" * 31 + "/x", ""):
            with pytest.raises(ProtocolError) as info:
                validate_params("sweep", {"resume_token": bad})
            assert info.value.code == INVALID_PARAMS

    def test_traversal_token_never_touches_fs(self, tmp_path):
        from repro.serve.jobs import load_request_params
        outside = tmp_path / "outside.request.json"
        outside.write_text(json.dumps({"workloads": ["gups"]}))
        spool = tmp_path / "spool"
        spool.mkdir()
        with pytest.raises(JobNotFound):
            load_request_params(spool, "../outside")

    def test_sweep_defaults_cover_full_suite(self):
        from repro.workloads.suite import WORKLOADS
        out = validate_params("sweep", {})
        assert out["workloads"] == sorted(WORKLOADS)
        assert out["designs"] == ["vipt", "seesaw"]


class TestRequestDigest:
    def test_scheduling_knobs_do_not_change_identity(self):
        from repro.serve.jobs import request_digest
        a = validate_params("run", dict(SMALL))
        b = validate_params("run", dict(SMALL, jobs=4, wait=False,
                                        deadline_s=9.0))
        assert request_digest(a) == request_digest(b)

    def test_sim_params_change_identity(self):
        from repro.serve.jobs import request_digest
        a = validate_params("run", dict(SMALL))
        b = validate_params("run", dict(SMALL, seed=43))
        assert request_digest(a) != request_digest(b)


# ------------------------------------------------------------------ quota

class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestQuota:
    def test_bucket_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, refill_per_s=1.0, clock=clock)
        assert bucket.try_take() == (True, 0.0)
        assert bucket.try_take() == (True, 0.0)
        ok, retry = bucket.try_take()
        assert not ok and retry == pytest.approx(1.0)
        clock.now += 1.0
        assert bucket.try_take() == (True, 0.0)

    def test_zero_refill_reports_infinite_wait(self):
        bucket = TokenBucket(capacity=1, refill_per_s=0.0,
                             clock=FakeClock())
        bucket.try_take()
        ok, retry = bucket.try_take()
        assert not ok and retry == float("inf")

    def test_registry_rejects_with_retry_hint(self):
        clock = FakeClock()
        registry = QuotaRegistry(capacity=1, refill_per_s=2.0, clock=clock)
        registry.take("alice")
        with pytest.raises(QuotaExceeded) as info:
            registry.take("alice")
        assert info.value.rpc_code == -32002
        assert info.value.data["retry_after_s"] == pytest.approx(0.5)
        # other clients are unaffected
        registry.take("bob")
        assert registry.snapshot()["rejected"] == 1

    def test_deterministic_under_fake_clock(self):
        outcomes = []
        for _ in range(2):
            clock = FakeClock()
            registry = QuotaRegistry(capacity=3, refill_per_s=1.0,
                                     clock=clock)
            grants = []
            for step in range(8):
                clock.now += 0.4
                try:
                    registry.take("c")
                    grants.append(True)
                except QuotaExceeded:
                    grants.append(False)
            outcomes.append(grants)
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------- pending pool

class TestPendingPool:
    def test_overload_is_structured(self):
        pool = PendingPool(max_pending=1)
        pool.admit("a", "run", {}, "d1")
        with pytest.raises(PoolOverloaded) as info:
            pool.admit("a", "run", {}, "d2")
        assert info.value.rpc_code == -32001
        assert info.value.data["max_pending"] == 1
        assert "retry_after_s" in info.value.data

    def test_finished_jobs_free_the_pool(self):
        pool = PendingPool(max_pending=1)
        job = pool.admit("a", "run", {}, "d1")
        pool.mark(job, "done", {"state": "done"})
        pool.admit("a", "run", {}, "d2")  # does not raise

    def test_find_by_id_or_token(self):
        pool = PendingPool()
        job = pool.admit("a", "run", {}, "digest-xyz")
        assert pool.find(job.id) is job
        assert pool.find("digest-xyz") is job
        with pytest.raises(JobNotFound):
            pool.find("nope")

    def test_interrupt_active_flips_seams(self):
        pool = PendingPool()
        running = pool.admit("a", "run", {}, "d1")
        finished = pool.admit("a", "run", {}, "d2")
        pool.mark(finished, "done")
        flipped = pool.interrupt_active(signal.SIGTERM)
        assert flipped == [running]
        assert running.interrupt.signum == signal.SIGTERM
        assert finished.interrupt.signum is None


# ------------------------------------------------------------------ cache

class TestResultCache:
    def test_memory_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refresh a
        cache.put("c", {"v": 3})  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.hits == 2 and cache.misses == 1

    def test_disk_tier_survives_new_instance(self, tmp_path):
        first = ResultCache(capacity=4, directory=tmp_path)
        first.put("k", {"ipc": 1.5})
        second = ResultCache(capacity=4, directory=tmp_path)
        assert second.get("k") == {"ipc": 1.5}

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(capacity=4, directory=tmp_path)
        cache.put("k", {"ipc": 1.5})
        path = tmp_path / "k.result.json"
        path.write_text(path.read_text()[:-20] + "GARBAGE")
        fresh = ResultCache(capacity=4, directory=tmp_path)
        assert fresh.get("k") is None

    def test_result_key_is_order_sensitive(self):
        assert result_key("aa", "bb") != result_key("bb", "aa")

    def test_equal_put_leaves_the_disk_entry_alone(self, tmp_path):
        cache = ResultCache(capacity=4, directory=tmp_path)
        cache.put("k", {"ipc": 1.5})
        before = (tmp_path / "k.result.json").stat()
        cache.put("k", {"ipc": 1.5})
        after = (tmp_path / "k.result.json").stat()
        assert (after.st_ino, after.st_mtime_ns) \
            == (before.st_ino, before.st_mtime_ns)
        cache.put("k", {"ipc": 2.5})
        assert ResultCache(directory=tmp_path).get("k") == {"ipc": 2.5}

    def test_repeated_request_rewrites_no_cache_entry(self, tmp_path):
        """A request served wholly from the journal and cache publishes
        nothing: its cache file keeps its inode and mtime."""
        from repro.serve.jobs import execute_job, request_digest
        from repro.serve.pending import Job

        spool = tmp_path / "spool"
        spool.mkdir()
        cache = ResultCache(directory=tmp_path / "cache")
        params = validate_params("run", dict(SMALL))

        def answer():
            job = Job(id="job-1", client="test", method="run",
                      params=params, digest=request_digest(params))
            return execute_job(job, spool, cache)

        first = answer()
        [entry] = (tmp_path / "cache").glob("*.result.json")
        before = entry.stat()
        second = answer()
        after = entry.stat()
        assert first["simulated"] == 1 and second["simulated"] == 0
        assert second["results"] == first["results"]
        assert (after.st_ino, after.st_mtime_ns) \
            == (before.st_ino, before.st_mtime_ns)


# -------------------------------------------------- deterministic jitter

class TestRetryJitter:
    def test_delay_sequence_is_seed_deterministic(self):
        from repro.resilience.runner import retry_delay, retry_rng_for
        sequences = []
        for _ in range(2):
            rng = retry_rng_for(42)
            sequences.append([retry_delay(0.25, attempt, rng)
                              for attempt in range(1, 6)])
        assert sequences[0] == sequences[1]
        # a different seed jitters differently
        other = [retry_delay(0.25, attempt, retry_rng_for(43))
                 for attempt in range(1, 6)]
        assert other != sequences[0]

    def test_jitter_bounds_and_cap(self):
        from repro.resilience.runner import (
            MAX_RETRY_BACKOFF_S,
            retry_delay,
            retry_rng_for,
        )
        rng = retry_rng_for(7)
        for attempt in range(1, 12):
            base = 0.25 * 2 ** (attempt - 1)
            delay = retry_delay(0.25, attempt, rng)
            assert delay <= MAX_RETRY_BACKOFF_S
            if base <= MAX_RETRY_BACKOFF_S:
                assert delay >= min(base, MAX_RETRY_BACKOFF_S) or \
                    delay == MAX_RETRY_BACKOFF_S
                if base * 1.5 < MAX_RETRY_BACKOFF_S:
                    assert base <= delay <= base * 1.5

    def test_no_rng_means_plain_exponential(self):
        from repro.resilience.runner import retry_delay
        assert retry_delay(0.25, 1) == 0.25
        assert retry_delay(0.25, 3) == 1.0

    def test_sweep_jitter_reproducible_across_runs(self, tmp_path,
                                                   monkeypatch):
        """Two identical chaos-retry sweeps sleep identical schedules."""
        from repro import cli

        schedules = []
        for attempt in range(2):
            sleeps = []
            monkeypatch.setattr(
                "repro.resilience.runner.time.sleep",
                lambda s: sleeps.append(round(s, 6)))
            journal = tmp_path / f"jitter{attempt}.jsonl"
            assert cli.main(
                ["sweep", "--workloads", "gups", "--length", "1500",
                 "--isolate", "--retries", "2", "--chaos", "worker-kill@0",
                 "--journal", str(journal)]) == 0
            schedules.append(sleeps)
        assert schedules[0]  # the kill forced at least one retry sleep
        assert schedules[0] == schedules[1]


# ------------------------------------------------------------ the server

@pytest.fixture
def serve(tmp_path):
    """Factory: boot an in-thread server over a shared spool."""
    import contextlib

    from repro.serve.server import ServeConfig, serve_in_thread

    stack = contextlib.ExitStack()

    def _boot(**overrides):
        options = dict(port=0, jobs=2, spool=tmp_path / "spool",
                       timeout_s=60.0)
        options.update(overrides)
        return stack.enter_context(serve_in_thread(ServeConfig(**options)))

    yield _boot
    stack.close()


def _client(server, name="test"):
    from repro.serve.client import ServeClient
    return ServeClient(port=server.bound_port, client_id=name,
                       timeout_s=120.0)


class TestServer:
    def test_health_and_readiness(self, serve):
        client = _client(serve())
        assert client.get("/healthz")["status"] == "alive"
        ready = client.get("/readyz")
        assert ready["ready"] is True
        assert "free_disk_mb" in ready

    def test_duplicate_request_simulates_zero_cells(self, serve):
        client = _client(serve())
        first = client.call("run", dict(SMALL))
        assert first["state"] == "done" and first["simulated"] == 1
        second = client.call("run", dict(SMALL))
        assert second["simulated"] == 0
        assert second["reused_journal"] == 1
        assert second["results"] == first["results"]

    def test_cache_preseeds_overlapping_request(self, serve):
        client = _client(serve())
        client.call("run", dict(SMALL, design="vipt"))
        sweep = client.call("sweep", {
            "workloads": ["gups"], "designs": ["vipt", "seesaw"],
            "length": SMALL["length"]})
        # the vipt cell came from the cache; only seesaw simulated
        assert sweep["reused_cache"] == 1
        assert sweep["simulated"] == 1
        assert sweep["improvements"][0]["baseline"] == "vipt"

    def test_cache_survives_server_restart(self, serve):
        client = _client(serve())
        client.call("run", dict(SMALL, seed=7))
        fresh = _client(serve())  # same spool, new server + empty memory
        # different request digest (other designs) but one shared cell
        out = fresh.call("sweep", {
            "workloads": ["gups"], "designs": ["seesaw", "vivt"],
            "length": SMALL["length"], "seed": 7})
        assert out["reused_cache"] == 1

    def test_overload_is_structured_429(self, serve):
        # Ample quota: this test must hit the *pool* bound, not the
        # per-client bucket.
        server = serve(jobs=1, max_pending=1,
                       quota_capacity=1000, quota_refill_per_s=1000)
        client = _client(server)
        with ThreadPoolExecutor(2) as pool:
            blocker = pool.submit(
                client.call, "sweep",
                {"workloads": ["gups", "mcf"],
                 "designs": ["vipt", "seesaw"], "length": 20_000})
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not server.pool.active():
                time.sleep(0.02)  # wait for the blocker to be admitted
            reply = client.request("run", dict(SMALL))
            assert reply["error"]["code"] == -32001
            assert reply["error"]["data"]["max_pending"] == 1
            assert "retry_after_s" in reply["error"]["data"]
            blocker.result(timeout=120)

    def test_quota_exhaustion_is_structured_429(self, serve):
        server = serve(quota_capacity=2, quota_refill_per_s=0.01)
        client = _client(server, name="greedy")
        client.call("status", {})  # status is free; only run/sweep charge
        replies = [client.request("run", dict(SMALL)) for _ in range(3)]
        errors = [r["error"]["code"] for r in replies if "error" in r]
        assert errors == [-32002]
        assert "retry_after_s" in replies[-1]["error"]["data"]

    def test_pool_rejection_refunds_quota(self, serve):
        # Two tokens total: the blocker takes one; the pool-rejected
        # request must give its token back, funding the post-backoff
        # retry — without the refund the retry would die -32002.
        server = serve(jobs=1, max_pending=1, quota_capacity=2,
                       quota_refill_per_s=0.001)
        client = _client(server, name="patient")
        with ThreadPoolExecutor(1) as pool:
            blocker = pool.submit(
                client.call, "sweep",
                {"workloads": ["gups", "mcf"],
                 "designs": ["vipt", "seesaw"], "length": 20_000})
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not server.pool.active():
                time.sleep(0.02)
            reply = client.request("run", dict(SMALL, seed=31))
            assert reply["error"]["code"] == -32001  # pool, not quota
            assert server.quota.snapshot()["refunded"] == 1
            blocker.result(timeout=120)
        out = client.call("run", dict(SMALL, seed=31))
        assert out["state"] == "done"

    def test_request_jobs_clamped_to_server_slots(self, serve):
        server = serve(jobs=2)
        client = _client(server)
        out = client.call("run", dict(SMALL, seed=11, jobs=64))
        assert out["state"] == "done"
        job = server.pool.find(out["job_id"])
        # the executed parallelism matches the reserved slots
        assert job.params["jobs"] == 2
        assert job.slots == 2

    def test_concurrent_duplicate_attaches_to_live_job(self, serve):
        server = serve()
        client = _client(server)
        params = {"workloads": ["gups", "mcf"],
                  "designs": ["vipt", "seesaw"],
                  "length": 20_000, "seed": 21}
        accepted = client.call("sweep", dict(params, wait=False))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and not server.pool.active():
            time.sleep(0.02)
        # a no-wait duplicate is pointed at the live job, not admitted
        attached = client.call("sweep", dict(params, wait=False))
        assert attached["state"] == "attached"
        assert attached["job_id"] == accepted["job_id"]
        # a waiting duplicate rides the same job to completion: one
        # journal writer, one simulation of each cell
        dup = client.call("sweep", dict(params))
        assert dup["job_id"] == accepted["job_id"]
        assert dup["state"] == "done"
        assert dup["simulated"] == 4
        assert server.deduped == 2
        assert server.pool.snapshot()["admitted"] == 1

    def test_queued_deadline_degrades_without_simulating(self, serve):
        server = serve(jobs=1)
        client = _client(server)
        # The blocker's job holds the server's one worker slot until the
        # queued request has its reply: it signals once it runs, then
        # waits to be released.
        running, release = threading.Event(), threading.Event()
        execute = server._execute

        def held_execute(job):
            running.set()
            release.wait(60)
            return execute(job)

        server._execute = held_execute
        with ThreadPoolExecutor(1) as pool:
            blocker = pool.submit(
                client.call, "sweep",
                {"workloads": ["gups", "mcf"],
                 "designs": ["vipt", "seesaw"], "length": 20_000})
            assert running.wait(60)
            try:
                out = client.call("run", dict(SMALL, seed=9,
                                              deadline_s=0.2))
            finally:
                release.set()
            assert out["state"] == "failed"
            assert out["simulated"] == 0
            assert out["failures"][0]["error_class"] == "DeadlineExceeded"
            blocker.result(timeout=120)

    def test_draining_server_rejects_new_work(self, serve):
        server = serve()
        client = _client(server)
        server.draining = True  # the flag _submit checks at admission
        try:
            reply = client.request("run", dict(SMALL))
        finally:
            server.draining = False
        assert reply["error"]["code"] == -32003
        assert "resume" in reply["error"]["message"]

    def test_unknown_token_is_structured_not_found(self, serve):
        client = _client(serve())
        reply = client.request("status", {"resume_token": "beefcafe"})
        assert reply["error"]["code"] == -32004

    def test_async_submit_and_poll(self, serve):
        client = _client(serve())
        accepted = client.call("run", dict(SMALL, seed=5, wait=False))
        assert accepted["state"] == "accepted"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status = client.call("status",
                                 {"job_id": accepted["job_id"]})
            if status["state"] not in ("queued", "running"):
                break
            time.sleep(0.1)
        assert status["state"] == "done"
        assert status["result"]["simulated"] == 1

    def test_batch_requests_answered_elementwise(self, serve):
        client = _client(serve())
        batch = [
            {"jsonrpc": "2.0", "id": 1, "method": "status", "params": {}},
            {"jsonrpc": "2.0", "id": 2, "method": "explode", "params": {}},
        ]
        replies = client._post("/rpc", json.dumps(batch).encode())
        assert replies[0]["id"] == 1 and "result" in replies[0]
        assert replies[1]["error"]["code"] == METHOD_NOT_FOUND

    def test_drain_interrupts_flushes_and_resumes(self, serve, tmp_path):
        from repro.resilience.runner import SweepJournal

        server = serve()
        client = _client(server)
        params = {"workloads": ["gups", "mcf", "redis"],
                  "designs": ["vipt", "pipt", "vivt", "seesaw"],
                  "length": 60_000, "jobs": 2}
        with ThreadPoolExecutor(1) as pool:
            future = pool.submit(client.call, "sweep", params)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not server.pool.active():
                time.sleep(0.05)
            time.sleep(1.0)  # let at least one cell get in flight
            server.begin_drain_threadsafe(143, signal.SIGTERM)
            out = future.result(timeout=120)
        assert out["state"] == "interrupted"
        assert out["signum"] == signal.SIGTERM
        assert out["exit_code"] == 143
        token = out["resume_token"]
        # the journal on disk is canonical and checksum-valid
        journal = SweepJournal(tmp_path / "spool" / f"{token}.jsonl")
        header, done = journal.read()
        assert header["workloads"] == params["workloads"]
        assert journal.rewrite_canonical() is False  # already canonical
        # a fresh server over the same spool finishes from the token
        fresh = _client(serve())
        resumed = fresh.call("sweep", {"resume_token": token})
        assert resumed["state"] == "done"
        assert resumed["cells"] == 12
        assert resumed["reused_journal"] == len(done)
        assert resumed["simulated"] == 12 - len(done)

    def test_shutdown_rpc_drains_with_exit_zero(self, tmp_path):
        from repro.serve.server import ServeConfig, serve_in_thread

        with serve_in_thread(ServeConfig(
                port=0, jobs=1, spool=tmp_path / "spool")) as server:
            client = _client(server)
            ack = client.call("shutdown", {})
            assert ack["state"] == "draining"
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and not server.draining:
                time.sleep(0.05)
            assert server.draining
        assert server.exit_code == 0


class TestSampledProtocol:
    """Protocol + digest behaviour of the sampled lane at the service
    boundary: validation of the tuning keys, and the guarantee that a
    sampled request can never alias an exact one in the cache."""

    def test_sampled_run_fills_plan_defaults(self):
        out = validate_params("run", {"workload": "gups", "sampled": True})
        from repro.sampling import SamplingPlan
        plan = SamplingPlan()
        assert out["sampled"] is True
        assert out["interval_size"] == plan.interval_size
        assert out["max_clusters"] == plan.max_clusters
        assert out["warmup"] == plan.warmup

    def test_exact_request_omits_sampling_keys(self):
        out = validate_params("run", {"workload": "gups"})
        assert "sampled" not in out
        assert "interval_size" not in out

    def test_tuning_keys_require_sampled(self):
        with pytest.raises(ProtocolError) as info:
            validate_params("run", {"workload": "gups",
                                    "interval_size": 500})
        assert info.value.code == INVALID_PARAMS
        assert "sampled" in str(info.value)

    def test_sampled_digest_differs_from_exact(self):
        from repro.serve.jobs import request_digest
        exact = validate_params("run", {"workload": "gups"})
        sampled = validate_params("run", {"workload": "gups",
                                          "sampled": True})
        assert request_digest(exact) != request_digest(sampled)

    def test_exact_digests_unchanged_by_sampling_support(self):
        """Adding the sampled keys to the schema must not shift the
        digest of a plain exact request (cache/journal compatibility)."""
        out = validate_params("run", {"workload": "gups"})
        assert all(k not in out
                   for k in ("sampled", "interval_size", "max_clusters",
                             "warmup"))

    def test_sampling_plan_reconstructed_from_params(self):
        from repro.sampling import SamplingPlan
        from repro.serve.jobs import sampling_plan_from_params
        assert sampling_plan_from_params({"workload": "gups"}) is None
        params = validate_params("run", {"workload": "gups",
                                         "sampled": True,
                                         "interval_size": 450,
                                         "max_clusters": 6})
        plan = sampling_plan_from_params(params)
        assert plan == SamplingPlan(interval_size=450, max_clusters=6,
                                    warmup=SamplingPlan().warmup)


class TestReingestedRtrace:
    """An ``rtrace:`` token names a file that can be re-ingested: a
    request over the new contents is a new request, answered by a fresh
    simulation rather than from the old trace's journal or cache."""

    @staticmethod
    def _capture(stride):
        lines = ["==1== capture"]
        lines += [f" L {0x100000 + stride * i:08x},8" for i in range(3000)]
        return "\n".join(lines) + "\n"

    def test_reingested_trace_is_simulated_afresh(self, tmp_path):
        from repro.ingest import ingest_trace, load_rtrace, trace_token
        from repro.serve.jobs import (base_config_from_params, execute_job,
                                      request_digest)
        from repro.serve.pending import Job
        from repro.sim.system import SystemSimulator

        source = tmp_path / "t.lackey"
        rtrace = tmp_path / "t.rtrace"
        spool = tmp_path / "spool"
        spool.mkdir()
        cache = ResultCache(directory=tmp_path / "cache")

        def answer(stride):
            source.write_text(self._capture(stride))
            ingest_trace(source, output=rtrace, force=True)
            params = validate_params("run", {
                "workload": trace_token(rtrace), "design": "seesaw"})
            job = Job(id="job-1", client="test", method="run",
                      params=params, digest=request_digest(params))
            return params, job, execute_job(job, spool, cache)

        _, first_job, first = answer(64)
        params, job, second = answer(4096)
        assert second["simulated"] == 1
        token = params["workloads"][0]
        config = base_config_from_params(params).with_design("seesaw")
        expected = SystemSimulator(config, load_rtrace(rtrace)).run()
        assert second["results"][token]["seesaw"] == expected.to_dict()
        assert (second["results"][token]["seesaw"]
                != first["results"][token]["seesaw"])
        assert job.digest != first_job.digest
