"""Chaos tests: every-byte-offset truncation, injected host faults,
graceful interrupts, supervision watchdogs, doctor repair round-trips,
and the unified error taxonomy."""

from __future__ import annotations

import json
import os
import signal
import threading

import pytest

from repro.perf.parallel import parallel_sweep
from repro.resilience import chaos
from repro.resilience import runner as runner_module
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.doctor import (
    detect_kind,
    diagnose,
    diagnose_journal,
    repair,
    repair_journal,
)
from repro.resilience.errors import (
    EXIT_INTERRUPT_BASE,
    EXIT_PAUSED,
    EXIT_USAGE,
    CellCrash,
    CellHung,
    CellResourceLimit,
    CellTimeout,
    CheckpointError,
    DiskSpaceError,
    JournalError,
    JournalWriteError,
    ReproResilienceError,
    SweepInterrupted,
)
from repro.resilience.faults import FaultInjectionError
from repro.resilience.runner import SweepJournal, resilient_sweep
from repro.resilience.supervisor import (
    SupervisionPolicy,
    free_disk_bytes,
    trap_interrupts,
    worker_rss_bytes,
)
from repro.sim.config import SystemConfig
from repro.sim.system import SystemSimulator
from repro.workloads.suite import build_trace, get_workload

LENGTH = 2000
WORKLOADS = ["gups", "mcf"]


def make_config(**overrides):
    defaults = dict(seed=42)
    defaults.update(overrides)
    return SystemConfig(**defaults)


@pytest.fixture(scope="module")
def finished_sim():
    config = make_config()
    trace = build_trace(get_workload("gups"), 800, seed=42)
    sim = SystemSimulator(config, trace)
    sim.run()
    return sim


@pytest.fixture(scope="module")
def reference_journal(tmp_path_factory):
    """An uninterrupted parallel sweep's journal — the bit-identity oracle
    every chaos scenario must converge back to."""
    path = tmp_path_factory.mktemp("ref") / "ref.jsonl"
    report = parallel_sweep(make_config(), WORKLOADS, trace_length=LENGTH,
                            jobs=2, journal_path=path)
    assert report.ok
    return path.read_bytes()


def run_sweep(journal_path, **kwargs):
    options = dict(trace_length=LENGTH, jobs=2, journal_path=journal_path)
    options.update(kwargs)
    return parallel_sweep(make_config(), WORKLOADS, **options)


# ----------------------------------------------------- truncation sweeps

class TestTruncationAtEveryOffset:
    def test_checkpoint_truncation_always_typed_error(self, tmp_path,
                                                      finished_sim):
        """A checkpoint cut at ANY byte offset must raise CheckpointError —
        never an unhandled json/pickle/unicode traceback."""
        whole = tmp_path / "whole.ckpt"
        save_checkpoint(whole, finished_sim)
        blob = whole.read_bytes()
        target = tmp_path / "cut.ckpt"
        stride = max(1, len(blob) // 300)  # every offset is too slow; ~300
        offsets = set(range(0, len(blob), stride))
        offsets.update(range(0, min(len(blob), 120)))  # dense over header
        for offset in sorted(offsets):
            target.write_bytes(blob[:offset])
            with pytest.raises(CheckpointError):
                load_checkpoint(target)
        # the untruncated file still loads
        header, payload = load_checkpoint(whole)
        assert header["payload_bytes"] == len(payload)

    def test_journal_truncation_loads_or_typed_error(self, tmp_path,
                                                     reference_journal):
        """A journal cut at ANY byte offset either reads (torn trailing
        line dropped) or raises JournalError — never a raw traceback."""
        target = tmp_path / "cut.jsonl"
        blob = reference_journal
        for offset in range(len(blob)):
            target.write_bytes(blob[:offset])
            journal = SweepJournal(target)
            try:
                header, cells = journal.read()
            except JournalError:
                continue
            assert header["type"] == "header"
            assert all(record["type"] in ("done", "failed")
                       for record in cells.values())

    def test_midfile_corruption_names_doctor(self, tmp_path,
                                             reference_journal):
        target = tmp_path / "bad.jsonl"
        lines = reference_journal.decode("utf-8").splitlines()
        lines[1] = lines[1][:40] + "XGARBAGEX" + lines[1][49:]
        target.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="doctor --repair"):
            SweepJournal(target).read()

    def test_missing_header_is_unrepairable(self, tmp_path,
                                            reference_journal):
        target = tmp_path / "headless.jsonl"
        lines = reference_journal.decode("utf-8").splitlines()
        # corrupt the header line itself
        lines[0] = lines[0][:20] + "XX" + lines[0][22:]
        target.write_text("\n".join(lines) + "\n")
        diagnosis = diagnose_journal(target)
        assert not diagnosis.healthy and not diagnosis.repairable
        with pytest.raises(JournalError, match="unrepairable"):
            repair_journal(target)


# ------------------------------------------------------------ doctor

class TestDoctor:
    def test_detect_kind(self, tmp_path, finished_sim, reference_journal):
        ckpt = tmp_path / "a.ckpt"
        save_checkpoint(ckpt, finished_sim)
        jrnl = tmp_path / "a.jsonl"
        jrnl.write_bytes(reference_journal)
        assert detect_kind(ckpt) == "checkpoint"
        assert detect_kind(jrnl) == "journal"

    def test_healthy_journal_diagnosis(self, tmp_path, reference_journal):
        target = tmp_path / "ok.jsonl"
        target.write_bytes(reference_journal)
        diagnosis = diagnose(target)
        assert diagnosis.healthy
        assert diagnosis.rerun_cells == []

    def test_repair_round_trip_bit_identical(self, tmp_path,
                                             reference_journal):
        """Corrupt a mid-file record; repair must quarantine exactly that
        line, report the cell for re-run, and a resume must converge to
        the uninterrupted reference journal bytes."""
        target = tmp_path / "bad.jsonl"
        lines = reference_journal.decode("utf-8").splitlines()
        lines[1] = lines[1][:40] + "XGARBAGEX" + lines[1][49:]
        target.write_text("\n".join(lines) + "\n")

        diagnosis = repair(target)
        assert diagnosis.repaired
        assert diagnosis.quarantined == 1
        assert diagnosis.rerun_cells == [("gups", "vipt")]
        quarantine = tmp_path / "bad.jsonl.quarantine"
        assert quarantine.exists()
        entry = json.loads(quarantine.read_text().splitlines()[0])
        assert entry["line"] == 2 and "XGARBAGEX" in entry["raw"]
        # repaired journal reads cleanly
        header, cells = SweepJournal(target).read()
        assert ("gups", "vipt") not in cells

        report = run_sweep(target)
        assert report.ok and report.executed == 1
        assert target.read_bytes() == reference_journal

    def test_repair_healthy_journal_is_noop(self, tmp_path,
                                            reference_journal):
        target = tmp_path / "ok.jsonl"
        target.write_bytes(reference_journal)
        diagnosis = repair(target)
        assert not diagnosis.repaired and diagnosis.healthy
        assert target.read_bytes() == reference_journal

    def test_corrupt_checkpoint_quarantined(self, tmp_path, finished_sim):
        ckpt = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, finished_sim)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:-10])
        diagnosis = repair(ckpt)
        assert diagnosis.repaired and diagnosis.quarantined == 1
        assert not ckpt.exists()
        assert (tmp_path / "c.ckpt.quarantine").exists()


# ------------------------------------------------------ host fault specs

class TestHostFaultSpecs:
    def test_parse_round_trip(self):
        spec = chaos.HostFaultSpec.parse("journal-torn@3:120")
        assert spec == chaos.HostFaultSpec("journal-torn", 3, 120)

    def test_parse_rejects_bad_forms(self):
        for bad in ("worker-kill", "bogus@1", "worker-kill@x",
                    "worker-kill@-1", "journal-enospc@1:5"):
            with pytest.raises(chaos.HostFaultError):
                chaos.HostFaultSpec.parse(bad)

    def test_armed_context_disarms(self):
        plan = chaos.HostFaultPlan.parse(["worker-kill@0"])
        with chaos.armed(plan):
            assert chaos.active() is plan
        assert chaos.active() is None


# ------------------------------------------------------- chaos scenarios

class TestChaosScenarios:
    def test_worker_kill_self_heals(self, tmp_path, reference_journal):
        """SIGKILLing a worker consumes one retry and the sweep still
        converges to the reference journal bytes."""
        target = tmp_path / "kill.jsonl"
        with chaos.armed(chaos.HostFaultPlan.parse(["worker-kill@0"])):
            report = run_sweep(target, max_retries=2)
        assert report.ok
        assert target.read_bytes() == reference_journal

    def test_worker_kill_without_retries_degrades_then_resumes(
            self, tmp_path, reference_journal):
        target = tmp_path / "kill0.jsonl"
        with chaos.armed(chaos.HostFaultPlan.parse(["worker-kill@0"])):
            report = run_sweep(target, max_retries=0)
        assert len(report.failures) == 1
        assert report.failures[0].error_class == "CellCrash"
        # resume re-runs the degraded cell and converges bit-identically
        resumed = run_sweep(target)
        assert resumed.ok
        assert target.read_bytes() == reference_journal

    @pytest.mark.parametrize("kind", ["journal-enospc", "journal-eio"])
    def test_journal_write_fault_pauses_resumable(self, tmp_path, kind,
                                                  reference_journal):
        target = tmp_path / f"{kind}.jsonl"
        with chaos.armed(chaos.HostFaultPlan.parse([f"{kind}@1"])):
            report = run_sweep(target)
        assert report.paused and not report.ok
        assert str(target) in report.resume_hint
        resumed = run_sweep(target)
        assert resumed.ok
        assert target.read_bytes() == reference_journal

    def test_journal_torn_write_pauses_and_resumes(self, tmp_path,
                                                   reference_journal):
        target = tmp_path / "torn.jsonl"
        with chaos.armed(chaos.HostFaultPlan.parse(["journal-torn@2:30"])):
            report = run_sweep(target)
        assert report.paused
        # the torn trailing line is tolerated by read() and by resume
        resumed = run_sweep(target)
        assert resumed.ok
        assert target.read_bytes() == reference_journal

    @pytest.mark.parametrize("kind", ["checkpoint-enospc",
                                      "checkpoint-torn"])
    def test_checkpoint_fault_keeps_previous_intact(self, tmp_path, kind,
                                                    finished_sim):
        ckpt = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, finished_sim)
        good = ckpt.read_bytes()
        spec = f"{kind}@0:64" if kind.endswith("torn") else f"{kind}@0"
        with chaos.armed(chaos.HostFaultPlan.parse([spec])):
            with pytest.raises(CheckpointError, match="untouched"):
                save_checkpoint(ckpt, finished_sim)
        assert ckpt.read_bytes() == good
        assert not (tmp_path / "c.ckpt.tmp").exists()

    @pytest.mark.parametrize("signame,signum", [("sigint", signal.SIGINT),
                                                ("sigterm", signal.SIGTERM)])
    def test_signal_stops_gracefully_and_resumes(self, tmp_path, signame,
                                                 signum, reference_journal):
        """A signal delivered mid-sweep raises SweepInterrupted with the
        shell-convention exit code; the journal stays canonical and a
        resume converges bit-identically."""
        target = tmp_path / f"{signame}.jsonl"
        with chaos.armed(chaos.HostFaultPlan.parse([f"{signame}@1"])):
            with pytest.raises(SweepInterrupted) as excinfo:
                run_sweep(target)
        assert excinfo.value.signum == signum
        assert excinfo.value.exit_code == EXIT_INTERRUPT_BASE + signum
        # interrupted journal is already readable and canonical
        header, cells = SweepJournal(target).read()
        assert header["type"] == "header"
        resumed = run_sweep(target)
        assert resumed.ok
        assert target.read_bytes() == reference_journal

    def test_serial_sweep_signal_also_graceful(self, tmp_path):
        target = tmp_path / "serial.jsonl"
        with chaos.armed(chaos.HostFaultPlan.parse(["sigint@1"])):
            with pytest.raises(SweepInterrupted):
                resilient_sweep(make_config(), WORKLOADS,
                                trace_length=LENGTH, journal_path=target)
        resumed = resilient_sweep(make_config(), WORKLOADS,
                                  trace_length=LENGTH, journal_path=target)
        assert resumed.ok


# --------------------------------------------------------- supervision

class TestSupervision:
    def test_supervised_journal_bytes_identical(self, tmp_path,
                                                reference_journal):
        target = tmp_path / "sup.jsonl"
        report = parallel_sweep(make_config(), WORKLOADS,
                                trace_length=LENGTH, jobs=2,
                                journal_path=target,
                                policy=SupervisionPolicy())
        assert report.ok
        assert target.read_bytes() == reference_journal

    def test_hung_worker_degrades_not_wedges(self, tmp_path, monkeypatch):
        """Workers that truly hang (and, with heartbeats effectively
        disabled, fall silent) must be killed by the watchdog and their
        cells degraded instead of letting the sweep wedge forever."""
        # Forked workers inherit the patched module: every cell blocks.
        monkeypatch.setattr(runner_module, "_run_cell",
                            lambda *args, **kwargs: threading.Event().wait())
        policy = SupervisionPolicy(heartbeat_s=60.0, hung_after_s=90.0,
                                   check_interval_s=0.05)
        # cheat: worker thinks the heartbeat period is 60s (sends none in
        # time), supervisor expects silence < 0.4s
        object.__setattr__(policy, "hung_after_s", 0.4)
        report = parallel_sweep(
            make_config(), ["gups"], trace_length=80_000, jobs=2,
            journal_path=tmp_path / "hung.jsonl", max_retries=0,
            policy=policy)
        assert len(report.failures) == 2
        assert all(f.error_class == "CellHung" for f in report.failures)

    def test_rss_breach_downshifts_then_degrades(self, tmp_path):
        """An absurdly low RSS ceiling: breaches shed concurrency first,
        then consume the retry budget — the sweep must terminate, and any
        cell it could not finish must be on record as CellResourceLimit
        (a fast cell may legitimately complete between watchdog samples,
        so only the failures' *kind* is deterministic)."""
        policy = SupervisionPolicy(max_rss_mb=1.0, check_interval_s=0.05)
        report = parallel_sweep(
            make_config(), ["gups"], trace_length=80_000, jobs=2,
            journal_path=tmp_path / "rss.jsonl", max_retries=0,
            policy=policy)
        assert report.failures
        assert all(f.error_class == "CellResourceLimit"
                   for f in report.failures)
        assert len(report.failures) + len(report.results["gups"]) == 2

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="hung_after_s"):
            SupervisionPolicy(heartbeat_s=5.0, hung_after_s=2.0)
        with pytest.raises(ValueError, match="check_interval_s"):
            SupervisionPolicy(check_interval_s=0.0)

    def test_host_probes(self):
        rss = worker_rss_bytes(os.getpid())
        assert rss is None or rss > 0
        assert worker_rss_bytes(2 ** 30) is None  # no such pid
        free = free_disk_bytes(".")
        assert free is None or free > 0

    def test_trap_interrupts_flags_first_signal(self):
        with trap_interrupts() as state:
            assert state.signum is None
            os.kill(os.getpid(), signal.SIGTERM)
            assert state.signum == signal.SIGTERM
        # handler restored: a SIGTERM now would terminate (not asserted)


# ------------------------------------------------------- error taxonomy

class TestErrorTaxonomy:
    def test_unified_base(self):
        for cls in (CellCrash, CellHung, CellResourceLimit, CellTimeout,
                    CheckpointError, DiskSpaceError, JournalError,
                    JournalWriteError, FaultInjectionError,
                    chaos.HostFaultError, SweepInterrupted):
            assert issubclass(cls, ReproResilienceError)

    def test_backward_compatible_stdlib_bases(self):
        assert issubclass(CellTimeout, TimeoutError)
        assert issubclass(CellHung, CellTimeout)
        assert issubclass(FaultInjectionError, ValueError)
        assert issubclass(DiskSpaceError, JournalWriteError)

    def test_exit_codes(self):
        assert ReproResilienceError.exit_code == EXIT_USAGE
        assert JournalError("x").exit_code == EXIT_USAGE
        assert JournalWriteError("x").exit_code == EXIT_PAUSED
        assert DiskSpaceError("x").exit_code == EXIT_PAUSED
        assert SweepInterrupted(signal.SIGINT).exit_code == 130
        assert SweepInterrupted(signal.SIGTERM).exit_code == 143

    def test_sweep_interrupted_message_names_signal_and_resume(self):
        exc = SweepInterrupted(signal.SIGINT, "runs/j.jsonl")
        assert "SIGINT" in str(exc)
        assert "repro resume runs/j.jsonl" in str(exc)


# ----------------------------------------------------- sampled lane

class TestSampledLaneChaos:
    """The sampled lane rides the same self-healing machinery: a killed
    worker degrades, doctor passes the journal, and a resume converges
    to the uninterrupted sampled journal byte-for-byte."""

    def _plan(self):
        from repro.sampling import SamplingPlan
        # 10 intervals, 4 representatives at LENGTH=2000: genuine
        # sampling (the default plan would degenerate to exact here).
        return SamplingPlan(interval_size=200, max_clusters=4, warmup=50)

    def test_sampled_kill_and_resume_round_trip(self, tmp_path):
        plan = self._plan()
        reference = tmp_path / "ref.jsonl"
        report = run_sweep(reference, sampling_plan=plan)
        assert report.ok
        header, _ = SweepJournal(reference).read()
        assert header["sampling"] == plan.to_dict()

        target = tmp_path / "kill.jsonl"
        with chaos.armed(chaos.HostFaultPlan.parse(["worker-kill@0"])):
            degraded = run_sweep(target, max_retries=0, sampling_plan=plan)
        assert len(degraded.failures) == 1
        assert degraded.failures[0].error_class == "CellCrash"

        # The interrupted journal is canonical (doctor-clean) and still
        # declares its sampling plan, so resume rebuilds the right lane.
        diagnosis = diagnose_journal(target)
        assert diagnosis.healthy, diagnosis
        header, _ = SweepJournal(target).read()
        assert header["sampling"] == plan.to_dict()

        resumed = run_sweep(target, sampling_plan=plan)
        assert resumed.ok
        assert target.read_bytes() == reference.read_bytes()
