"""Crash-safe real-trace ingestion: parsers, canonical ``.rtrace``
round-trips, the byte-level corruption matrix, chaos determinism, the
SIGKILL-and-resume drill, and the rtrace doctor.

The headline contracts under test:

* any byte-truncation or garbage injection on the input yields a typed
  ``IngestError`` or a quarantined record — never a hang, a crash, or a
  silently wrong trace;
* an ingest SIGKILLed at an arbitrary instant, resumed by re-running
  the same command, publishes a ``.rtrace`` byte-identical to an
  uninterrupted run;
* an ingested trace's digest is accepted end-to-end (run, sweep
  journals, serve validation, campaigns).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.ingest import (
    RECORD_SIZE,
    ChampSimParser,
    IngestReport,
    LackeyParser,
    MalformedRecord,
    cached_rtrace,
    default_output,
    ingest_trace,
    inspect_rtrace,
    is_rtrace_token,
    load_rtrace,
    read_header,
    rtrace_path,
    sidecar_paths,
    sniff_format,
    trace_token,
    write_rtrace,
)
from repro.resilience import chaos, doctor
from repro.resilience.errors import (
    EXIT_PAUSED,
    IngestError,
    IngestPausedError,
    JournalError,
    RtraceError,
    TraceCorruptionError,
    TraceFormatError,
)

LACKEY = (
    "==1234== Lackey output\n"
    "I  04000000,3\n"
    " L 00001000,8\n"
    " S 00001008,4\n"
    "I  04000003,1\n"
    "I  04000004,2\n"
    " M 00002000,8\n"
    "\n"
)

CHAMPSIM = (
    "# comment line\n"
    "0x1000 R\n"
    "2000 W 1\n"
    "3000 LOAD\n"
    "0x4000 STORE 2\n"
)


def lackey_input(lines: int) -> str:
    """A larger synthetic lackey capture with a deterministic shape."""
    out = ["==99== big capture"]
    for index in range(lines):
        out.append(f"I  0400{index % 97:04x},3")
        if index % 2 == 0:
            out.append(f" L {0x10000 + 64 * (index % 512):08x},8")
        else:
            out.append(f" S {0x40000 + 64 * (index % 256):08x},4")
    return "\n".join(out) + "\n"


def cli_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


# ---------------------------------------------------------------- parsers


class TestParsers:
    def test_lackey_parses_loads_stores_and_modify_pairs(self):
        parser = LackeyParser()
        records = []
        for line in LACKEY.splitlines():
            records.extend(parser.parse_line(line))
        # L, S, then the M expands to a load+store pair.
        assert [record[1] for record in records] == [False, True, False, True]
        assert records[0][0] == 0x1000
        assert records[3][0] == 0x2000
        # The M's load carries the instruction gap; its store pairs at 0.
        assert records[2][3] > 0
        assert records[3][3] == 0

    def test_lackey_malformed_raises_typed(self):
        with pytest.raises(MalformedRecord):
            list(LackeyParser().parse_line(" L zzzz,8"))

    def test_champsim_aliases_and_cores(self):
        parser = ChampSimParser()
        records = []
        for line in CHAMPSIM.splitlines():
            records.extend(parser.parse_line(line))
        assert [r[0] for r in records] == [0x1000, 2000 and 0x2000, 0x3000,
                                           0x4000]
        assert [r[1] for r in records] == [False, True, False, True]
        assert [r[2] for r in records] == [0, 1, 0, 2]

    def test_champsim_rejects_wide_core(self):
        with pytest.raises(MalformedRecord):
            list(ChampSimParser().parse_line("1000 R 300"))

    def test_sniff_picks_each_format(self):
        assert sniff_format(LACKEY, source="x") == "lackey"
        assert sniff_format(CHAMPSIM, source="x") == "champsim"

    def test_sniff_rejects_garbage(self):
        with pytest.raises(TraceFormatError):
            sniff_format("what even is this\nnot a trace\n", source="x")


# ------------------------------------------------------------- round trip


class TestRoundTrip:
    def test_lackey_round_trip_preserves_every_record(self, tmp_path):
        source = tmp_path / "app.lackey"
        source.write_text(LACKEY)
        report = ingest_trace(source)
        trace = load_rtrace(report.output)
        parser = LackeyParser()
        direct = []
        for line in LACKEY.splitlines():
            direct.extend(parser.parse_line(line))
        assert trace.addresses == [r[0] for r in direct]
        assert trace.writes == [r[1] for r in direct]
        assert trace.gaps == [min(r[3], (1 << 32) - 1) for r in direct]
        assert report.records == len(direct)

    def test_header_digest_matches_checkpoint_digest(self, tmp_path):
        from repro.resilience.checkpoint import trace_digest
        source = tmp_path / "app.champsim"
        source.write_text(CHAMPSIM)
        report = ingest_trace(source)
        header = read_header(report.output)
        assert header["trace_digest"] == report.trace_digest
        assert trace_digest(load_rtrace(report.output)) \
            == header["trace_digest"]

    def test_reingest_is_idempotent_and_byte_stable(self, tmp_path):
        source = tmp_path / "app.champsim"
        source.write_text(CHAMPSIM)
        first = ingest_trace(source)
        blob = Path(first.output).read_bytes()
        second = ingest_trace(source)
        assert second.already_complete
        assert Path(second.output).read_bytes() == blob

    def test_checkpoint_cadence_does_not_change_bytes(self, tmp_path):
        source = tmp_path / "app.lackey"
        source.write_text(lackey_input(300))
        coarse = ingest_trace(source, output=tmp_path / "coarse.rtrace",
                              name="t")
        fine = ingest_trace(source, output=tmp_path / "fine.rtrace",
                            name="t", checkpoint_every=1)
        assert (tmp_path / "coarse.rtrace").read_bytes() \
            == (tmp_path / "fine.rtrace").read_bytes()
        assert coarse.trace_digest == fine.trace_digest

    def test_sidecars_cleaned_after_success(self, tmp_path):
        source = tmp_path / "app.champsim"
        source.write_text(CHAMPSIM)
        report = ingest_trace(source)
        for side in sidecar_paths(report.output).values():
            assert not side.exists()

    def test_quarantine_documents_offset_and_reason(self, tmp_path):
        source = tmp_path / "app.champsim"
        text = "0x1000 R\nnot a record\n0x2000 W\n"
        source.write_text(text)
        report = ingest_trace(source)
        assert report.bad_records == 1
        assert report.exit_code == 1
        entry = json.loads(Path(report.quarantine).read_text())
        assert entry["offset"] == text.index("not a record")
        assert entry["raw"] == "not a record"
        assert entry["reason"]


# ------------------------------------------------------ corruption matrix


class TestCorruptionMatrix:
    def test_every_input_truncation_is_typed_or_quarantined(self, tmp_path):
        full = CHAMPSIM.encode()
        for cut in range(len(full)):
            workdir = tmp_path / f"cut{cut}"
            workdir.mkdir()
            source = workdir / "t.champsim"
            source.write_bytes(full[:cut])
            try:
                report = ingest_trace(source, fmt="champsim")
            except IngestError:
                continue  # typed refusal is an allowed outcome
            assert isinstance(report, IngestReport)
            # whatever decoded must load back verbatim
            load_rtrace(report.output)

    def test_every_rtrace_truncation_is_refused_and_doctorable(
            self, tmp_path):
        source = tmp_path / "app.lackey"
        source.write_text(LACKEY)
        report = ingest_trace(source)
        full = Path(report.output).read_bytes()
        for cut in range(len(full)):
            torn = tmp_path / f"cut{cut}" / "t.rtrace"
            torn.parent.mkdir()
            torn.write_bytes(full[:cut])
            with pytest.raises(RtraceError):
                load_rtrace(torn)
            diagnosis = doctor.diagnose(torn)
            assert diagnosis.kind == "rtrace"
            assert not diagnosis.healthy
            repaired = doctor.repair(torn)
            assert repaired.repaired
            if torn.exists():
                # rebuilt in place from whole records: must load clean
                trace = load_rtrace(torn)
                assert len(trace.addresses) \
                    == inspect_rtrace(torn)["whole_records"]
            else:
                # quarantined aside checkpoint-style
                assert Path(repaired.quarantine_path).exists()

    def test_in_place_flip_fails_checksum_not_repairable_in_place(
            self, tmp_path):
        source = tmp_path / "app.lackey"
        source.write_text(LACKEY)
        report = ingest_trace(source)
        blob = bytearray(Path(report.output).read_bytes())
        blob[-3] ^= 0xFF
        bad = tmp_path / "bad.rtrace"
        bad.write_bytes(bytes(blob))
        with pytest.raises(RtraceError):
            load_rtrace(bad)
        repaired = doctor.repair(bad)
        assert repaired.repaired
        assert not bad.exists()  # moved aside for a re-ingest

    def test_unsniffable_input_is_typed(self, tmp_path):
        source = tmp_path / "noise.txt"
        source.write_text("complete nonsense\nmore nonsense\n")
        with pytest.raises(TraceFormatError):
            ingest_trace(source)

    def test_strict_and_budget_are_typed(self, tmp_path):
        source = tmp_path / "app.champsim"
        source.write_text("0x1000 R\nbad\nworse\n0x2000 W\n")
        with pytest.raises(TraceCorruptionError):
            ingest_trace(source, fmt="champsim", strict=True)
        with pytest.raises(TraceCorruptionError):
            ingest_trace(source, fmt="champsim", max_bad_records=1,
                         force=True)

    def test_empty_input_is_typed(self, tmp_path):
        source = tmp_path / "empty.champsim"
        source.write_text("")
        with pytest.raises(IngestError):
            ingest_trace(source, fmt="champsim")


# ------------------------------------------------------------------ chaos


class TestChaosKinds:
    def test_truncate_input_clamps_deterministically(self, tmp_path):
        source = tmp_path / "app.lackey"
        source.write_text(lackey_input(200))
        digests = []
        for attempt in range(2):
            out = tmp_path / f"t{attempt}.rtrace"
            plan = chaos.HostFaultPlan.parse(["trace-truncate-input@400"])
            with chaos.armed(plan):
                report = ingest_trace(source, output=out, name="t")
            assert report.input_bytes <= 400
            digests.append(report.trace_digest)
        assert digests[0] == digests[1]
        # the clamped ingest saw strictly fewer records than the full one
        full = ingest_trace(source, output=tmp_path / "full.rtrace",
                            name="t")
        assert read_header(tmp_path / "t0.rtrace")["records"] \
            < full.records

    def test_garbage_quarantines_and_is_deterministic(self, tmp_path):
        source = tmp_path / "app.lackey"
        source.write_text(lackey_input(200))
        reports = []
        for attempt in range(2):
            out = tmp_path / f"g{attempt}.rtrace"
            plan = chaos.HostFaultPlan.parse(["trace-garbage@0"])
            with chaos.armed(plan):
                reports.append(ingest_trace(source, output=out, name="t"))
        assert reports[0].bad_records >= 1
        assert reports[0].bad_records == reports[1].bad_records
        assert reports[0].trace_digest == reports[1].trace_digest

    def test_eio_pauses_then_resume_matches_reference(self, tmp_path):
        source = tmp_path / "app.lackey"
        source.write_text(lackey_input(300))
        out = tmp_path / "t.rtrace"
        plan = chaos.HostFaultPlan.parse(["trace-eio@2"])
        with chaos.armed(plan):
            with pytest.raises(IngestPausedError) as info:
                ingest_trace(source, output=out, name="t",
                             checkpoint_every=50, chunk_bytes=512)
        assert info.value.exit_code == EXIT_PAUSED
        assert sidecar_paths(out)["journal"].exists()
        resumed = ingest_trace(source, output=out, name="t",
                               checkpoint_every=50, chunk_bytes=512)
        assert resumed.resumed_from > 0
        reference = ingest_trace(source, output=tmp_path / "ref.rtrace",
                                 name="t")
        assert out.read_bytes() \
            == (tmp_path / "ref.rtrace").read_bytes()
        assert resumed.trace_digest == reference.trace_digest

    def test_changed_input_refuses_resume(self, tmp_path):
        source = tmp_path / "app.lackey"
        source.write_text(lackey_input(300))
        out = tmp_path / "t.rtrace"
        with chaos.armed(chaos.HostFaultPlan.parse(["trace-eio@2"])):
            with pytest.raises(IngestPausedError):
                ingest_trace(source, output=out, name="t",
                             checkpoint_every=50, chunk_bytes=512)
        source.write_text(lackey_input(301))
        with pytest.raises(TraceCorruptionError):
            ingest_trace(source, output=out, name="t")


# --------------------------------------------------------- SIGKILL drill


class TestKillResumeDrill:
    def test_sigkilled_ingest_resumes_byte_identical(self, tmp_path):
        source = tmp_path / "big.lackey"
        source.write_text(lackey_input(30_000))
        out = tmp_path / "big.rtrace"
        journal = sidecar_paths(out)["journal"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "ingest", str(source),
             "--output", str(out), "--name", "drill",
             "--checkpoint-every", "100"],
            env=cli_env(), cwd=str(tmp_path),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # kill as soon as committed progress exists, mid-ingest
        deadline = time.time() + 30
        while time.time() < deadline and proc.poll() is None:
            if journal.exists():
                try:
                    if json.loads(journal.read_text())["input_offset"] > 0:
                        break
                except (ValueError, KeyError):
                    pass
            time.sleep(0.005)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        if not out.exists():
            # the interesting path: progress journaled, output unpublished
            assert journal.exists()
            resumed = ingest_trace(source, output=out, name="drill",
                                   checkpoint_every=100)
            assert resumed.resumed_from > 0
        reference = ingest_trace(source, output=tmp_path / "ref.rtrace",
                                 name="drill")
        assert out.read_bytes() == (tmp_path / "ref.rtrace").read_bytes()
        # the digest is the one every guard downstream will accept
        assert read_header(out)["trace_digest"] == reference.trace_digest
        for side in sidecar_paths(out).values():
            assert not side.exists()


# ---------------------------------------------------------- CLI contract


class TestCLI:
    def test_exit_zero_clean(self, tmp_path, capsys):
        source = tmp_path / "app.champsim"
        source.write_text(CHAMPSIM)
        assert main(["ingest", str(source)]) == 0
        assert "ingested" in capsys.readouterr().out

    def test_exit_one_quarantined_within_budget(self, tmp_path):
        source = tmp_path / "app.champsim"
        source.write_text("0x1000 R\nbad line\n0x2000 W\n")
        assert main(["ingest", str(source)]) == 1

    def test_exit_two_strict_and_unknown_format(self, tmp_path, capsys):
        source = tmp_path / "app.champsim"
        source.write_text("0x1000 R\nbad line\n")
        assert main(["ingest", str(source), "--strict"]) == 2
        noise = tmp_path / "noise.txt"
        noise.write_text("complete nonsense\n")
        assert main(["ingest", str(noise)]) == 2
        capsys.readouterr()

    def test_exit_four_paused_on_eio(self, tmp_path, capsys):
        source = tmp_path / "app.lackey"
        source.write_text(lackey_input(100))
        assert main(["ingest", str(source), "--chaos",
                     "trace-eio@0"]) == EXIT_PAUSED
        capsys.readouterr()

    def test_json_report(self, tmp_path, capsys):
        source = tmp_path / "app.champsim"
        source.write_text(CHAMPSIM)
        assert main(["ingest", str(source), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 4
        assert payload["trace_digest"]

    def test_run_with_trace(self, tmp_path, capsys):
        source = tmp_path / "app.lackey"
        source.write_text(lackey_input(300))
        report = ingest_trace(source)
        assert main(["run", "--trace", report.output]) == 0
        capsys.readouterr()

    def test_run_rejects_trace_plus_workload(self, tmp_path, capsys):
        source = tmp_path / "app.champsim"
        source.write_text(CHAMPSIM)
        report = ingest_trace(source)
        assert main(["run", "gups", "--trace", report.output]) == 2
        assert main(["run"]) == 2
        capsys.readouterr()

    def test_run_sampled_composes_with_trace(self, tmp_path, capsys):
        source = tmp_path / "app.lackey"
        source.write_text(lackey_input(3000))
        report = ingest_trace(source)
        assert main(["run", "--trace", report.output, "--sampled",
                     "--interval-size", "500"]) == 0
        capsys.readouterr()

    def test_sweep_with_trace(self, tmp_path, capsys):
        source = tmp_path / "app.lackey"
        source.write_text(lackey_input(300))
        report = ingest_trace(source)
        assert main(["sweep", "--trace", report.output]) == 0
        capsys.readouterr()

    def test_rerun_over_torn_output_is_refused(self, tmp_path, capsys):
        """A finished ingest whose .rtrace was later torn is not
        "already ingested": the re-run verifies the whole file."""
        source = tmp_path / "t.champsim"
        source.write_text("".join(f"{0x1000 + 64 * index:x} R\n"
                                  for index in range(300)))
        report = ingest_trace(source)
        output = Path(report.output)
        output.write_bytes(output.read_bytes()[:-100])
        with pytest.raises(RtraceError) as excinfo:
            ingest_trace(source)
        assert "repro doctor" in str(excinfo.value)
        assert "--force" in str(excinfo.value)
        assert main(["ingest", str(source)]) == 2
        assert "already ingested" not in capsys.readouterr().out

    def test_doctor_cli_on_torn_rtrace(self, tmp_path, capsys):
        source = tmp_path / "app.lackey"
        source.write_text(LACKEY)
        report = ingest_trace(source)
        blob = Path(report.output).read_bytes()
        torn = tmp_path / "torn.rtrace"
        torn.write_bytes(blob[:-9])
        assert main(["doctor", str(torn)]) == 1
        assert main(["doctor", str(torn), "--repair"]) == 0
        assert main(["doctor", str(torn)]) == 0
        load_rtrace(torn)
        capsys.readouterr()


# ------------------------------------------------------- stack integration


class TestStackIntegration:
    def test_workload_tokens(self, tmp_path):
        assert is_rtrace_token("rtrace:/x/y.rtrace")
        assert not is_rtrace_token("gups")
        assert rtrace_path("rtrace:/x/y.rtrace") == "/x/y.rtrace"
        assert trace_token("/x/y.rtrace") == "rtrace:/x/y.rtrace"

    def test_suite_resolves_rtrace_token(self, tmp_path):
        from repro.workloads.suite import cached_trace, get_workload
        source = tmp_path / "app.lackey"
        source.write_text(LACKEY)
        report = ingest_trace(source)
        token = trace_token(report.output)
        spec = get_workload(token)
        assert spec.name == "app"
        trace = cached_trace(token, 10, 1)
        assert len(trace.addresses) == report.records

    def test_suite_rejects_missing_rtrace(self):
        from repro.workloads.suite import get_workload
        with pytest.raises(KeyError):
            get_workload("rtrace:/nonexistent/z.rtrace")

    def test_sweep_header_digest_guard(self, tmp_path):
        from repro.resilience.runner import (sweep_header_fields,
                                             verify_rtrace_digests)
        from repro.sim.config import SystemConfig
        source = tmp_path / "app.lackey"
        source.write_text(LACKEY)
        report = ingest_trace(source)
        token = trace_token(report.output)
        header = sweep_header_fields(SystemConfig(), [token], ["vipt"],
                                     2000, 42)
        assert header["rtrace_digests"][token] == report.trace_digest
        verify_rtrace_digests(header, tmp_path / "j")  # clean: no raise
        # tamper: replace the trace with different content
        source.write_text(LACKEY + " L 00009000,8\n")
        ingest_trace(source, force=True)
        with pytest.raises(JournalError):
            verify_rtrace_digests(header, tmp_path / "j")
        # and a deleted trace is also refused
        Path(report.output).unlink()
        with pytest.raises(JournalError):
            verify_rtrace_digests(header, tmp_path / "j")

    def test_serve_validates_rtrace_tokens(self, tmp_path):
        from repro.serve.protocol import ProtocolError, validate_params
        source = tmp_path / "app.champsim"
        source.write_text(CHAMPSIM)
        report = ingest_trace(source)
        token = trace_token(report.output)
        params = validate_params("run", {"workload": token})
        assert params["workloads"] == [token]
        with pytest.raises(ProtocolError):
            validate_params("run", {"workload": "rtrace:/no/such.rtrace"})

    def test_campaign_accepts_rtrace_workload(self, tmp_path):
        from repro.campaign import CampaignSpec, merge_campaign, run_shard
        source = tmp_path / "app.lackey"
        source.write_text(lackey_input(300))
        report = ingest_trace(source)
        token = trace_token(report.output)
        spec = CampaignSpec(
            name="rt", axes=[("workload", [token]),
                             ("design", ["vipt"])],
            trace_length=2000, seed=42)
        campaign_dir = tmp_path / "camp"
        spec.save(campaign_dir)
        shard = run_shard(campaign_dir, shard_id="s1")
        assert shard.complete and shard.failed == 0
        merged = merge_campaign(campaign_dir)
        assert not merged.failed_cells
