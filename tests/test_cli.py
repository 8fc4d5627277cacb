"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_machine_arguments(self):
        args = build_parser().parse_args(
            ["run", "redis", "--size-kb", "64", "--freq", "2.8",
             "--core", "inorder", "--length", "500"])
        assert args.workload == "redis"
        assert args.size_kb == 64
        assert args.core == "inorder"

    def test_rejects_unknown_workload(self, capsys):
        # Validated in the handler, not by argparse choices, so that
        # rtrace:<path> trace tokens stay accepted; still a usage error.
        assert main(["run", "doom"]) == 2
        assert "doom" in capsys.readouterr().err

    def test_rejects_unknown_design(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "redis", "--design", "magic"])


class TestCommands:
    def test_workloads_lists_suite(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "redis" in out and "gups" in out

    def test_table3_prints_paper_values(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "128KB" in out and "42" in out

    def test_run_text_output(self, capsys):
        assert main(["run", "astar", "--length", "2000"]) == 0
        out = capsys.readouterr().out
        assert "runtime_cycles" in out
        assert "tft_hit_rate" in out

    def test_run_json_output(self, capsys):
        assert main(["run", "astar", "--length", "2000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "astar"
        assert payload["runtime_cycles"] > 0

    def test_compare_reports_improvements(self, capsys):
        assert main(["compare", "redis", "--size-kb", "64",
                     "--length", "4000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "runtime_improvement_pct" in payload
        assert payload["candidate"]["workload"] == "redis"

    def test_sweep_over_selected_workloads(self, capsys):
        assert main(["sweep", "--workloads", "astar", "omnet",
                     "--length", "2000"]) == 0
        out = capsys.readouterr().out
        assert "astar" in out and "omnet" in out

    def test_compare_against_pipt_baseline(self, capsys):
        assert main(["compare", "astar", "--baseline", "pipt",
                     "--length", "2000"]) == 0
        assert "vs pipt" in capsys.readouterr().out


class TestLintCommand:
    def test_lint_clean_file(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_reports_findings_as_json(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(a_cycles, b_ns):\n    return a_cycles + b_ns\n")
        assert main(["lint", "--json", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "simlint"
        assert payload["findings"][0]["rule"] == "SL004"

    def test_lint_select_passes_through(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text("def f(a_cycles, b_ns):\n    return a_cycles + b_ns\n")
        assert main(["lint", "--select", "SL005", str(path)]) == 0
        capsys.readouterr()


class TestSanitizeFlag:
    def test_sanitize_flag_reaches_config(self):
        from repro.cli import _config_from_args
        args = build_parser().parse_args(
            ["run", "redis", "--sanitize", "--length", "500"])
        assert _config_from_args(args).sanitize is True
        args = build_parser().parse_args(["run", "redis", "--length", "500"])
        assert _config_from_args(args).sanitize is False

    def test_run_green_under_sanitizer(self, capsys):
        assert main(["run", "astar", "--length", "2000", "--sanitize"]) == 0
        assert "runtime_cycles" in capsys.readouterr().out


class TestDoctorCommand:
    def _journal(self, tmp_path, name="j.jsonl"):
        path = tmp_path / name
        assert main(["sweep", "--workloads", "gups", "--length", "2000",
                     "--journal", str(path)]) == 0
        return path

    def test_doctor_healthy_journal(self, tmp_path, capsys):
        path = self._journal(tmp_path)
        capsys.readouterr()
        assert main(["doctor", str(path)]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_doctor_reports_corruption_then_repairs(self, tmp_path, capsys):
        path = self._journal(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:40] + "XGARBAGEX" + lines[1][49:]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["doctor", str(path)]) == 1
        captured = capsys.readouterr()
        assert "corrupt record" in captured.out
        assert "--repair" in captured.err
        assert main(["doctor", "--repair", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repaired" in out and "quarantined" in out
        assert (tmp_path / "j.jsonl.quarantine").exists()
        # the repaired journal resumes cleanly
        assert main(["resume", str(path)]) == 0

    def test_doctor_json_output(self, tmp_path, capsys):
        path = self._journal(tmp_path)
        capsys.readouterr()
        assert main(["doctor", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "journal"
        assert payload["healthy"] is True

    def test_doctor_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestSupervisionFlags:
    def test_sweep_parses_chaos_and_watchdog_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--jobs", "2", "--chaos", "worker-kill@1",
             "--chaos", "journal-torn@0:40", "--hung-after", "5",
             "--max-rss-mb", "512", "--min-free-mb", "64"])
        assert args.chaos == ["worker-kill@1", "journal-torn@0:40"]
        assert args.hung_after == 5.0
        assert args.max_rss_mb == 512.0
        assert args.min_free_mb == 64.0

    def test_policy_built_unless_no_supervise(self):
        from repro.cli import _policy_from_args
        args = build_parser().parse_args(["sweep", "--jobs", "2"])
        policy = _policy_from_args(args)
        assert policy is not None and policy.hung_after_s == 30.0
        args = build_parser().parse_args(
            ["sweep", "--jobs", "2", "--no-supervise"])
        assert _policy_from_args(args) is None

    def test_bad_chaos_spec_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--workloads", "gups", "--length", "2000",
                     "--jobs", "2", "--chaos", "bogus@1",
                     "--journal", str(tmp_path / "j.jsonl")]) == 2
        assert "unknown host fault kind" in capsys.readouterr().err

    def test_chaos_worker_kill_sweep_self_heals(self, tmp_path, capsys):
        journal = tmp_path / "kill.jsonl"
        assert main(["sweep", "--workloads", "gups", "--length", "2000",
                     "--jobs", "2", "--retries", "2",
                     "--chaos", "worker-kill@0",
                     "--journal", str(journal)]) == 0
        capsys.readouterr()

    def test_chaos_enospc_pauses_with_exit_4(self, tmp_path, capsys):
        journal = tmp_path / "pause.jsonl"
        assert main(["sweep", "--workloads", "gups", "--length", "2000",
                     "--jobs", "2", "--chaos", "journal-enospc@1",
                     "--journal", str(journal)]) == 4
        captured = capsys.readouterr()
        assert "PAUSED" in captured.err
        assert "resume" in captured.err
        # the paused journal resumes to completion
        assert main(["resume", str(journal), "--jobs", "2"]) == 0

    def test_min_free_floor_holds_without_supervision(self, tmp_path,
                                                      capsys):
        """The free-disk floor is a journal setting: --no-supervise turns
        off the watchdogs, not the floor, at any --jobs."""
        journal = tmp_path / "floor.jsonl"
        assert main(["sweep", "--workloads", "gups", "--length", "500",
                     "--jobs", "2", "--no-supervise",
                     "--min-free-mb", "100000000",
                     "--journal", str(journal)]) == 4
        assert "PAUSED" in capsys.readouterr().err


class TestUsageErrors:
    """Bad invocations must exit 2 with a usage message, not a traceback."""

    def test_sweep_resume_without_journal_is_usage_error(self, capsys):
        assert main(["sweep", "--workloads", "gups", "--length", "1000",
                     "--resume"]) == 2
        err = capsys.readouterr().err
        assert "--resume needs a journal" in err
        assert "repro resume PATH" in err

    def test_bad_inject_spec_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--workloads", "gups", "--length", "1000",
                     "--inject", "gamma-ray@7",
                     "--journal", str(tmp_path / "j.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_doctor_on_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_resume_on_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestServeParser:
    def test_serve_parses_service_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "8123", "--jobs", "4",
             "--max-pending", "16", "--quota-capacity", "32",
             "--quota-refill", "8", "--spool", "pool",
             "--cache-capacity", "512", "--timeout", "45",
             "--retries", "2", "--deadline", "120",
             "--chaos", "worker-kill@0"])
        assert args.port == 8123
        assert args.jobs == 4
        assert args.max_pending == 16
        assert args.quota_capacity == 32.0
        assert args.quota_refill == 8.0
        assert args.spool == "pool"
        assert args.cache_capacity == 512
        assert args.deadline == 120.0
        assert args.chaos == ["worker-kill@0"]

    def test_bench_parses_serve_flag(self):
        args = build_parser().parse_args(["bench", "--quick", "--serve"])
        assert args.serve is True
        assert build_parser().parse_args(["bench"]).serve is False


class TestSampledCommands:
    def test_sampled_run_json_carries_sampling_block(self, capsys):
        assert main(["run", "gups", "--length", "8000", "--sampled",
                     "--interval-size", "400", "--max-clusters", "4",
                     "--warmup", "100", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        block = payload["sampling"]
        assert block["sampled"] is True
        assert block["exact"] is False
        assert 0.0 < block["coverage"] < 1.0
        assert set(block["error_bounds"]) == {
            "l1_miss_rate", "tlb_miss_rate", "runtime_cycles",
            "energy_total_nj"}

    def test_sampled_run_text_output(self, capsys):
        assert main(["run", "gups", "--length", "8000", "--sampled",
                     "--interval-size", "400", "--max-clusters", "4"]) == 0
        out = capsys.readouterr().out
        assert "sampled" in out

    def test_sampled_refuses_fault_injection(self, capsys):
        assert main(["run", "gups", "--length", "4000", "--sampled",
                     "--inject", "tft-false-positive@2000"]) == 2
        err = capsys.readouterr().err
        assert "--sampled" in err and "--inject" in err
        assert "valid choices" in err

    def test_sampled_refuses_exact_checkpoint_restore(self, tmp_path,
                                                      capsys):
        source = tmp_path / "exact.ckpt"
        assert main(["run", "gups", "--length", "3000",
                     "--checkpoint", str(source),
                     "--checkpoint-every", "1000"]) == 0
        capsys.readouterr()
        assert main(["run", "gups", "--length", "3000", "--sampled",
                     "--from-checkpoint", str(source)]) == 2
        err = capsys.readouterr().err
        assert "--from-checkpoint" in err and "valid choices" in err

    def test_sampled_refuses_checkpoint_writing(self, tmp_path, capsys):
        assert main(["run", "gups", "--length", "3000", "--sampled",
                     "--checkpoint", str(tmp_path / "out.ckpt")]) == 2
        err = capsys.readouterr().err
        assert "--checkpoint" in err and "valid choices" in err

    def test_tuning_flags_require_sampled(self, capsys):
        assert main(["run", "gups", "--length", "3000",
                     "--interval-size", "500"]) == 2
        err = capsys.readouterr().err
        assert "--interval-size" in err and "--sampled" in err

    def test_sweep_refuses_sampled_fault_injection(self, capsys):
        assert main(["sweep", "--workloads", "gups", "--length", "3000",
                     "--sampled", "--inject", "energy-skew@100"]) == 2
        err = capsys.readouterr().err
        assert "--sampled" in err and "--inject" in err
        assert "valid choices" in err

    def test_sampled_sweep_journal_and_resume(self, tmp_path, capsys):
        journal = tmp_path / "sampled.jsonl"
        assert main(["sweep", "--workloads", "gups", "--length", "8000",
                     "--sampled", "--interval-size", "400",
                     "--max-clusters", "4", "--journal",
                     str(journal)]) == 0
        capsys.readouterr()
        header = json.loads(journal.read_text().splitlines()[0])
        assert header["sampling"]["interval_size"] == 400
        # resume reconstructs the plan from the header: all reused
        assert main(["resume", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "reused" in out
