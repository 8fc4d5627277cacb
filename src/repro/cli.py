"""Command-line interface.

``python -m repro <command>``:

* ``workloads``  — list the synthetic workload suite;
* ``run``        — simulate one workload under one design and print the
  result counters; ``--sampled`` switches to sampled interval
  simulation (cluster representatives + extrapolation with reported
  error bounds; also available on ``sweep`` and ``bench``);
* ``compare``    — run SEESAW against a baseline on identical traces and
  print runtime/energy improvements;
* ``sweep``      — the compare, across several workloads, with optional
  journaling (``--journal``/``--resume``), subprocess isolation
  (``--isolate``/``--timeout``), parallel workers (``--jobs``), and
  fault injection (``--inject``);
* ``resume``     — continue an interrupted journaled sweep;
* ``doctor``     — validate a sweep journal or checkpoint and, with
  ``--repair``, quarantine corrupt records and rebuild the journal;
* ``bench``      — measure simulator throughput and stage latencies,
  emitting ``BENCH_perf.json`` with an optional regression gate
  (``--baseline``/``--max-regression``);
* ``table3``     — print the paper's Table III latency configurations;
* ``lint``       — run the simlint static analyser (``repro lint src/``);
* ``serve``      — run the fault-tolerant simulation service: an HTTP/
  JSON-RPC front end over the same sweep machinery, with per-client
  quotas, a bounded pending pool, per-request deadlines, a
  content-addressed result cache, and graceful drain on SIGINT/SIGTERM
  (see :mod:`repro.serve`);
* ``campaign``   — fault-tolerant distributed campaigns: ``init`` a
  named-axes grid, ``run``/``worker`` N shard processes that claim
  cells via crash-safe leases and journal per shard, ``status`` the
  settled/leased/pending split, ``merge`` every shard journal into one
  canonical journal (salvaging torn records, resolving lease-steal
  duplicates), and ``report`` the runtime-vs-energy Pareto ranking
  (see :mod:`repro.campaign`).

Every command accepts ``--seed`` and ``--length`` so results are exactly
reproducible, and every simulating command accepts ``--sanitize`` to arm
the runtime invariant sanitizer (see :mod:`repro.devtools.sanitize`) or
``--no-sanitize`` to force it off (overriding ``REPRO_SANITIZE``, e.g. to
let a fault-injection run complete and flag the faults in its report).
Every sweep runs through one engine (:mod:`repro.resilience.runner`).
Cells that run in a subprocess — all of them above ``--jobs 1``, and
at one job under ``--isolate``/``--timeout`` — are supervised by
default: worker heartbeats, hung-worker replacement and RSS watchdogs,
tunable with ``--hung-after``/``--max-rss-mb`` and disabled by
``--no-supervise``.  The ``--min-free-mb`` journal floor applies at
every ``--jobs`` value, supervised or not.  ``--chaos KIND@N[:BYTES]``
injects deterministic host faults (see :mod:`repro.resilience.chaos`)
to exercise that machinery.

Exit codes: 0 success; 1 a sweep completed but some cells failed (or
lint/doctor found issues); 2 usage/configuration errors (including
unrepairable journals); 3 the sanitizer tripped; 4 a sweep paused
cleanly (disk guard or journal write fault — ``repro resume``
continues); 128+signum on SIGINT/SIGTERM (130/143) after flushing and
canonicalizing the journal.  ``repro serve`` shares the contract: a
signalled server drains (in-flight requests flush their journals,
clients get resume tokens) and exits 128+signum; a ``shutdown`` RPC
drains and exits 0.  ``repro ingest`` extends it to trace import: 0 a
clean ingest (or an idempotent re-run over a finished one); 1 malformed
records were quarantined within budget; 2 the input is unusable
(unsniffable format, ``--strict`` hit a bad record, the bad-record
budget overflowed, or a resume's input fingerprint mismatched); 4 the
ingest paused resumable (input EIO, sidecar write fault) — re-running
the same command resumes from the offset journal.  The trace-side chaos
kinds ``trace-truncate-input@BYTES``, ``trace-garbage@N`` and
``trace-eio@N`` drill exactly those paths.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.energy.sram import TABLE3
from repro.sim.config import SystemConfig
from repro.sim.experiment import (
    compare_designs,
    energy_improvement,
    runtime_improvement,
)
from repro.sim.system import simulate
from repro.workloads.suite import WORKLOADS, build_trace, get_workload

DESIGNS = ("vipt", "pipt", "vivt", "seesaw")


def _add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--design", choices=DESIGNS, default="seesaw",
                        help="L1 design under test")
    parser.add_argument("--size-kb", type=int, default=32,
                        choices=(32, 64, 128), help="L1 capacity")
    parser.add_argument("--freq", type=float, default=1.33,
                        help="core frequency in GHz")
    parser.add_argument("--core", choices=("ooo", "inorder"), default="ooo",
                        help="core timing model")
    parser.add_argument("--memhog", type=float, default=0.0,
                        help="memhog fraction (0..0.75)")
    parser.add_argument("--way-prediction", action="store_true",
                        help="attach an MRU way predictor")
    parser.add_argument("--length", type=int, default=30_000,
                        help="trace length in references")
    parser.add_argument("--seed", type=int, default=42, help="RNG seed")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--sanitize", action="store_true",
                       help="arm the runtime invariant sanitizer "
                            "(equivalent to REPRO_SANITIZE=1)")
    group.add_argument("--no-sanitize", action="store_true",
                       help="force the sanitizer off, overriding "
                            "REPRO_SANITIZE (fault-injection runs then "
                            "complete and flag the faults in the report)")


def _add_sampling_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sampled", action="store_true",
                        help="sampled interval simulation: profile, "
                             "cluster, simulate representatives, and "
                             "extrapolate with reported error bounds")
    parser.add_argument("--interval-size", metavar="N", type=int,
                        default=None,
                        help="references per sampling interval "
                             "(with --sampled)")
    parser.add_argument("--max-clusters", metavar="K", type=int,
                        default=None,
                        help="sampling cluster budget (with --sampled)")
    parser.add_argument("--warmup", metavar="W", type=int, default=None,
                        help="warmup references replayed before each "
                             "representative interval (with --sampled)")


def _sampling_plan_from_args(args: argparse.Namespace):
    tuning = [flag for flag, value in (
        ("--interval-size", args.interval_size),
        ("--max-clusters", args.max_clusters),
        ("--warmup", args.warmup)) if value is not None]
    if not getattr(args, "sampled", False):
        if tuning:
            raise ValueError(
                f"{tuning[0]} only applies to the sampled lane; valid "
                f"choices: add --sampled, or drop "
                f"{'/'.join(tuning)} for an exact run")
        return None
    from repro.sampling import SamplingPlan

    defaults = SamplingPlan()
    return SamplingPlan(
        interval_size=(args.interval_size if args.interval_size is not None
                       else defaults.interval_size),
        max_clusters=(args.max_clusters if args.max_clusters is not None
                      else defaults.max_clusters),
        warmup=args.warmup if args.warmup is not None else defaults.warmup)


def _add_injection_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--inject", metavar="KIND@INDEX", action="append",
                        default=None,
                        help="inject a fault at a trace index (repeatable); "
                             "kinds: tft-false-positive, partition-desync, "
                             "tlb-shootdown-drop, trace-truncate, "
                             "energy-skew, stats-skew")


def _apply_sanitizer_override(args: argparse.Namespace) -> None:
    if getattr(args, "no_sanitize", False):
        from repro.devtools import sanitize
        sanitize.enable(False)


def _fault_plan_from_args(args: argparse.Namespace):
    specs = getattr(args, "inject", None)
    if not specs:
        return None
    from repro.resilience.faults import FaultPlan
    return FaultPlan.parse(specs)


def _add_supervision_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--chaos", metavar="KIND@N[:BYTES]",
                        action="append", default=None,
                        help="inject a deterministic host fault "
                             "(repeatable); kinds: worker-kill, "
                             "journal-enospc, journal-eio, journal-torn, "
                             "checkpoint-enospc, checkpoint-eio, "
                             "checkpoint-torn, sigint, sigterm, "
                             "shard-kill, lease-steal, stale-lock")
    parser.add_argument("--no-supervise", action="store_true",
                        help="disable worker heartbeats and the hung/RSS "
                             "watchdogs (every subprocess cell — any "
                             "--jobs above 1, --isolate, --timeout — is "
                             "supervised by default); the --min-free-mb "
                             "floor still applies")
    parser.add_argument("--hung-after", metavar="SECONDS", type=float,
                        default=30.0,
                        help="kill and requeue a subprocess cell's worker "
                             "silent for this long")
    parser.add_argument("--max-rss-mb", metavar="MB", type=float,
                        default=None,
                        help="RSS ceiling per subprocess cell's worker; "
                             "above --jobs 1 breaches downshift --jobs "
                             "before consuming the retry budget")
    parser.add_argument("--min-free-mb", metavar="MB", type=float,
                        default=32.0,
                        help="pause the sweep (exit 4, resumable) when "
                             "the journal's filesystem falls below this "
                             "free-space floor")


def _chaos_plan_from_args(args: argparse.Namespace):
    specs = getattr(args, "chaos", None)
    if not specs:
        return None
    from repro.resilience.chaos import HostFaultPlan
    return HostFaultPlan.parse(specs)


def _policy_from_args(args: argparse.Namespace):
    """The watchdog policy, or None under ``--no-supervise``."""
    if getattr(args, "no_supervise", False):
        return None
    from repro.resilience.supervisor import SupervisionPolicy
    return SupervisionPolicy(hung_after_s=args.hung_after,
                             max_rss_mb=args.max_rss_mb,
                             min_free_mb=args.min_free_mb)


def _sweep_policy(args: argparse.Namespace):
    """The policy a sweep or server runs under: ``--no-supervise`` turns
    the watchdogs off but keeps the ``--min-free-mb`` journal floor."""
    from repro.resilience.supervisor import SupervisionPolicy
    return _policy_from_args(args) or SupervisionPolicy(
        heartbeat_s=None, hung_after_s=None, min_free_mb=args.min_free_mb)


def _config_from_args(args: argparse.Namespace,
                      design: Optional[str] = None) -> SystemConfig:
    return SystemConfig(
        l1_design=design or args.design,
        l1_size_kb=args.size_kb,
        frequency_ghz=args.freq,
        core=args.core,
        memhog_fraction=args.memhog,
        way_prediction=args.way_prediction,
        seed=args.seed,
        sanitize=args.sanitize,
    )


def _result_row(result) -> dict:
    return {
        "workload": result.workload,
        "runtime_cycles": result.runtime_cycles,
        "ipc": round(result.ipc, 4),
        "l1_hit_rate": round(result.l1_hit_rate, 4),
        "l1_mpki": round(result.l1_mpki, 2),
        "energy_nj": round(result.total_energy_nj, 1),
        "superpage_refs": round(result.superpage_reference_fraction, 4),
        "tft_hit_rate": round(result.tft_hit_rate, 4),
    }


def cmd_workloads(args: argparse.Namespace) -> int:
    rows = [[name, spec.footprint_bytes // 1024, spec.threads,
             f"{spec.write_fraction:.2f}", spec.description]
            for name, spec in WORKLOADS.items()]
    print(format_table(
        ["name", "footprint(KB)", "threads", "writes", "description"],
        rows, title="Workload suite"))
    return 0


def _run_workload_token(args: argparse.Namespace) -> str:
    """Resolve run/compare's workload identity: a synthetic name, an
    ``rtrace:<path>`` token, or ``--trace FILE`` (sugar for the token)."""
    from repro.ingest import trace_token

    if getattr(args, "trace", None):
        if args.workload:
            raise ValueError(
                "pass either a workload name or --trace FILE, not both")
        return trace_token(args.trace)
    if not args.workload:
        raise ValueError(
            f"run needs a workload name, an rtrace:<path> token, or "
            f"--trace FILE; valid workloads: "
            f"{', '.join(sorted(WORKLOADS))}")
    return args.workload


def _build_run_trace(workload: str, args: argparse.Namespace,
                     private: bool = False):
    """The trace for one run: generated for synthetic workloads, loaded
    (checksum-verified) for ingested ones.  ``private`` forces a fresh
    copy for paths that may mutate the trace (fault injection)."""
    from repro.ingest import is_rtrace_token, load_rtrace, rtrace_path

    if is_rtrace_token(workload):
        if private:
            return load_rtrace(rtrace_path(workload))
        from repro.workloads.suite import cached_trace
        return cached_trace(workload, args.length, args.seed)
    return build_trace(get_workload(workload), length=args.length,
                       seed=args.seed)


def cmd_run(args: argparse.Namespace) -> int:
    _apply_sanitizer_override(args)
    workload = _run_workload_token(args)
    sampling_plan = _sampling_plan_from_args(args)
    if sampling_plan is not None:
        if args.inject:
            raise ValueError(
                "--sampled cannot be combined with --inject: extrapolated "
                "counters would hide or scale the injected damage; valid "
                "choices: drop --sampled (exact fault campaign) or drop "
                "--inject (sampled estimate)")
        if args.from_checkpoint:
            raise ValueError(
                "--sampled cannot resume --from-checkpoint: checkpoints "
                "hold exact-lane state mid-trace, and grafting it under "
                "extrapolation would corrupt both lanes; valid choices: "
                "drop --sampled (finish the exact run) or drop "
                "--from-checkpoint (sample the whole trace)")
        if args.checkpoint:
            raise ValueError(
                "--sampled cannot write --checkpoint files: a sampled run "
                "skips trace spans, so its mid-run state is not a resume "
                "point for the exact lane; valid choices: drop --sampled "
                "or drop --checkpoint")
        from repro.sampling import simulate_sampled
        trace = _build_run_trace(workload, args)
        result = simulate_sampled(_config_from_args(args), trace,
                                  sampling_plan)
        payload = _result_row(result)
        payload["config"] = _config_from_args(args).describe()
        payload["sampling"] = result.sampling
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            block = payload.pop("sampling")
            rows = [[k, v] for k, v in payload.items()]
            rows.append(["sampled", f"{block['num_clusters']}/"
                                    f"{block['num_intervals']} intervals "
                                    f"(coverage "
                                    f"{block['coverage']:.3f})"])
            for metric, bound in sorted(block["error_bounds"].items()):
                rows.append([f"bound {metric}", f"±{bound:.3f}"])
            print(format_table(["metric", "value"], rows,
                               title=f"run (sampled): {trace.name}"))
        return 0
    plan = _fault_plan_from_args(args)
    trace = _build_run_trace(workload, args, private=plan is not None)
    config = _config_from_args(args)
    if args.from_checkpoint:
        from repro.resilience.checkpoint import restore_simulator
        sim = restore_simulator(args.from_checkpoint, config, trace)
    else:
        from repro.sim.system import SystemSimulator
        sim = SystemSimulator(config, trace)
    if plan is not None:
        sim.arm_faults(plan)
    if args.checkpoint:
        sim.run_until(len(trace.addresses),
                      checkpoint_path=args.checkpoint,
                      checkpoint_interval=args.checkpoint_every)
    result = sim.finish()
    payload = _result_row(result)
    payload["config"] = config.describe()
    if result.faults_injected:
        payload["faults_injected"] = ",".join(result.faults_injected)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(format_table(["metric", "value"],
                           [[k, v] for k, v in payload.items()],
                           title=f"run: {trace.name}"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    _apply_sanitizer_override(args)
    trace = build_trace(get_workload(args.workload), length=args.length,
                        seed=args.seed)
    results = compare_designs(_config_from_args(args), trace,
                              designs=(args.baseline, args.design))
    runtime = runtime_improvement(results, args.baseline, args.design)
    energy = energy_improvement(results, args.baseline, args.design)
    if args.json:
        print(json.dumps({
            "workload": args.workload,
            "baseline": _result_row(results[args.baseline]),
            "candidate": _result_row(results[args.design]),
            "runtime_improvement_pct": round(runtime, 3),
            "energy_improvement_pct": round(energy, 3),
        }, indent=2))
    else:
        print(f"{args.workload}: {args.design} vs {args.baseline} — "
              f"runtime +{runtime:.2f}%, energy +{energy:.2f}%")
    return 0


def _print_sweep_report(report, baseline: str, design: str,
                        title: str) -> int:
    """Render a SweepReport as the classic improvement table, plus any
    failed cells; returns the process exit code (1 when cells failed)."""
    rows = []
    injected = False
    for workload in report.results:
        by_design = report.results[workload]
        if baseline in by_design and design in by_design:
            row = [workload,
                   f"{runtime_improvement(by_design, baseline, design):.2f}",
                   f"{energy_improvement(by_design, baseline, design):.2f}"]
            faults = sorted(set(by_design[baseline].faults_injected)
                            | set(by_design[design].faults_injected))
            if faults:
                injected = True
                row.append(",".join(faults))
            rows.append(row)
    headers = ["workload", "runtime %", "energy %"]
    if injected:
        headers.append("faults")
        for row in rows:
            if len(row) < len(headers):
                row.append("")
    print(format_table(headers, rows, title=title))
    for failure in report.failures:
        print(f"FAILED cell ({failure.workload}, {failure.design}): "
              f"{failure.error_class}: {failure.message} "
              f"[{failure.attempts} attempt(s)]")
    if report.reused:
        print(f"resumed: {report.reused} cell(s) reused from the journal, "
              f"{report.executed} executed")
    if report.paused:
        from repro.resilience.errors import EXIT_PAUSED
        print(f"PAUSED: {report.pause_reason}", file=sys.stderr)
        if report.resume_hint:
            print(f"to continue: {report.resume_hint}", file=sys.stderr)
        return EXIT_PAUSED
    return 0 if report.ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    _apply_sanitizer_override(args)
    from repro.resilience import chaos

    if args.resume and not args.journal:
        raise ValueError(
            "--resume needs a journal to resume from; valid forms: "
            "`repro sweep --journal PATH --resume` (reuse completed "
            "cells from PATH) or `repro resume PATH` (continue an "
            "interrupted sweep from its own header)")
    if getattr(args, "trace", None):
        from repro.ingest import trace_token
        # --trace FILEs become extra sweep rows; named alone they replace
        # the default "every synthetic workload" expansion.
        names = list(args.workloads or []) + [trace_token(path)
                                              for path in args.trace]
    else:
        names = args.workloads or list(WORKLOADS)
    sampling_plan = _sampling_plan_from_args(args)
    if sampling_plan is not None and args.inject:
        raise ValueError(
            "--sampled cannot be combined with --inject: extrapolated "
            "counters would hide or scale the injected damage; valid "
            "choices: drop --sampled (exact fault campaign) or drop "
            "--inject (sampled estimate)")
    from repro.resilience.runner import resilient_sweep
    with chaos.armed(_chaos_plan_from_args(args)):
        report = resilient_sweep(
            _config_from_args(args), names,
            trace_length=args.length, seed=args.seed,
            designs=(args.baseline, args.design),
            journal_path=args.journal,
            resume=args.resume,
            jobs=args.jobs,
            isolate=args.isolate,
            timeout_s=args.timeout,
            max_retries=args.retries,
            fault_plan=_fault_plan_from_args(args),
            policy=_sweep_policy(args),
            sampling_plan=sampling_plan)
    return _print_sweep_report(
        report, args.baseline, args.design,
        title=f"{args.design} vs {args.baseline} "
              f"({args.size_kb}KB @ {args.freq}GHz, {args.core})")


def cmd_resume(args: argparse.Namespace) -> int:
    """Continue an interrupted journaled sweep from its own header."""
    from repro.resilience import chaos
    from repro.resilience.checkpoint import config_from_dict
    from repro.resilience.runner import SweepJournal, resilient_sweep

    header, _cells = SweepJournal(args.journal).read()
    config = config_from_dict(header["config"])
    designs = header["designs"]
    sampling_plan = None
    if header.get("sampling") is not None:
        # The journal is a sampled-lane journal: resume it under the
        # exact plan it was started with, so cell digests keep matching.
        from repro.sampling import SamplingPlan

        sampling_plan = SamplingPlan.from_dict(header["sampling"])
    with chaos.armed(_chaos_plan_from_args(args)):
        report = resilient_sweep(
            config, header["workloads"],
            trace_length=header["trace_length"], seed=header["seed"],
            designs=designs,
            journal_path=args.journal, resume=True,
            jobs=args.jobs, isolate=args.isolate, timeout_s=args.timeout,
            max_retries=args.retries,
            policy=_sweep_policy(args),
            sampling_plan=sampling_plan)
    baseline = designs[0]
    design = designs[-1]
    return _print_sweep_report(
        report, baseline, design,
        title=f"resumed sweep: {design} vs {baseline} "
              f"({config.describe()})")


def cmd_ingest(args: argparse.Namespace) -> int:
    """Ingest a real trace file into a canonical ``.rtrace``."""
    from repro.ingest import ingest_trace
    from repro.resilience import chaos

    with chaos.armed(_chaos_plan_from_args(args)):
        report = ingest_trace(
            args.input, output=args.output, fmt=args.format,
            name=args.name, strict=args.strict,
            max_bad_records=args.max_bad_records,
            checkpoint_every=args.checkpoint_every,
            force=args.force)
    if args.json:
        payload = {
            "output": report.output,
            "format": report.format,
            "records": report.records,
            "bad_records": report.bad_records,
            "trace_digest": report.trace_digest,
            "quarantine": report.quarantine,
            "resumed_from": report.resumed_from,
            "already_complete": report.already_complete,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return report.exit_code
    if report.already_complete:
        print(f"{report.output}: already ingested ({report.records} "
              f"records, digest {report.trace_digest[:12]}...); "
              f"pass --force to re-ingest")
        return report.exit_code
    resumed = (f", resumed from byte {report.resumed_from}"
               if report.resumed_from else "")
    print(f"ingested {args.input} -> {report.output}: {report.records} "
          f"record(s) [{report.format}]{resumed}, digest "
          f"{report.trace_digest[:12]}...")
    if report.bad_records:
        print(f"  quarantined {report.bad_records} malformed record(s) "
              f"to {report.quarantine}")
    print(f"  run it with: python -m repro run --trace {report.output}")
    return report.exit_code


def cmd_doctor(args: argparse.Namespace) -> int:
    """Validate (and with ``--repair`` fix) a journal or checkpoint."""
    from repro.resilience import doctor

    diagnosis = (doctor.repair(args.path) if args.repair
                 else doctor.diagnose(args.path))
    if args.json:
        print(json.dumps(diagnosis.as_dict(), indent=2, sort_keys=True))
    else:
        state = ("healthy" if diagnosis.healthy and not diagnosis.repaired
                 else "repaired" if diagnosis.repaired
                 else "unhealthy")
        print(f"{diagnosis.kind} {diagnosis.path}: {state}")
        for problem in diagnosis.problems:
            print(f"  problem: {problem}")
        for note in diagnosis.notes:
            print(f"  note: {note}")
        if diagnosis.repaired:
            if diagnosis.quarantined:
                print(f"  quarantined {diagnosis.quarantined} record(s) "
                      f"to {diagnosis.quarantine_path}")
            if diagnosis.salvaged:
                rebuilt = ("rtrace" if diagnosis.kind == "rtrace"
                           else "journal")
                print(f"  salvaged {diagnosis.salvaged} record(s) into "
                      f"the canonical {rebuilt}")
        for cell in diagnosis.rerun_cells:
            print(f"  re-run: ({cell[0]}, {cell[1]})")
        if diagnosis.kind == "journal" and diagnosis.rerun_cells:
            print(f"  resume with: python -m repro resume {diagnosis.path}")
    if diagnosis.healthy or diagnosis.repaired:
        return 0
    if not args.repair and diagnosis.repairable:
        print(f"run `python -m repro doctor --repair {args.path}` to "
              f"quarantine corrupt records and rebuild", file=sys.stderr)
    return 1


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import check_regression, load_payload, run_benchmark

    sampling_plan = _sampling_plan_from_args(args)
    payload = run_benchmark(trace_length=args.length, seed=args.seed,
                            repeats=args.repeats, jobs=args.jobs,
                            quick=args.quick)
    if args.serve:
        from repro.perf.bench import bench_serve
        payload["serve"] = bench_serve(seed=args.seed)
    if sampling_plan is not None:
        from repro.perf.bench import bench_sampled
        payload["sampled"] = bench_sampled(
            trace_length=args.length, seed=args.seed,
            quick=args.quick, plan=sampling_plan)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    rows = [["cells/sec", f"{payload['cells_per_sec']:.3f}"],
            ["accesses/sec", f"{payload['accesses_per_sec']:.0f}"],
            ["wall (best repeat)", f"{payload['wall_s']:.3f}s"]]
    for stage, figures in payload["stages"].items():
        rows.append([f"{stage} p50/p95",
                     f"{figures['p50_s'] * 1e3:.1f}ms / "
                     f"{figures['p95_s'] * 1e3:.1f}ms"])
    if "parallel" in payload:
        parallel = payload["parallel"]
        rows.append([f"parallel x{parallel['jobs']}",
                     f"{parallel['wall_s']:.3f}s "
                     f"({parallel['speedup_vs_serial']:.2f}x)"])
    if "serve" in payload:
        serve = payload["serve"]
        rows.append(["serve round-trips/sec (cached)",
                     f"{serve['round_trips_per_sec']:.1f}"])
        rows.append(["serve p50/p95",
                     f"{serve['p50_s'] * 1e3:.1f}ms / "
                     f"{serve['p95_s'] * 1e3:.1f}ms"])
    if "sampled" in payload:
        sampled = payload["sampled"]
        rows.append(["sampled speedup (min/median)",
                     f"{sampled['min_speedup']:.2f}x / "
                     f"{sampled['median_speedup']:.2f}x"])
        rows.append(["sampled worst error",
                     f"{sampled['worst_error']:.4f} "
                     f"({sampled['worst_error_metric']})"])
    print(format_table(["metric", "value"], rows,
                       title=f"bench ({len(payload['params']['workloads'])}"
                             f" workloads x "
                             f"{len(payload['params']['designs'])} designs"
                             f", {args.length} refs)"))
    print(f"wrote {args.output}")
    exit_code = 0
    if args.baseline:
        problems = check_regression(payload, load_payload(args.baseline),
                                    args.max_regression)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if problems:
            exit_code = 1
        else:
            print(f"regression check passed against {args.baseline}")
    if "sampled" in payload:
        from repro.perf.bench import check_sampling
        problems = check_sampling(payload["sampled"],
                                  args.min_sampled_speedup,
                                  args.max_sampled_error)
        for problem in problems:
            print(f"SAMPLING GATE: {problem}", file=sys.stderr)
        if problems:
            exit_code = 1
        else:
            print(f"sampling gate passed: >= "
                  f"{args.min_sampled_speedup:g}x speedup, <= "
                  f"{args.max_sampled_error:g} relative error")
    return exit_code


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service until drained; exit per the contract."""
    from pathlib import Path

    from repro.resilience import chaos
    from repro.serve.server import ServeConfig, SimulationServer

    config = ServeConfig(
        host=args.host,
        port=args.port,
        port_file=Path(args.port_file) if args.port_file else None,
        jobs=args.jobs,
        max_pending=args.max_pending,
        quota_capacity=args.quota_capacity,
        quota_refill_per_s=args.quota_refill,
        spool=Path(args.spool),
        cache_capacity=args.cache_capacity,
        timeout_s=args.timeout,
        retries=args.retries,
        deadline_s=args.deadline,
        policy=_sweep_policy(args),
    )
    server = SimulationServer(config)
    print(f"repro serve: spool {config.spool}, {config.jobs} worker "
          f"slot(s), {config.max_pending} pending max", file=sys.stderr)
    with chaos.armed(_chaos_plan_from_args(args)):
        exit_code = server.run_forever()
    print(f"repro serve: drained, exit {exit_code}", file=sys.stderr)
    return exit_code


def _campaign_exec_arguments(parser: argparse.ArgumentParser) -> None:
    """Execution knobs shared by ``campaign run`` and ``campaign worker``."""
    parser.add_argument("--ttl", metavar="SECONDS", type=float,
                        default=15.0,
                        help="lease lifetime; a shard that stops "
                             "heartbeating loses its cells after this "
                             "long and survivors reclaim them")
    parser.add_argument("--heartbeat", metavar="SECONDS", type=float,
                        default=None,
                        help="lease renewal period (default ttl/3)")
    parser.add_argument("--timeout", metavar="SECONDS", type=float,
                        default=None,
                        help="wall-clock budget per cell attempt")
    parser.add_argument("--retries", metavar="N", type=int, default=1,
                        help="transient-failure retries per claim, and "
                             "the reclaim budget (1+N claim generations) "
                             "before a cell degrades to FailedCell")
    parser.add_argument("--stall-timeout", metavar="SECONDS", type=float,
                        default=None,
                        help="give up (exit 4, resumable) after this "
                             "long without campaign progress "
                             "(default max(4*ttl, 20))")
    parser.add_argument("--isolate", action="store_true",
                        help="run each cell in a watchdogged subprocess")
    parser.add_argument("--chaos", metavar="KIND@N[:BYTES]",
                        action="append", default=None,
                        help="inject deterministic host faults "
                             "(campaign kinds: shard-kill, lease-steal, "
                             "stale-lock; plus the journal/checkpoint "
                             "kinds)")


def _print_campaign_status(status: dict) -> int:
    """Render a campaign status snapshot; returns the contract exit."""
    rows = [["cells", status["cells"]],
            ["settled", status["settled"]],
            ["done", status["done"]],
            ["failed", status["failed"]],
            ["leased (live)", status["leased_live"]],
            ["leased (expired)", status["leased_expired"]],
            ["pending", status["pending"]]]
    for shard, records in sorted(status["shards"].items()):
        rows.append([f"shard {shard}", f"{records} record(s)"])
    print(format_table(["metric", "value"], rows,
                       title=f"campaign {status['campaign']} "
                             f"({status['spec_digest'][:12]}...)"))
    if not status["complete"]:
        print("campaign incomplete — resume with: "
              "python -m repro campaign run <dir>", file=sys.stderr)
        from repro.resilience.errors import EXIT_PAUSED
        return EXIT_PAUSED
    return 1 if status["failed"] else 0


def _campaign_worker_argv(args: argparse.Namespace, shard_id: str,
                          with_chaos: bool) -> List[str]:
    argv = [sys.executable, "-m", "repro", "campaign", "worker", args.dir,
            "--shard-id", shard_id, "--ttl", str(args.ttl),
            "--retries", str(args.retries)]
    if args.heartbeat is not None:
        argv += ["--heartbeat", str(args.heartbeat)]
    if args.timeout is not None:
        argv += ["--timeout", str(args.timeout)]
    if args.stall_timeout is not None:
        argv += ["--stall-timeout", str(args.stall_timeout)]
    if args.isolate:
        argv.append("--isolate")
    if with_chaos and args.chaos:
        for spec in args.chaos:
            argv += ["--chaos", spec]
    return argv


def cmd_campaign(args: argparse.Namespace) -> int:
    """Dispatch ``repro campaign <init|run|worker|status|merge|report>``."""
    from repro.campaign import (
        CampaignSpec,
        campaign_pareto,
        campaign_status,
        format_pareto,
        merge_campaign,
        parse_axis_argument,
        run_shard,
    )

    if args.campaign_command == "init":
        from repro.resilience.errors import CampaignError
        if args.preset is not None:
            if args.axis:
                raise CampaignError(
                    "--preset declares the full grid; it cannot be "
                    "combined with --axis (drop one of them)")
            from repro.campaign import preset_spec
            spec = preset_spec(args.preset, name=args.name,
                               trace_length=args.length, seed=args.seed)
        else:
            if not args.name or not args.axis:
                raise CampaignError(
                    "campaign init needs either --preset NAME or both "
                    "--name and at least one --axis (see `repro campaign "
                    "presets` for the named studies)")
            spec = CampaignSpec(
                name=args.name,
                axes=[parse_axis_argument(axis) for axis in args.axis],
                trace_length=args.length,
                seed=args.seed)
        path = spec.save(args.dir)
        cells = spec.cells()
        print(f"campaign {spec.name}: {len(cells)} cell(s), spec digest "
              f"{spec.digest()[:12]}..., wrote {path}")
        return 0

    if args.campaign_command == "presets":
        from repro.campaign import preset_summaries
        rows = [[name, cells, description]
                for name, description, cells in preset_summaries()]
        print(format_table(["preset", "cells", "study"], rows,
                           title="Campaign presets"))
        return 0

    if args.campaign_command == "worker":
        from repro.resilience import chaos
        with chaos.armed(_chaos_plan_from_args(args)):
            report = run_shard(
                args.dir, args.shard_id,
                ttl_s=args.ttl, heartbeat_s=args.heartbeat,
                timeout_s=args.timeout, max_retries=args.retries,
                stall_timeout_s=args.stall_timeout,
                isolate=args.isolate)
        print(f"shard {report.shard_id}: executed {report.executed}, "
              f"reclaimed {report.reclaimed}, failed {report.failed}, "
              f"settled {report.settled_total}/{report.cells_total}")
        if report.pause_reason:
            print(f"PAUSED: {report.pause_reason}", file=sys.stderr)
        if not report.complete:
            from repro.resilience.errors import EXIT_PAUSED
            return EXIT_PAUSED
        return 1 if report.failed else 0

    if args.campaign_command == "run":
        import os as _os
        import subprocess

        import repro as _repro

        env = dict(_os.environ)
        package_root = str(_os.path.dirname(_os.path.dirname(
            _os.path.abspath(_repro.__file__))))
        env["PYTHONPATH"] = package_root + _os.pathsep + env.get(
            "PYTHONPATH", "")
        workers = []
        for index in range(args.shards):
            shard_id = f"shard-{index}"
            argv = _campaign_worker_argv(
                args, shard_id, with_chaos=(index == args.chaos_shard))
            workers.append((shard_id, subprocess.Popen(argv, env=env)))
        for shard_id, worker in workers:
            code = worker.wait()
            if code < 0:
                import signal as _signal
                try:
                    name = _signal.Signals(-code).name
                except ValueError:
                    name = f"signal {-code}"
                print(f"{shard_id}: died on {name} — its leased cells "
                      f"expire and survivors reclaim them",
                      file=sys.stderr)
            elif code not in (0, 1):
                print(f"{shard_id}: exit {code}", file=sys.stderr)
        return _print_campaign_status(campaign_status(args.dir))

    if args.campaign_command == "status":
        status = campaign_status(args.dir)
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            from repro.resilience.errors import EXIT_PAUSED
            return (EXIT_PAUSED if not status["complete"]
                    else 1 if status["failed"] else 0)
        return _print_campaign_status(status)

    if args.campaign_command == "merge":
        report = merge_campaign(args.dir, output_path=args.output)
        if args.json:
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
            return report.exit_code
        print(f"campaign {report.campaign}: merged {report.salvaged} "
              f"record(s) from {len(report.shards)} shard journal(s) "
              f"into {report.output_path}")
        if report.quarantined:
            print(f"  quarantined {report.quarantined} corrupt line(s): "
                  f"{', '.join(report.quarantine_paths)}")
        for cell, winner, losers in report.resolutions:
            print(f"  duplicate {cell}: kept shard {winner}, superseded "
                  f"{', '.join(losers)}")
        for note in report.notes:
            print(f"  note: {note}")
        for failure in report.failed_cells:
            print(f"  FAILED cell {failure['cell']}: "
                  f"{failure['error_class']} [shard "
                  f"{failure['shard'] or '?'}, {failure['attempts']} "
                  f"attempt(s)]")
        if report.missing_cells:
            print(f"  {len(report.missing_cells)} cell(s) unsettled: "
                  f"{', '.join(report.missing_cells[:8])}"
                  f"{'...' if len(report.missing_cells) > 8 else ''}",
                  file=sys.stderr)
            print("  resume with: python -m repro campaign run "
                  f"{args.dir}", file=sys.stderr)
        return report.exit_code

    if args.campaign_command == "report":
        from pathlib import Path

        from repro.campaign import MERGED_FILENAME
        merged = (Path(args.merged) if args.merged
                  else Path(args.dir) / MERGED_FILENAME)
        analysis = campaign_pareto(merged)
        if args.json:
            print(json.dumps(analysis, indent=2, sort_keys=True))
        else:
            print(format_pareto(analysis))
        return 1 if analysis["failed"] else 0

    raise ValueError(f"unknown campaign command {args.campaign_command!r}")


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.simlint import cli as simlint_cli
    argv: List[str] = list(args.paths)
    if args.json:
        argv.insert(0, "--json")
    if args.select:
        argv[:0] = ["--select", args.select]
    return simlint_cli.main(argv)


def cmd_table3(args: argparse.Namespace) -> int:
    rows = [[f"{size}KB", f"{freq:.2f}GHz", tft, base, super_]
            for (size, freq), (tft, base, super_) in sorted(TABLE3.items())]
    print(format_table(
        ["cache", "frequency", "TFT", "base-page", "superpage"],
        rows, title="Table III — L1 access latencies (cycles)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEESAW (ISCA 2018) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list the workload suite")
    sub.add_parser("table3", help="print the Table III configurations")

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("workload", nargs="?", default=None,
                     help="a workload name (see `repro workloads`) or an "
                          "rtrace:<path> ingested-trace token")
    run.add_argument("--trace", metavar="FILE.rtrace", default=None,
                     help="simulate an ingested trace file instead of a "
                          "synthetic workload (see `repro ingest`); "
                          "--length/--seed do not apply — the trace is "
                          "replayed as recorded")
    run.add_argument("--json", action="store_true")
    run.add_argument("--checkpoint", metavar="PATH", default=None,
                     help="write periodic checkpoints to PATH while running")
    run.add_argument("--checkpoint-every", metavar="N", type=int,
                     default=10_000,
                     help="checkpoint every N references (with --checkpoint)")
    run.add_argument("--from-checkpoint", metavar="PATH", default=None,
                     help="restore PATH and continue instead of starting "
                          "fresh (config/trace must match the checkpoint)")
    _add_machine_arguments(run)
    _add_injection_argument(run)
    _add_sampling_arguments(run)

    compare = sub.add_parser("compare",
                             help="compare a design against a baseline")
    compare.add_argument("workload", choices=sorted(WORKLOADS))
    compare.add_argument("--baseline", choices=DESIGNS, default="vipt")
    compare.add_argument("--json", action="store_true")
    _add_machine_arguments(compare)

    sweep = sub.add_parser("sweep", help="compare across workloads")
    sweep.add_argument("--workloads", nargs="*",
                       choices=sorted(WORKLOADS), default=None)
    sweep.add_argument("--trace", metavar="FILE.rtrace", action="append",
                       default=None,
                       help="add an ingested trace as a sweep row "
                            "(repeatable; combines with --workloads, or "
                            "replaces the full suite when named alone)")
    sweep.add_argument("--baseline", choices=DESIGNS, default="vipt")
    sweep.add_argument("--journal", metavar="PATH", default=None,
                       help="journal each completed cell to PATH (JSONL) "
                            "so an interrupted sweep can resume")
    sweep.add_argument("--resume", action="store_true",
                       help="with --journal: reuse completed cells from an "
                            "existing journal instead of starting over")
    sweep.add_argument("--isolate", action="store_true",
                       help="run each cell in a watchdogged subprocess")
    sweep.add_argument("--timeout", metavar="SECONDS", type=float,
                       default=None,
                       help="wall-clock budget per cell (implies --isolate)")
    sweep.add_argument("--retries", metavar="N", type=int, default=1,
                       help="retries for transient (timeout/crash) failures")
    sweep.add_argument("--jobs", metavar="N", type=int, default=1,
                       help="run up to N cells in parallel worker "
                            "processes (journal bytes are identical for "
                            "every N)")
    _add_machine_arguments(sweep)
    _add_injection_argument(sweep)
    _add_sampling_arguments(sweep)
    _add_supervision_arguments(sweep)

    resume = sub.add_parser(
        "resume", help="continue an interrupted journaled sweep")
    resume.add_argument("journal", help="journal written by sweep --journal")
    resume.add_argument("--isolate", action="store_true",
                        help="run remaining cells in subprocesses")
    resume.add_argument("--timeout", metavar="SECONDS", type=float,
                        default=None,
                        help="wall-clock budget per cell (implies --isolate)")
    resume.add_argument("--retries", metavar="N", type=int, default=1,
                        help="retries for transient failures")
    resume.add_argument("--jobs", metavar="N", type=int, default=1,
                        help="run remaining cells across N worker "
                             "processes")
    _add_supervision_arguments(resume)

    doctor = sub.add_parser(
        "doctor",
        help="validate and repair journals/checkpoints/.rtrace traces")
    doctor.add_argument("path",
                        help="a sweep journal, checkpoint, or ingested "
                             ".rtrace trace file")
    doctor.add_argument("--repair", action="store_true",
                        help="quarantine corrupt records to "
                             "<path>.quarantine and rebuild the journal "
                             "canonically (corrupt checkpoints are moved "
                             "aside whole; torn .rtrace files are rebuilt "
                             "from their whole records)")
    doctor.add_argument("--json", action="store_true",
                        help="emit the diagnosis as JSON")

    ingest = sub.add_parser(
        "ingest",
        help="import a real trace (Valgrind lackey / ChampSim address "
             "stream) into a canonical checksummed .rtrace; streaming, "
             "quarantining, and resumable after a crash")
    ingest.add_argument("input", help="the raw trace file to import")
    ingest.add_argument("--output", metavar="FILE.rtrace", default=None,
                        help="destination (default: <input stem>.rtrace "
                             "next to the input)")
    ingest.add_argument("--format", choices=["auto", "lackey", "champsim"],
                        default="auto",
                        help="input format (auto sniffs the first lines)")
    ingest.add_argument("--name", default=None,
                        help="trace/workload label stored in the header "
                             "(default: the input file's stem)")
    ingest.add_argument("--strict", action="store_true",
                        help="fail (exit 2) on the first malformed record "
                             "instead of quarantining it")
    ingest.add_argument("--max-bad-records", metavar="N", type=int,
                        default=None,
                        help="quarantine at most N malformed records, then "
                             "fail with exit 2 (default: unbounded)")
    ingest.add_argument("--checkpoint-every", metavar="LINES", type=int,
                        default=100_000,
                        help="flush the partial output and offset journal "
                             "every N input lines (resume granularity)")
    ingest.add_argument("--force", action="store_true",
                        help="discard a previous partial/finished ingest "
                             "of this output and start over")
    ingest.add_argument("--json", action="store_true",
                        help="emit the ingest report as JSON")
    ingest.add_argument("--chaos", metavar="KIND@N", action="append",
                        default=None,
                        help="inject deterministic ingest faults "
                             "(trace-truncate-input@BYTES, trace-garbage@N, "
                             "trace-eio@N)")

    bench = sub.add_parser(
        "bench", help="measure simulator throughput (BENCH_perf.json)")
    bench.add_argument("--quick", action="store_true",
                       help="CI-budget run: two workloads, one repeat")
    bench.add_argument("--output", metavar="PATH",
                       default="BENCH_perf.json",
                       help="where to write the JSON payload")
    bench.add_argument("--baseline", metavar="PATH", default=None,
                       help="committed baseline payload to regression-"
                            "check against (normalized by calibration)")
    bench.add_argument("--max-regression", metavar="FRACTION", type=float,
                       default=0.20,
                       help="fail when normalized cells/sec drops more "
                            "than this fraction below the baseline")
    bench.add_argument("--jobs", metavar="N", type=int, default=1,
                       help="also time a parallel sweep with N workers")
    bench.add_argument("--serve", action="store_true",
                       help="also measure a serve request round-trip "
                            "(cache-hit path: protocol + admission + "
                            "journal replay, zero simulation)")
    bench.add_argument("--length", type=int, default=20_000,
                       help="trace length per cell")
    bench.add_argument("--repeats", type=int, default=3,
                       help="repeats (throughput uses the fastest)")
    bench.add_argument("--seed", type=int, default=42)
    _add_sampling_arguments(bench)
    bench.add_argument("--min-sampled-speedup", metavar="X", type=float,
                       default=5.0,
                       help="with --sampled: fail unless every cell's "
                            "sampled lane is at least X times faster "
                            "than its exact lane")
    bench.add_argument("--max-sampled-error", metavar="FRACTION",
                       type=float, default=0.05,
                       help="with --sampled: fail when any headline "
                            "metric's observed relative error exceeds "
                            "this (or its reported confidence bound)")

    serve = sub.add_parser(
        "serve", help="run the fault-tolerant simulation service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (0 picks a free one)")
    serve.add_argument("--port-file", metavar="PATH", default=None,
                       help="write the bound port to PATH once listening "
                            "(lets scripts find a --port 0 server)")
    serve.add_argument("--jobs", metavar="N", type=int, default=2,
                       help="worker slots shared by all requests (a "
                            "request's jobs param is clamped to this)")
    serve.add_argument("--max-pending", metavar="N", type=int, default=8,
                       help="bound on queued+running jobs; beyond it new "
                            "requests get a structured overload error")
    serve.add_argument("--quota-capacity", metavar="N", type=float,
                       default=16.0,
                       help="per-client token-bucket burst size")
    serve.add_argument("--quota-refill", metavar="PER_SEC", type=float,
                       default=4.0,
                       help="per-client token refill rate (requests/sec)")
    serve.add_argument("--spool", metavar="DIR", default="serve-spool",
                       help="directory for request journals, sidecars, "
                            "and the persistent result cache")
    serve.add_argument("--cache-capacity", metavar="N", type=int,
                       default=256,
                       help="in-memory result-cache entries (disk tier "
                            "is unbounded)")
    serve.add_argument("--timeout", metavar="SECONDS", type=float,
                       default=30.0,
                       help="default per-cell wall-clock budget for "
                            "requests that name none")
    serve.add_argument("--retries", metavar="N", type=int, default=1,
                       help="default transient-failure retries per cell")
    serve.add_argument("--deadline", metavar="SECONDS", type=float,
                       default=None,
                       help="default whole-request deadline (covers "
                            "queueing and execution; unbounded if unset)")
    _add_supervision_arguments(serve)

    campaign = sub.add_parser(
        "campaign",
        help="fault-tolerant distributed campaigns over a shared "
             "directory (sharded journals, lease-based cell claiming, "
             "crash reclaim, merge doctor)")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    campaign_init = campaign_sub.add_parser(
        "init", help="write a campaign spec (axes x workloads grid)")
    campaign_init.add_argument("dir", help="campaign directory")
    campaign_init.add_argument("--name", default=None,
                               help="campaign name (stamped in the "
                                    "digest); required without --preset")
    campaign_init.add_argument("--axis", metavar="NAME=V1,V2,...",
                               action="append", default=None,
                               help="one axis (repeatable, order matters); "
                                    "a workload axis is required; config "
                                    "axes: design, size_kb, freq, core, "
                                    "memhog, aging, way_prediction, "
                                    "tft_entries, partition_ways, "
                                    "num_cores, thp; required without "
                                    "--preset")
    campaign_init.add_argument("--preset", metavar="NAME", default=None,
                               help="use a named study preset instead of "
                                    "--axis arguments (see `repro campaign "
                                    "presets`)")
    campaign_init.add_argument("--length", type=int, default=30_000,
                               help="trace length per cell")
    campaign_init.add_argument("--seed", type=int, default=42,
                               help="RNG seed shared by every cell")

    campaign_sub.add_parser(
        "presets", help="list the named study presets for campaign init")

    campaign_run = campaign_sub.add_parser(
        "run", help="run N shard workers to completion and print status")
    campaign_run.add_argument("dir", help="campaign directory")
    campaign_run.add_argument("--shards", metavar="N", type=int, default=2,
                              help="shard worker processes to spawn")
    campaign_run.add_argument("--chaos-shard", metavar="K", type=int,
                              default=0,
                              help="which shard index arms --chaos "
                                   "(faults are per-process)")
    _campaign_exec_arguments(campaign_run)

    campaign_worker = campaign_sub.add_parser(
        "worker", help="run one shard worker in this process")
    campaign_worker.add_argument("dir", help="campaign directory")
    campaign_worker.add_argument("--shard-id", required=True,
                                 help="this worker's shard identity "
                                      "(stable across restarts)")
    _campaign_exec_arguments(campaign_worker)

    campaign_status_p = campaign_sub.add_parser(
        "status", help="settled/leased/pending cell counts")
    campaign_status_p.add_argument("dir", help="campaign directory")
    campaign_status_p.add_argument("--json", action="store_true")

    campaign_merge = campaign_sub.add_parser(
        "merge", help="salvage and merge shard journals into one "
                      "canonical journal")
    campaign_merge.add_argument("dir", help="campaign directory")
    campaign_merge.add_argument("--output", metavar="PATH", default=None,
                                help="canonical journal destination "
                                     "(default <dir>/merged.journal)")
    campaign_merge.add_argument("--json", action="store_true")

    campaign_report = campaign_sub.add_parser(
        "report", help="Pareto-front analysis (runtime vs energy) of the "
                       "merged campaign")
    campaign_report.add_argument("dir", help="campaign directory")
    campaign_report.add_argument("--merged", metavar="PATH", default=None,
                                 help="merged journal to analyse "
                                      "(default <dir>/merged.journal)")
    campaign_report.add_argument("--json", action="store_true")

    lint = sub.add_parser("lint",
                          help="run the simlint static analyser")
    lint.add_argument("paths", nargs="+",
                      help="files or directories to analyse (e.g. src/)")
    lint.add_argument("--json", action="store_true",
                      help="emit a machine-readable JSON report")
    lint.add_argument("--select", metavar="RULES", default=None,
                      help="comma-separated rule IDs to run")
    return parser


#: command name -> handler
_HANDLERS = {
    "workloads": cmd_workloads,
    "run": cmd_run,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "resume": cmd_resume,
    "ingest": cmd_ingest,
    "doctor": cmd_doctor,
    "table3": cmd_table3,
    "bench": cmd_bench,
    "lint": cmd_lint,
    "serve": cmd_serve,
    "campaign": cmd_campaign,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 success; 1 completed with failures (failed sweep
    cells, lint/doctor findings); 2 usage/configuration errors; 3
    sanitizer violation; 4 a sweep paused cleanly and is resumable;
    128+signum interrupted by a signal after flushing the journal
    (``serve`` drains first: in-flight requests journal and hand their
    clients resume tokens).
    """
    from repro.devtools.sanitize import SanitizerError
    from repro.resilience.errors import (
        ReproResilienceError,
        SweepInterrupted,
    )

    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited — not an error.
        return 0
    except SanitizerError as exc:
        print(f"sanitizer: {exc}", file=sys.stderr)
        return 3
    except SweepInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return exc.exit_code
    except ReproResilienceError as exc:
        # CheckpointError/JournalError -> 2; JournalWriteError/
        # DiskSpaceError -> 4 (paused, resumable); see errors.py.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A path argument that is a directory, unreadable, or missing is
        # a usage error, not a crash (BrokenPipeError is handled above).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
