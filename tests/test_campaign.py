"""Fault-tolerant distributed campaigns: spec grid, leases, shard
workers, crash reclaim, and the merge doctor.

The headline contract under test: a campaign run by N shard processes —
including one SIGKILLed mid-cell — merges into a canonical journal
byte-identical to the same campaign run serially by one process.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.analysis.report import pareto_front, pareto_ranks
from repro.campaign import (
    CampaignShardJournal,
    CampaignSpec,
    LeaseDir,
    campaign_pareto,
    campaign_status,
    load_spec,
    merge_campaign,
    parse_axis_argument,
    run_shard,
    shard_journal_path,
)
from repro.campaign.lease import Lease
from repro.campaign.shard import RECLAIM_EXHAUSTED, leases_dir
from repro.resilience import chaos
from repro.resilience.chaos import HostFaultPlan
from repro.resilience.errors import (
    EXIT_FAILED_CELLS,
    EXIT_OK,
    EXIT_PAUSED,
    CampaignError,
)
from repro.resilience.runner import FailedCell

LENGTH = 2000
SEED = 42


def small_spec(name="unit"):
    return CampaignSpec(
        name=name,
        axes=[("workload", ["gups", "mcf"]),
              ("design", ["vipt", "seesaw"])],
        trace_length=LENGTH, seed=SEED)


def cli_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=cli_env(), timeout=timeout)


# --------------------------------------------------------------------- spec

class TestCampaignSpec:
    def test_grid_enumerates_in_axis_order_last_axis_fastest(self):
        cells = small_spec().cells()
        assert [c.values["workload"] for c in cells] == \
            ["gups", "gups", "mcf", "mcf"]
        assert [c.values["design"] for c in cells] == \
            ["vipt", "seesaw", "vipt", "seesaw"]
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert cells[0].cell_id == "0000-gups-vipt"
        assert cells[3].cell_id == "0003-mcf-seesaw"

    def test_digest_depends_on_axis_order(self):
        a = CampaignSpec(name="x", axes=[("workload", ["gups"]),
                                         ("design", ["vipt", "seesaw"])],
                         trace_length=LENGTH, seed=SEED)
        b = CampaignSpec(name="x", axes=[("design", ["vipt", "seesaw"]),
                                         ("workload", ["gups"])],
                         trace_length=LENGTH, seed=SEED)
        assert a.digest() != b.digest()
        # ... and survives a serialization round-trip unchanged.
        assert a.digest() == CampaignSpec.from_dict(a.to_dict()).digest()

    def test_cell_config_maps_axes_onto_system_config(self):
        spec = CampaignSpec(
            name="x",
            axes=[("workload", ["gups"]), ("design", ["seesaw"]),
                  ("freq", [2.8]), ("memhog", [0.25])],
            trace_length=LENGTH, seed=SEED)
        cell = spec.cells()[0]
        config = spec.cell_config(cell)
        assert config.l1_design == "seesaw"
        assert config.frequency_ghz == 2.8
        assert config.memhog_fraction == 0.25
        assert config.seed == SEED

    def test_workload_axis_required_and_axes_validated(self):
        with pytest.raises(CampaignError):
            CampaignSpec(name="x", axes=[("design", ["vipt"])],
                         trace_length=LENGTH, seed=SEED)
        with pytest.raises(CampaignError):
            CampaignSpec(name="x", axes=[("workload", ["gups"]),
                                         ("bogus", [1])],
                         trace_length=LENGTH, seed=SEED)
        with pytest.raises(CampaignError):
            CampaignSpec(name="x", axes=[("workload", [])],
                         trace_length=LENGTH, seed=SEED)

    def test_parse_axis_argument_coerces_values(self):
        axis, values = parse_axis_argument("freq=1.33,2.8")
        assert axis == "freq" and values == [1.33, 2.8]
        assert parse_axis_argument("size_kb=32,64")[1] == [32, 64]
        assert parse_axis_argument("way_prediction=true,false")[1] == \
            [True, False]
        assert parse_axis_argument("design=vipt,seesaw")[1] == \
            ["vipt", "seesaw"]
        with pytest.raises(CampaignError):
            parse_axis_argument("no-equals-sign")

    def test_save_refuses_to_overwrite_a_different_campaign(self, tmp_path):
        small_spec("one").save(tmp_path)
        small_spec("one").save(tmp_path)  # same digest: idempotent
        with pytest.raises(CampaignError):
            small_spec("two").save(tmp_path)
        assert load_spec(tmp_path).name == "one"


# ------------------------------------------------------------------- leases

class TestLeases:
    def test_exactly_one_claimant_wins_a_free_cell(self, tmp_path):
        leases = LeaseDir(tmp_path, ttl_s=30.0)
        first = leases.claim("0000-c", "shard-a")
        assert first is not None and first.attempt == 1
        assert leases.claim("0000-c", "shard-b") is None

    def test_expiry_boundary_is_inclusive(self):
        lease = Lease(cell_id="c", owner="a", acquired_at=100.0,
                      expires_at=200.0, attempt=1)
        assert not lease.expired(now=199.999)
        assert lease.expired(now=200.0)  # the boundary instant counts
        assert lease.expired(now=200.001)

    def test_expired_lease_is_stolen_with_attempt_incremented(self,
                                                              tmp_path):
        leases = LeaseDir(tmp_path, ttl_s=0.05)
        dead = leases.claim("0000-c", "shard-dead")
        assert dead is not None
        time.sleep(0.08)
        stolen = leases.claim("0000-c", "shard-live")
        assert stolen is not None
        assert stolen.owner == "shard-live"
        assert stolen.attempt == 2

    def test_fresh_claim_during_a_steal_keeps_the_generation(
            self, tmp_path, monkeypatch):
        leases = LeaseDir(tmp_path, ttl_s=0.05)
        assert leases.claim("0000-c", "shard-dead") is not None
        time.sleep(0.08)
        load = LeaseDir._load
        fresh = []

        def racing_load(self, path):
            # The thief has renamed the lease away: another shard's fresh
            # claim lands in that window.
            if ".steal." in path.name:
                fresh.append(self.claim("0000-c", "shard-fresh"))
            return load(self, path)

        monkeypatch.setattr(LeaseDir, "_load", racing_load)
        stolen = leases.claim("0000-c", "shard-live")
        assert fresh[0] is not None and fresh[0].attempt == 1
        assert stolen is not None and stolen.attempt == 2
        current = leases.peek("0000-c")
        assert (current.owner, current.attempt) == ("shard-live", 2)

    def test_renew_and_release_respect_ownership_after_a_steal(self,
                                                               tmp_path):
        leases = LeaseDir(tmp_path, ttl_s=0.05)
        original = leases.claim("0000-c", "shard-a")
        time.sleep(0.08)
        thief = leases.claim("0000-c", "shard-b")
        assert thief is not None
        assert leases.renew(original) is False  # no longer ours
        leases.release(original)  # must not delete the thief's lease
        current = leases.peek("0000-c")
        assert current is not None and current.owner == "shard-b"
        assert leases.renew(thief) is True

    def test_torn_lease_file_is_claimable(self, tmp_path):
        leases = LeaseDir(tmp_path, ttl_s=30.0)
        (tmp_path / "0000-c.lease").write_text('{"cell": "0000-c", "ow')
        lease = leases.claim("0000-c", "shard-a")
        assert lease is not None and lease.owner == "shard-a"

    def test_reclaiming_own_lease_after_restart_is_idempotent(self,
                                                              tmp_path):
        leases = LeaseDir(tmp_path, ttl_s=30.0)
        first = leases.claim("0000-c", "shard-a")
        again = leases.claim("0000-c", "shard-a")  # restarted shard
        assert again is not None
        assert again.attempt == first.attempt == 1


class TestLeaseChaos:
    def test_stale_lock_injection_forces_the_steal_path(self, tmp_path):
        with chaos.armed(HostFaultPlan.parse(["stale-lock@0"])):
            leases = LeaseDir(tmp_path, ttl_s=30.0)
            lease = leases.claim("0000-c", "shard-a")
        assert lease is not None
        assert lease.owner == "shard-a"
        assert lease.attempt == 2  # phantom's generation + the steal

    def test_lease_steal_injection_backdates_and_pins_renewal(self,
                                                              tmp_path):
        with chaos.armed(HostFaultPlan.parse(["lease-steal@0"])):
            leases = LeaseDir(tmp_path, ttl_s=30.0)
            victim = leases.claim("0000-c", "shard-a")
        assert victim is not None and victim.no_renew
        assert leases.renew(victim) is False
        # Another shard sees the backdated lease as expired immediately.
        thief = leases.claim("0000-c", "shard-b")
        assert thief is not None and thief.attempt == 2


# -------------------------------------------------------- merge resolution

def _write_shard_journal(campaign_dir, spec, shard_id, records):
    journal = CampaignShardJournal(
        shard_journal_path(campaign_dir, shard_id))
    journal.write_campaign_header(spec, shard_id)
    for record in records:
        journal._append(record)
    return journal


def _done_record(cell, digest="d" * 64, shard="shard-0", attempt=1,
                 runtime=100, energy=50.0):
    return {"type": "done", "cell": cell.cell_id,
            "values": dict(cell.values), "config_digest": digest,
            "result": {"runtime_cycles": runtime,
                       "energy_total_nj": energy,
                       "workload": cell.workload},
            "shard": shard, "attempt": attempt}


def _failed_record(cell, shard="shard-0", attempt=1):
    failure = FailedCell(
        workload=cell.workload, design="vipt", error_class="CellCrash",
        message="boom", traceback="", config_digest="d" * 64,
        attempts=2, shard=shard)
    return {"type": "failed", "cell": cell.cell_id,
            "values": dict(cell.values), "attempt": attempt,
            **failure.as_dict()}


class TestMergeResolution:
    def setup_method(self):
        self.spec = small_spec("merge-unit")

    def _merge(self, tmp_path, per_shard):
        self.spec.save(tmp_path)
        for shard_id, records in per_shard.items():
            _write_shard_journal(tmp_path, self.spec, shard_id, records)
        return merge_campaign(tmp_path)

    def test_done_beats_failed_for_the_same_cell(self, tmp_path):
        cells = self.spec.cells()
        report = self._merge(tmp_path, {
            "shard-0": [_failed_record(cells[0], shard="shard-0",
                                       attempt=2)]
            + [_done_record(c, shard="shard-0") for c in cells[1:]],
            "shard-1": [_done_record(cells[0], shard="shard-1",
                                     attempt=1)],
        })
        assert report.duplicates == 1
        assert not report.failed_cells
        assert report.resolutions[0][0] == cells[0].cell_id
        assert report.resolutions[0][1] == "shard-1"

    def test_highest_attempt_wins_then_smallest_shard_id(self, tmp_path):
        cells = self.spec.cells()
        base = [_done_record(c, shard="shard-2") for c in cells[1:]]
        report = self._merge(tmp_path, {
            "shard-0": [_done_record(cells[0], shard="shard-0", attempt=1,
                                     runtime=111)],
            "shard-1": [_done_record(cells[0], shard="shard-1", attempt=2,
                                     runtime=222)],
            "shard-2": base + [_done_record(cells[0], shard="shard-2",
                                            attempt=2, runtime=333)],
        })
        # attempt 2 beats attempt 1; between the two attempt-2 records
        # the smaller shard id (shard-1) wins.
        cell_id, winner, losers = report.resolutions[0]
        assert (cell_id, winner) == (cells[0].cell_id, "shard-1")
        assert losers == ["shard-0", "shard-2"]
        from repro.campaign.merge import read_merged
        _header, records = read_merged(report.output_path)
        winning = next(r for r in records
                       if r["cell"] == cells[0].cell_id)
        assert winning["result"]["runtime_cycles"] == 222

    def test_done_records_lose_provenance_failed_records_keep_it(
            self, tmp_path):
        cells = self.spec.cells()
        report = self._merge(tmp_path, {
            "shard-0": [_done_record(c) for c in cells[:3]]
            + [_failed_record(cells[3], shard="shard-0", attempt=2)],
        })
        from repro.campaign.merge import read_merged
        _header, records = read_merged(report.output_path)
        for record in records:
            if record["type"] == "done":
                assert "shard" not in record and "attempt" not in record
            else:
                assert record["shard"] == "shard-0"
                assert record["attempt"] == 2
                assert record["attempts"] == 2
        assert report.exit_code == EXIT_FAILED_CELLS

    def test_missing_cells_mean_resumable_exit(self, tmp_path):
        cells = self.spec.cells()
        report = self._merge(tmp_path, {
            "shard-0": [_done_record(cells[0])]})
        assert set(report.missing_cells) == {c.cell_id for c in cells[1:]}
        assert report.exit_code == EXIT_PAUSED
        assert not report.complete

    def test_corrupt_lines_are_quarantined_not_fatal(self, tmp_path):
        cells = self.spec.cells()
        self.spec.save(tmp_path)
        journal = _write_shard_journal(
            tmp_path, self.spec, "shard-0",
            [_done_record(c) for c in cells])
        lines = journal.path.read_text().splitlines()
        lines[2] = lines[2][:40]  # tear a mid-file record
        journal.path.write_text("\n".join(lines) + "\n")
        report = merge_campaign(tmp_path)
        assert report.quarantined == 1
        assert report.salvaged == len(cells) - 1
        quarantine = json.loads(
            open(report.quarantine_paths[0]).readline())
        assert quarantine["line"] == 3 and "raw" in quarantine
        # The torn cell is missing, everything checksum-valid survived.
        assert report.missing_cells == [cells[1].cell_id]
        # Re-merging is idempotent (quarantine rewritten, not appended).
        again = merge_campaign(tmp_path)
        assert again.quarantined == 1
        assert sum(1 for _ in open(report.quarantine_paths[0])) == 1

    def test_foreign_campaign_journal_is_refused(self, tmp_path):
        self.spec.save(tmp_path)
        other = small_spec("other-campaign")
        _write_shard_journal(tmp_path, other, "shard-0",
                             [_done_record(other.cells()[0])])
        with pytest.raises(CampaignError):
            merge_campaign(tmp_path)

    def test_merge_without_shard_journals_is_a_usage_error(self, tmp_path):
        self.spec.save(tmp_path)
        with pytest.raises(CampaignError):
            merge_campaign(tmp_path)


# ------------------------------------------------------------ shard worker

class TestShardWorker:
    def test_single_shard_settles_every_cell(self, tmp_path):
        small_spec("solo").save(tmp_path)
        report = run_shard(tmp_path, "shard-0", ttl_s=5.0)
        assert report.complete
        assert report.executed == 4
        assert report.failed == 0
        status = campaign_status(tmp_path)
        assert status["complete"] and status["done"] == 4

    def test_restart_skips_settled_cells(self, tmp_path):
        small_spec("restart").save(tmp_path)
        run_shard(tmp_path, "shard-0", ttl_s=5.0)
        again = run_shard(tmp_path, "shard-0", ttl_s=5.0)
        assert again.complete and again.executed == 0

    def test_reclaim_budget_degrades_to_provenance_rich_failure(
            self, tmp_path):
        spec = CampaignSpec(name="budget",
                            axes=[("workload", ["gups"]),
                                  ("design", ["vipt"])],
                            trace_length=LENGTH, seed=SEED)
        spec.save(tmp_path)
        cell = spec.cells()[0]
        # Two claim generations already died holding the lease; with
        # max_retries=1 the budget (1 + 1 = 2) is spent, so the next
        # claimant must degrade instead of re-running.
        leases = LeaseDir(leases_dir(tmp_path), ttl_s=0.05)
        assert leases.plant_stale(cell.cell_id)
        stolen = leases._steal(leases._path(cell.cell_id), "also-dead")
        assert stolen is not None and stolen.attempt == 2
        time.sleep(0.08)
        report = run_shard(tmp_path, "shard-live", ttl_s=5.0,
                           max_retries=1)
        assert report.complete
        assert report.executed == 0  # degraded, never simulated
        assert report.failed == 1
        failure = report.failures[0]
        assert failure.error_class == RECLAIM_EXHAUSTED
        assert failure.shard == "shard-live"
        assert failure.attempts == 2
        merged = merge_campaign(tmp_path)
        assert merged.exit_code == EXIT_FAILED_CELLS
        assert merged.failed_cells[0]["shard"] == "shard-live"


# ----------------------------------------------- the distributed drill

class TestDistributedCampaign:
    """The acceptance drill: serial reference vs 3 shards with one
    SIGKILLed mid-campaign, merged byte-identically."""

    AXES = ["--axis", "workload=gups,mcf", "--axis", "design=vipt,seesaw"]

    def _init(self, directory):
        proc = run_cli(["campaign", "init", str(directory),
                        "--name", "drill", *self.AXES,
                        "--length", str(LENGTH), "--seed", str(SEED)])
        assert proc.returncode == 0, proc.stderr

    def test_three_shards_one_sigkilled_merge_byte_identical_to_serial(
            self, tmp_path):
        serial = tmp_path / "serial"
        sharded = tmp_path / "sharded"
        self._init(serial)
        self._init(sharded)

        reference = run_cli(["campaign", "run", str(serial),
                             "--shards", "1", "--ttl", "5"])
        assert reference.returncode == 0, reference.stderr
        merged_serial = run_cli(["campaign", "merge", str(serial)])
        assert merged_serial.returncode == 0, merged_serial.stderr

        drill = run_cli(["campaign", "run", str(sharded),
                         "--shards", "3", "--ttl", "2",
                         "--chaos", "shard-kill@0", "--chaos-shard", "0"])
        assert drill.returncode == 0, drill.stderr + drill.stdout
        assert "SIGKILL" in drill.stderr  # the chaos shard really died
        merged_sharded = run_cli(["campaign", "merge", str(sharded),
                                  "--json"])
        assert merged_sharded.returncode == 0, merged_sharded.stderr
        payload = json.loads(merged_sharded.stdout)
        assert payload["ok"] and payload["complete"]

        serial_bytes = (serial / "merged.journal").read_bytes()
        sharded_bytes = (sharded / "merged.journal").read_bytes()
        assert serial_bytes == sharded_bytes

        # The survivors' journals carry the reclaim: some cell ran with
        # a claim generation > 1.
        attempts = []
        for journal in (sharded / "shards").glob("*.journal"):
            _h, records, _c = CampaignShardJournal(journal).salvage()
            attempts.extend(int(r.get("attempt", 1))
                            for r in records.values())
        assert max(attempts, default=0) >= 2

    def test_chaos_shard_claims_before_the_others_start(self, tmp_path):
        # One cell and the chaos on the last shard index: started
        # alongside shard-0, shard-1 would rarely win the only claim and
        # its fault would never fire.  (One survivor: two would race to
        # steal the expired lease.)
        proc = run_cli(["campaign", "init", str(tmp_path), "--name", "one",
                        "--axis", "workload=gups", "--axis", "design=vipt",
                        "--length", str(LENGTH), "--seed", str(SEED)])
        assert proc.returncode == 0, proc.stderr
        drill = run_cli(["campaign", "run", str(tmp_path), "--shards", "2",
                         "--ttl", "1", "--chaos", "shard-kill@0",
                         "--chaos-shard", "1"])
        assert drill.returncode == 0, drill.stderr + drill.stdout
        assert "shard-1: died on SIGKILL" in drill.stderr
        attempts = [int(record.get("attempt", 1))
                    for journal in (tmp_path / "shards").glob("*.journal")
                    for record in
                    CampaignShardJournal(journal).salvage()[1].values()]
        assert attempts == [2]

    def test_killed_campaign_is_resumable_with_exit_contract(
            self, tmp_path):
        self._init(tmp_path)
        # Every shard dies on its first claimed cell: the run ends with
        # unsettled cells and must report the paused/resumable code 4.
        first = run_cli(["campaign", "run", str(tmp_path),
                         "--shards", "1", "--ttl", "0.5",
                         "--stall-timeout", "2",
                         "--chaos", "shard-kill@0", "--chaos-shard", "0"])
        assert first.returncode == EXIT_PAUSED, first.stdout + first.stderr
        status = run_cli(["campaign", "status", str(tmp_path), "--json"])
        assert status.returncode == EXIT_PAUSED
        assert not json.loads(status.stdout)["complete"]
        table = run_cli(["campaign", "status", str(tmp_path)])
        assert table.returncode == EXIT_PAUSED
        assert (f"resume with: python -m repro campaign run {tmp_path}"
                in table.stderr)
        # Re-running the campaign reclaims and finishes it.
        second = run_cli(["campaign", "run", str(tmp_path),
                          "--shards", "2", "--ttl", "2"])
        assert second.returncode == EXIT_OK, second.stdout + second.stderr
        merged = run_cli(["campaign", "merge", str(tmp_path)])
        assert merged.returncode == EXIT_OK, merged.stderr


# ------------------------------------------------------------------ pareto

class TestPareto:
    def test_front_minimizes_both_coordinates(self):
        points = [(1, 10), (2, 5), (3, 1), (2, 7), (4, 4)]
        assert pareto_front(points) == [0, 1, 2]

    def test_identical_points_share_the_front(self):
        assert pareto_front([(1, 1), (1, 1), (2, 2)]) == [0, 1]

    def test_ranks_peel_fronts_in_order(self):
        points = [(1, 10), (2, 5), (3, 1), (2, 7), (4, 4)]
        assert pareto_ranks(points) == [1, 1, 1, 2, 2]

    def test_campaign_report_ranks_per_workload(self, tmp_path):
        spec = small_spec("pareto")
        spec.save(tmp_path)
        run_shard(tmp_path, "shard-0", ttl_s=5.0)
        merge_campaign(tmp_path)
        analysis = campaign_pareto(tmp_path / "merged.journal")
        assert analysis["done"] == 4
        by_cell = {row["cell"]: row for row in analysis["rows"]}
        assert len(by_cell) == 4
        # Within each workload there are two designs: at least one per
        # workload must sit on the front (rank 1).
        for workload in ("gups", "mcf"):
            ranks = [row["pareto_rank"] for row in analysis["rows"]
                     if row["values"]["workload"] == workload]
            assert min(ranks) == 1


# ------------------------------------------------- provenance satellites

class TestFailureProvenance:
    def test_failed_cell_shard_rides_journal_and_doctor_note(
            self, tmp_path):
        from repro.resilience.doctor import diagnose_journal
        from repro.resilience.runner import SweepJournal

        journal = SweepJournal(tmp_path / "sweep.journal")
        journal.write_header({"workloads": ["gups"], "designs": ["vipt"]})
        journal.append_failed(FailedCell(
            workload="gups", design="vipt", error_class="CellCrash",
            message="boom", traceback="", config_digest="d" * 64,
            attempts=3, shard="shard-7"))
        diagnosis = diagnose_journal(journal.path)
        note = next(n for n in diagnosis.notes if "degraded" in n)
        assert "shard shard-7" in note
        assert "3 attempt(s)" in note

    def test_sweep_failed_cells_keep_empty_shard_for_byte_identity(self):
        # Plain sweeps must not stamp host:pid into journal bytes.
        failure = FailedCell(
            workload="gups", design="vipt", error_class="CellCrash",
            message="boom", traceback="", config_digest="d" * 64,
            attempts=1)
        assert failure.as_dict()["shard"] == ""


# --------------------------------------------------- preset satellites

class TestPresets:
    def test_preset_spec_builds_full_grid(self):
        from repro.campaign import PRESETS, preset_spec, preset_summaries
        spec = preset_spec("design-shootout")
        assert spec.name == "design-shootout"
        assert len(spec.cells()) == 16
        named = preset_spec("design-shootout", name="mine")
        assert named.name == "mine"
        # summaries list every preset with its true cell count
        rows = {name: cells for name, _desc, cells in preset_summaries()}
        assert set(rows) == set(PRESETS)
        for preset in PRESETS:
            assert rows[preset] == len(preset_spec(preset).cells())

    def test_unknown_preset_is_typed_and_lists_names(self):
        from repro.campaign import preset_spec
        with pytest.raises(CampaignError) as info:
            preset_spec("nope")
        assert "design-shootout" in str(info.value)

    def test_cli_init_with_preset(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["campaign", "init", str(tmp_path / "c"),
                     "--preset", "superpage-sensitivity"]) == 0
        spec = load_spec(tmp_path / "c")
        assert spec.name == "superpage-sensitivity"
        assert len(spec.cells()) == 18
        # idempotent re-init of the same preset
        assert main(["campaign", "init", str(tmp_path / "c"),
                     "--preset", "superpage-sensitivity"]) == 0
        capsys.readouterr()

    def test_cli_init_rejects_preset_plus_axis_and_bare_init(
            self, tmp_path, capsys):
        from repro.cli import main
        assert main(["campaign", "init", str(tmp_path / "c"),
                     "--preset", "design-shootout",
                     "--axis", "design=vipt"]) == 2
        assert main(["campaign", "init", str(tmp_path / "c2")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("axis", ("core=bogus", "thp=madvise"))
    def test_cli_init_rejects_a_cell_without_a_machine(self, tmp_path,
                                                       capsys, axis):
        """A value no SystemConfig takes fails init with exit 2 and the
        error naming the cell, and no spec is written for shards to fail
        on later."""
        from repro.cli import main
        campaign_dir = tmp_path / "c"
        assert main(["campaign", "init", str(campaign_dir), "--name", "t",
                     "--axis", "workload=gups,mcf", "--axis", axis]) == 2
        assert "cell 0000-gups-" in capsys.readouterr().err
        assert not (campaign_dir / "spec.json").exists()

    def test_cli_presets_listing(self, capsys):
        from repro.cli import main
        assert main(["campaign", "presets"]) == 0
        out = capsys.readouterr().out
        for name in ("design-shootout", "superpage-sensitivity",
                     "capacity-frequency"):
            assert name in out


# ------------------------------------------------------ area satellites

class TestAreaDimension:
    def test_area_model_monotone_in_size_and_ways(self):
        from repro.energy.sram import SRAMModel, config_area_mm2
        from repro.sim.config import SystemConfig
        model = SRAMModel()
        assert model.array_area_mm2(64 * 1024, 8) \
            > model.array_area_mm2(32 * 1024, 8)
        assert model.array_area_mm2(32 * 1024, 16) \
            > model.array_area_mm2(32 * 1024, 8)
        # seesaw carries the TFT/decoder adders over a same-shape vipt
        vipt = SystemConfig(l1_design="vipt")
        seesaw = SystemConfig(l1_design="seesaw")
        assert config_area_mm2(seesaw) > config_area_mm2(vipt)
        # more cores, more L1 slices
        assert config_area_mm2(SystemConfig(num_cores=8)) \
            > config_area_mm2(SystemConfig(num_cores=4))

    def test_pareto_report_carries_area_and_3d_ranks(self, tmp_path):
        spec = CampaignSpec(
            name="area", axes=[("workload", ["gups"]),
                               ("design", ["vipt", "seesaw"])],
            trace_length=LENGTH, seed=SEED)
        spec.save(tmp_path)
        run_shard(tmp_path, "shard-0", ttl_s=5.0)
        merge_campaign(tmp_path)
        analysis = campaign_pareto(tmp_path / "merged.journal")
        assert analysis["done"] == 2
        for row in analysis["rows"]:
            assert row["area_mm2"] is not None
            assert row["area_mm2"] > 0
        # vipt has no TFT: it must be strictly smaller, so even if it
        # loses runtime and energy it cannot be dominated in 3-D.
        by_design = {row["values"]["design"]: row
                     for row in analysis["rows"]}
        assert by_design["vipt"]["area_mm2"] \
            < by_design["seesaw"]["area_mm2"]
        assert by_design["vipt"]["pareto_rank"] == 1
        from repro.campaign.analysis import format_pareto
        rendered = format_pareto(analysis)
        assert "area(mm2)" in rendered
        assert "runtime x energy x area" in rendered

    def test_merged_header_records_base_overrides(self, tmp_path):
        from repro.campaign.merge import read_merged
        spec = CampaignSpec(
            name="based", axes=[("workload", ["gups"]),
                                ("design", ["vipt"])],
            trace_length=LENGTH, seed=SEED,
            base={"l1_size_kb": 64})
        spec.save(tmp_path)
        run_shard(tmp_path, "shard-0", ttl_s=5.0)
        merge_campaign(tmp_path)
        header, _records = read_merged(tmp_path / "merged.journal")
        assert header["base"] == {"l1_size_kb": 64}
        # and the area reconstruction uses it: 64KB beats 32KB default
        analysis = campaign_pareto(tmp_path / "merged.journal")
        from repro.energy.sram import config_area_mm2
        from repro.sim.config import SystemConfig
        small = config_area_mm2(SystemConfig(l1_design="vipt"))
        assert analysis["rows"][0]["area_mm2"] > small


# ------------------------------------- torn appends and the journal doctor

class TestDurableJournals:
    @staticmethod
    def _campaign(directory, spec):
        spec.save(directory)
        assert run_shard(directory, "shard-0", ttl_s=5.0).complete
        return shard_journal_path(directory, "shard-0")

    def test_resume_after_torn_append_merges_identically(self, tmp_path):
        """A shard killed mid-append leaves a torn fragment; the resumed
        shard cuts it off, so the cell it re-runs is journaled whole and
        the merge matches the uncut campaign byte for byte."""
        import shutil

        reference = tmp_path / "reference"
        self._campaign(reference, small_spec("torn"))
        cut = tmp_path / "cut"
        shutil.copytree(reference, cut)
        assert merge_campaign(reference).ok
        journal = shard_journal_path(cut, "shard-0")
        header, first, second = journal.read_bytes().splitlines(True)[:3]
        journal.write_bytes(header + first + second[:50])
        kept = json.loads(first)["cell"]
        for marker in (cut / "settled").glob("*.json"):
            if marker.stem != kept:
                marker.unlink()
        assert run_shard(cut, "shard-0", ttl_s=5.0).executed == 3
        merged = merge_campaign(cut)
        assert merged.ok and merged.quarantined == 0
        assert (cut / "merged.journal").read_bytes() \
            == (reference / "merged.journal").read_bytes()

    def test_doctor_accepts_clean_campaign_journals(self, tmp_path, capsys):
        from repro.cli import main

        spec = CampaignSpec(name="doctor", axes=[("workload", ["gups"]),
                                                 ("design", ["vipt",
                                                             "seesaw"])],
                            trace_length=LENGTH, seed=SEED)
        shard = self._campaign(tmp_path, spec)
        merge_campaign(tmp_path)
        before = shard.read_bytes()
        assert main(["doctor", str(shard)]) == 0
        assert main(["doctor", "--repair", str(shard)]) == 0
        assert main(["doctor", str(tmp_path / "merged.journal")]) == 0
        assert shard.read_bytes() == before
        capsys.readouterr()

    def test_repaired_shard_journal_merges_like_unrepaired(self, tmp_path):
        import shutil

        from repro.resilience.doctor import diagnose, repair

        spec = CampaignSpec(name="doctor", axes=[("workload", ["gups"]),
                                                 ("design", ["vipt",
                                                             "seesaw"])],
                            trace_length=LENGTH, seed=SEED)
        repaired = tmp_path / "repaired"
        shard = self._campaign(repaired, spec)
        lines = shard.read_text().splitlines(True)
        lines[1] = lines[1][:40] + "XGARBAGEX" + lines[1][49:]
        shard.write_text("".join(lines))
        unrepaired = tmp_path / "unrepaired"
        shutil.copytree(repaired, unrepaired)

        diagnosis = diagnose(shard)
        assert not diagnosis.healthy
        assert any("line(s) 2" in problem for problem in diagnosis.problems)
        fixed = repair(shard)
        assert fixed.repaired and fixed.quarantined == 1
        entry = json.loads(open(fixed.quarantine_path).read())
        assert entry == {"line": 2, "raw": lines[1].rstrip("\n")}
        assert diagnose(shard).healthy

        merge_campaign(repaired)
        merge_campaign(unrepaired)
        assert (repaired / "merged.journal").read_bytes() \
            == (unrepaired / "merged.journal").read_bytes()

    def test_doctor_names_failed_cells_by_cell_id(self, tmp_path):
        from repro.resilience.doctor import diagnose

        spec = small_spec("failed")
        cell = spec.cells()[1]
        journal = _write_shard_journal(
            tmp_path, spec, "shard-3",
            [_done_record(spec.cells()[0], shard="shard-3"),
             _failed_record(cell, shard="shard-3")])
        diagnosis = diagnose(journal.path)
        assert diagnosis.healthy
        assert diagnosis.failed_cells == [cell.cell_id]
        assert diagnosis.rerun_cells == []
        assert any(f"{cell.cell_id} [shard shard-3, 2 attempt(s)]" in note
                   for note in diagnosis.notes)
