"""``repro campaign merge`` — N shard journals in, one canonical out.

The merge extends the ``repro doctor`` machinery (the tolerant
:meth:`SweepJournal.scan` salvage primitive and its quarantine format)
across a whole campaign directory:

* every checksum-valid record in every ``shards/*.journal`` is salvaged
  — a SIGKILLed shard's torn trailing line, or mid-file bit rot, is
  quarantined to ``<journal>.quarantine`` (``{"line": N, "raw": ...}``
  JSONL, the doctor's format) without poisoning the merge;
* shard journals are identity-checked: a header whose ``spec_digest``
  differs from the campaign's is another campaign's journal and is
  refused; a journal whose header itself was corrupted is salvaged
  record-by-record, keeping only cells the spec knows;
* duplicate records for one cell — the signature of a lease steal,
  where both the presumed-dead claimant and its reclaimer journaled an
  outcome — resolve deterministically: ``done`` beats ``failed``, then
  the highest claim generation (``attempt``) wins, then the smallest
  shard id breaks the tie;
* the canonical journal is published atomically in the canonical
  journal layout (both from :mod:`repro.resilience.fsio`) with cells in
  spec enumeration order and shard/attempt provenance *stripped from
  done records* — so the merged bytes are identical whether the
  campaign ran as one serial process or as N shards with crashes and
  reclaims in between.  Failed records keep their provenance: who died
  where is the post-mortem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.campaign.journal import (
    MERGED_HEADER_KIND,
    SHARD_HEADER_KIND,
    CampaignShardJournal,
)
from repro.campaign.spec import load_spec
from repro.resilience.errors import (
    EXIT_FAILED_CELLS,
    EXIT_OK,
    EXIT_PAUSED,
    CampaignError,
)
from repro.resilience.fsio import (jsonl, publish, record_checksum,
                                   render_journal)

MERGED_FILENAME = "merged.journal"

#: keys stripped from ``done`` records in the canonical journal, so the
#: merged bytes are independent of which shard executed each cell.
_DONE_PROVENANCE_KEYS = ("shard", "attempt")


@dataclass
class MergeReport:
    """What the merge doctor found and wrote."""

    campaign: str
    spec_digest: str
    output_path: str
    shards: List[str] = field(default_factory=list)
    salvaged: int = 0
    quarantined: int = 0
    quarantine_paths: List[str] = field(default_factory=list)
    #: cells with more than one journaled record (lease-steal signature).
    duplicates: int = 0
    #: (cell_id, winning shard, losing shards) per resolved duplicate.
    resolutions: List[Tuple[str, str, List[str]]] = field(
        default_factory=list)
    missing_cells: List[str] = field(default_factory=list)
    failed_cells: List[Dict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.missing_cells

    @property
    def ok(self) -> bool:
        return self.complete and not self.failed_cells

    @property
    def exit_code(self) -> int:
        """The documented contract: 4 unsettled cells remain (resumable),
        1 complete-with-failures, 0 clean."""
        if self.missing_cells:
            return EXIT_PAUSED
        if self.failed_cells:
            return EXIT_FAILED_CELLS
        return EXIT_OK

    def as_dict(self) -> Dict:
        return {
            "campaign": self.campaign,
            "spec_digest": self.spec_digest,
            "output_path": self.output_path,
            "shards": list(self.shards),
            "salvaged": self.salvaged,
            "quarantined": self.quarantined,
            "quarantine_paths": list(self.quarantine_paths),
            "duplicates": self.duplicates,
            "resolutions": [[cell, winner, list(losers)]
                            for cell, winner, losers in self.resolutions],
            "missing_cells": list(self.missing_cells),
            "failed_cells": list(self.failed_cells),
            "notes": list(self.notes),
            "complete": self.complete,
            "ok": self.ok,
            "exit_code": self.exit_code,
        }


def _record_priority(record: Dict, shard: str) -> Tuple:
    """Sort key under which the *last* element wins a duplicate cell:
    done beats failed, then highest attempt, then smallest shard id
    (inverted so it sorts last)."""
    return (1 if record.get("type") == "done" else 0,
            int(record.get("attempt", 0)),
            _ShardDescending(shard))


class _ShardDescending(str):
    """A string ordered in reverse, so `max()` prefers the smallest."""

    def __lt__(self, other) -> bool:  # pragma: no cover - trivial
        return str.__gt__(self, other)

    def __gt__(self, other) -> bool:
        return str.__lt__(self, other)


def _canonical_record(record: Dict) -> Dict:
    """Strip the old checksum (and, for done records, shard/attempt
    provenance) and re-checksum for the canonical journal."""
    body = {key: value for key, value in record.items()
            if key != "checksum"}
    if body.get("type") == "done":
        for key in _DONE_PROVENANCE_KEYS:
            body.pop(key, None)
    body["checksum"] = record_checksum(body)
    return body


def merge_campaign(campaign_dir, output_path=None) -> MergeReport:
    """Merge every shard journal into one canonical campaign journal."""
    campaign_dir = Path(campaign_dir)
    spec = load_spec(campaign_dir)
    digest = spec.digest()
    cells = spec.cells()
    known_cells = {cell.cell_id for cell in cells}
    shards_root = campaign_dir / "shards"
    journal_paths = (sorted(shards_root.glob("*.journal"))
                     if shards_root.exists() else [])
    if not journal_paths:
        raise CampaignError(
            f"{campaign_dir}: no shard journals under {shards_root}; "
            f"run `repro campaign run` (or workers) before merging")
    output = (Path(output_path) if output_path is not None
              else campaign_dir / MERGED_FILENAME)
    report = MergeReport(campaign=spec.name, spec_digest=digest,
                         output_path=str(output))

    # Salvage phase: every checksum-valid record from every shard.
    candidates: Dict[str, List[Tuple[Dict, str]]] = {}
    for path in journal_paths:
        shard_id = path.stem
        header, records, corrupt = CampaignShardJournal(path).salvage()
        if header is not None:
            if header.get("kind") != SHARD_HEADER_KIND:
                raise CampaignError(
                    f"{path}: not a campaign shard journal (header kind "
                    f"{header.get('kind')!r})")
            if header.get("spec_digest") != digest:
                raise CampaignError(
                    f"{path}: shard journal belongs to a different "
                    f"campaign (spec digest "
                    f"{str(header.get('spec_digest'))[:12]}... != "
                    f"{digest[:12]}...); remove it or merge its own "
                    f"campaign directory")
            shard_id = header.get("shard", shard_id)
        else:
            report.notes.append(
                f"{path.name}: no checksum-valid header survived; "
                f"salvaging records cell-by-cell against the spec")
        report.shards.append(shard_id)
        if corrupt:
            # The doctor's sidecar format, rewritten from scratch so that
            # re-merging never duplicates lines.
            quarantine = path.with_name(path.name + ".quarantine")
            publish(quarantine, jsonl({"line": number, "raw": line}
                                      for number, line in corrupt))
            report.quarantined += len(corrupt)
            report.quarantine_paths.append(str(quarantine))
        for cell_id, record in records.items():
            if cell_id not in known_cells:
                report.notes.append(
                    f"{path.name}: dropped record for unknown cell "
                    f"{cell_id} (not in the spec's grid)")
                continue
            report.salvaged += 1
            candidates.setdefault(cell_id, []).append(
                (record, str(record.get("shard", shard_id))))

    # Resolution phase: one winner per cell, deterministically.
    resolved: Dict[str, Dict] = {}
    for cell_id, entries in candidates.items():
        if len(entries) > 1:
            report.duplicates += 1
        winner = max(entries,
                     key=lambda entry: _record_priority(entry[0], entry[1]))
        resolved[cell_id] = winner[0]
        if len(entries) > 1:
            losers = sorted(shard for record, shard in entries
                            if record is not winner[0])
            report.resolutions.append((cell_id, winner[1], losers))

    # Canonical rewrite: spec order, provenance stripped from done cells.
    header = {
        "type": "header",
        "kind": MERGED_HEADER_KIND,
        "campaign": spec.name,
        "spec_digest": digest,
        "axes": [[axis, list(values)] for axis, values in spec.axes],
        "trace_length": spec.trace_length,
        "seed": spec.seed,
        "cells": len(cells),
        "base": dict(spec.base),
    }
    header["checksum"] = record_checksum(header)
    records: Dict[str, Dict] = {}
    for cell in cells:
        record = resolved.get(cell.cell_id)
        if record is None:
            report.missing_cells.append(cell.cell_id)
            continue
        if record.get("type") == "failed":
            report.failed_cells.append({
                "cell": cell.cell_id,
                "error_class": record.get("error_class", ""),
                "message": record.get("message", ""),
                "shard": record.get("shard", ""),
                "attempts": record.get("attempts", 0),
                "attempt": record.get("attempt", 0),
            })
        records[cell.cell_id] = _canonical_record(record)
    publish(output, render_journal(
        header, records, [cell.cell_id for cell in cells]))
    return report


def read_merged(path) -> Tuple[Dict, List[Dict]]:
    """Read a canonical merged journal: ``(header, records in order)``.

    Strict (unlike the salvage path): the merge just wrote this file
    atomically, so any corruption here is real trouble.
    """
    path = Path(path)
    if not path.exists():
        raise CampaignError(
            f"no merged journal at {path}; run `repro campaign merge` "
            f"first")
    header, records, corrupt = CampaignShardJournal(path).salvage()
    if corrupt:
        raise CampaignError(
            f"{path}: corrupt record at line {corrupt[0][0]} in a merged "
            f"journal — re-run `repro campaign merge` to rebuild it from "
            f"the shard journals")
    if header is None or header.get("kind") != MERGED_HEADER_KIND:
        raise CampaignError(
            f"{path}: not a merged campaign journal (missing or foreign "
            f"header)")
    return header, list(records.values())


__all__ = [
    "MERGED_FILENAME",
    "MergeReport",
    "merge_campaign",
    "read_merged",
]
