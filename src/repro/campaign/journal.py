"""Per-shard campaign journals, in the sweep journal's record format.

Each shard worker appends to its own ``shards/<shard>.journal`` — the
same checksummed JSONL format :class:`~repro.resilience.runner.SweepJournal`
uses (per-record SHA-256 over canonical JSON, durable appends that never
extend a torn line, torn trailing line tolerated).  The record shapes
differ only in keying: campaign records are keyed by ``cell`` (the
spec's positional cell id) rather than a (workload, design) pair, and
``done``/``failed`` records carry ``shard`` and ``attempt``
(claim-generation) provenance that the merge strips from successful
cells to keep the canonical journal byte-identical across shard
topologies.  ``repro doctor`` recognises shard and merged journals by
their header ``kind`` and validates and repairs them keyed by ``cell``;
merging a repaired shard journal gives the same merged bytes as merging
it unrepaired.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.campaign.spec import CampaignSpec
from repro.resilience.runner import FailedCell, SweepJournal

#: header ``kind`` stamped on every shard journal.
SHARD_HEADER_KIND = "campaign-shard"
#: header ``kind`` of the merged canonical journal.
MERGED_HEADER_KIND = "campaign"


def shard_journal_path(campaign_dir, shard_id: str) -> Path:
    return Path(campaign_dir) / "shards" / f"{shard_id}.journal"


class CampaignShardJournal(SweepJournal):
    """One shard's append-only record of the cells it executed."""

    def write_campaign_header(self, spec: CampaignSpec,
                              shard_id: str) -> None:
        """Start a fresh shard journal bound to one campaign identity."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.write_header({
            "kind": SHARD_HEADER_KIND,
            "campaign": spec.name,
            "spec_digest": spec.digest(),
            "shard": shard_id,
            "trace_length": spec.trace_length,
            "seed": spec.seed,
        })

    def append_cell_done(self, cell_id: str, values: Dict, digest: str,
                         result_payload: Dict, shard: str,
                         attempt: int) -> None:
        self._append({"type": "done", "cell": cell_id, "values": values,
                      "config_digest": digest, "result": result_payload,
                      "shard": shard, "attempt": attempt})

    def append_cell_failed(self, cell_id: str, values: Dict,
                           failure: FailedCell, attempt: int) -> None:
        self._append({"type": "failed", "cell": cell_id, "values": values,
                      "attempt": attempt, **failure.as_dict()})

    def salvage(self) -> Tuple[Optional[Dict], Dict[str, Dict],
                               List[Tuple[int, str]]]:
        """Tolerant read: ``(header, {cell_id: last record}, corrupt)``.

        Built on :meth:`SweepJournal.scan`, so it never raises on
        content: corrupt lines — torn appends from a SIGKILLed shard,
        bit rot — come back as ``(line_number, raw_line)`` pairs for the
        merge doctor to quarantine, and every checksum-valid record is
        salvaged.  Later records for a cell supersede earlier ones.
        """
        header: Optional[Dict] = None
        records: Dict[str, Dict] = {}
        corrupt: List[Tuple[int, str]] = []
        for number, line, record in self.scan():
            if record is None:
                corrupt.append((number, line))
                continue
            if record.get("type") == "header":
                if header is None:
                    header = record
            elif record.get("type") in ("done", "failed") \
                    and "cell" in record:
                records[record["cell"]] = record
        return header, records, corrupt


__all__ = [
    "MERGED_HEADER_KIND",
    "SHARD_HEADER_KIND",
    "CampaignShardJournal",
    "shard_journal_path",
]
