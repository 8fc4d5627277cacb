"""``repro doctor`` — one diagnose flow and one repair flow for every
durable file a crash can damage.

:func:`diagnose` classifies the file (:func:`detect_kind`) and runs that
kind's validator.  A validator never raises on content: it fills in a
:class:`Diagnosis` and returns the repair plan.  :func:`repair` runs the
same validator and carries the plan out the same way for every kind: it
appends the damaged pieces to ``<path>.quarantine`` (JSONL), then either
publishes the rebuilt file atomically or, when nothing can be rebuilt,
moves the damaged file to ``<path>.quarantine``.

The validators:

* **Journals** (checksummed JSONL, read with :meth:`SweepJournal.scan`).
  Sweep journals key records by ``(workload, design)``, and their
  diagnosis lists the cells a resume will re-run.  Campaign shard and
  merged journals (header ``kind`` ``campaign-shard`` or ``campaign``)
  key records by ``cell``.  A torn trailing line is benign, because
  ``read()`` tolerates it.  Repair quarantines every corrupt line as
  ``{"line": N, "raw": ...}`` and rebuilds the canonical layout from
  every checksum-valid record.  A journal with no valid header cannot
  be rebuilt: nothing identifies what it belongs to.
* **Sealed files** (checkpoints and ``.rtrace`` traces, checked with
  :func:`repro.resilience.fsio.inspect_sealed`).  A truncated ``.rtrace``
  is rebuilt from its whole fixed-size records, and its torn tail is
  quarantined as ``{"offset": N, "raw_hex": ...}``.  Any other damaged
  sealed file is quarantined whole: a checkpoint's payload hash is
  all-or-nothing, and a checksum mismatch at full length cannot say
  which records are poisoned.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.resilience.checkpoint import CHECKPOINT
from repro.resilience.errors import JournalError
from repro.resilience.fsio import (
    append_durable,
    fsync_parent_dir,
    inspect_sealed,
    jsonl,
    publish,
    render_journal,
    replace_durable,
    seal,
)
from repro.resilience.runner import SweepJournal

__all__ = [
    "Diagnosis",
    "detect_kind",
    "diagnose",
    "diagnose_journal",
    "repair",
    "repair_journal",
]

#: Header ``kind`` of campaign shard and merged journals (see
#: :mod:`repro.campaign.journal`, which this module must not import:
#: ``import repro.cli`` loads the doctor, but not the campaign package).
_CAMPAIGN_KINDS = ("campaign-shard", "campaign")


@dataclass
class Diagnosis:
    """What the doctor found (and, after ``--repair``, what it did)."""

    path: str
    kind: str                       # "journal" | "checkpoint" | "rtrace"
    healthy: bool = True
    repairable: bool = True
    #: conditions that block a plain ``read()`` / ``load_checkpoint()``.
    problems: List[str] = field(default_factory=list)
    #: benign observations (torn trailing line, failed cells on record).
    notes: List[str] = field(default_factory=list)
    #: set by repair: records rebuilt into the repaired file.
    salvaged: int = 0
    #: set by repair: pieces moved to ``<path>.quarantine``.
    quarantined: int = 0
    #: sweep cells a resume will re-run (matrix cells with no valid
    #: ``done``), as ``(workload, design)``.
    rerun_cells: List[Tuple[str, str]] = field(default_factory=list)
    #: cells whose last valid record is a degradation (``failed``):
    #: ``(workload, design)`` in sweep journals, cell ids in campaign ones.
    failed_cells: List = field(default_factory=list)
    repaired: bool = False
    quarantine_path: Optional[str] = None

    def as_dict(self) -> Dict:
        return asdict(self)


class _Plan(NamedTuple):
    """What repair does to one damaged file."""

    #: JSON objects appended to ``<path>.quarantine``, one per line.
    quarantine: Sequence[Dict] = ()
    #: the rebuilt file; None quarantines the damaged file whole.
    content: Optional[bytes] = None
    #: records the rebuilt file holds.
    salvaged: int = 0


def detect_kind(path) -> str:
    """Classify ``path`` as "checkpoint", "rtrace", or "journal" by its
    first bytes."""
    path = Path(path)
    if not path.exists():
        raise JournalError(f"no file at {path} to diagnose")
    with open(path, "rb") as handle:
        head = handle.read(32)
    if head.startswith(b"repro-checkpoint"):
        return "checkpoint"
    if head.startswith(b"repro-rtrace") or path.suffix == ".rtrace":
        # A damaged magic line still claims rtrace by its extension, so
        # the sealed-file check reports the bad magic instead of the
        # journal scanner choking on binary.
        return "rtrace"
    return "journal"


# ------------------------------------------------------------------ journals

def _cell_key(record: Dict, campaign: bool):
    """The cell a record belongs to, or None when it names none."""
    if campaign:
        return record.get("cell")
    if "workload" in record and "design" in record:
        return (record["workload"], record["design"])
    return None


def _cell_label(cell, record: Dict) -> str:
    """A failed cell with its shard/attempt provenance (where the record
    carries it), so a post-mortem can attribute the failure."""
    text = cell if isinstance(cell, str) else f"({cell[0]}, {cell[1]})"
    details = []
    if record.get("shard"):
        details.append(f"shard {record['shard']}")
    if record.get("attempts"):
        details.append(f"{record['attempts']} attempt(s)")
    return f"{text} [{', '.join(details)}]" if details else text


def _check_journal(path: Path, diagnosis: Diagnosis) -> Optional[_Plan]:
    entries = list(SweepJournal(path).scan())
    corrupt = [(number, line) for number, line, record in entries
               if record is None]
    valid = [record for _number, _line, record in entries
             if record is not None]
    if len(corrupt) == 1 and corrupt[0][0] == entries[-1][0]:
        diagnosis.notes.append(
            f"line {corrupt[0][0]} is a torn trailing append (crash "
            f"mid-write); read() tolerates it, resume re-runs the cell")
    elif corrupt:
        diagnosis.healthy = False
        lines = ", ".join(str(number) for number, _ in corrupt)
        diagnosis.problems.append(
            f"{len(corrupt)} corrupt record(s) at line(s) {lines} "
            f"(checksum mismatch or invalid JSON)")
    header = next((record for record in valid
                   if record.get("type") == "header"), None)
    if header is None:
        diagnosis.healthy = diagnosis.repairable = False
        diagnosis.problems.append(
            "no checksum-valid header record — the journal cannot "
            "identify its sweep or campaign and cannot be rebuilt; re-run "
            "with a fresh journal")
        return None
    if valid[0] is not header:
        diagnosis.healthy = False
        diagnosis.problems.append(
            "the first valid record is not the header (records before it "
            "are corrupt or out of order); repair rebuilds the canonical "
            "layout")
    campaign = header.get("kind") in _CAMPAIGN_KINDS
    last: Dict = {}
    for record in valid:
        cell = _cell_key(record, campaign)
        if record.get("type") in ("done", "failed") and cell is not None:
            last[cell] = record
    matrix = [] if campaign else [
        (workload, design) for workload in header.get("workloads", [])
        for design in header.get("designs", [])]
    diagnosis.rerun_cells = [cell for cell in matrix
                             if last.get(cell, {}).get("type") != "done"]
    diagnosis.failed_cells = [cell for cell in (matrix or last)
                              if last.get(cell, {}).get("type") == "failed"]
    if diagnosis.failed_cells:
        cells = ", ".join(_cell_label(cell, last[cell])
                          for cell in diagnosis.failed_cells)
        diagnosis.notes.append(
            f"{len(diagnosis.failed_cells)} cell(s) on record as degraded "
            f"failures: {cells}"
            + ("" if campaign else "; resume retries them"))
    if diagnosis.healthy and not diagnosis.notes:
        return None
    return _Plan(quarantine=[{"line": number, "raw": line}
                             for number, line in corrupt],
                 content=render_journal(header, last, matrix),
                 salvaged=1 + len(last))


# -------------------------------------------------------------- sealed files

def _salvage_rtrace(path: Path, report: Dict) -> Optional[_Plan]:
    """Rebuild a truncated ``.rtrace`` from its whole records."""
    from repro.ingest.rtrace import RECORD_SIZE, RTRACE, header_fields

    header = report["header"] or {}
    promised = header.get("payload_bytes")
    whole = report["payload_bytes"] // RECORD_SIZE
    if not isinstance(promised, int) or not whole \
            or report["payload_bytes"] >= promised:
        return None
    payload = report["payload"][:whole * RECORD_SIZE]
    torn = report["payload"][whole * RECORD_SIZE:]
    _header, content = seal(RTRACE, header_fields(
        header.get("name", path.stem), header.get("format", "unknown"),
        payload, header.get("bad_records", 0)), payload)
    quarantine = ([{"offset": report["payload_start"] + len(payload),
                    "raw_hex": torn.hex()}] if torn else [])
    return _Plan(quarantine=quarantine, content=content, salvaged=whole)


def _check_sealed(path: Path, diagnosis: Diagnosis) -> Optional[_Plan]:
    if diagnosis.kind == "checkpoint":
        fmt = CHECKPOINT
    else:
        from repro.ingest.rtrace import RTRACE as fmt
    try:
        report = inspect_sealed(path, fmt)
    except OSError as exc:
        diagnosis.healthy = diagnosis.repairable = False
        diagnosis.problems.append(
            f"cannot read {fmt.label}: {exc.strerror or exc}")
        return None
    if report["problem"] is None:
        return None
    diagnosis.healthy = False
    diagnosis.problems.append(report["problem"])
    if path.with_name(path.name + ".ingest").exists():
        diagnosis.notes.append(
            f"an interrupted ingest left its offset journal beside "
            f"{path.name}; `repro ingest` resumes it from the exact input "
            f"byte it stopped at — prefer that over repairing here")
    plan = _salvage_rtrace(path, report) if fmt is not CHECKPOINT else None
    if plan is None:
        diagnosis.notes.append(
            f"a damaged {fmt.label} cannot be patched: repair moves it "
            f"to {path.name}.quarantine")
        return _Plan()
    diagnosis.notes.append(
        f"repair rebuilds a valid {fmt.label} from its {plan.salvaged} "
        f"whole record(s)")
    return plan


_VALIDATORS = {"journal": _check_journal, "checkpoint": _check_sealed,
               "rtrace": _check_sealed}


# --------------------------------------------------------------- the flows

def _examine(path) -> Tuple[Diagnosis, Optional[_Plan]]:
    path = Path(path)
    kind = detect_kind(path)
    diagnosis = Diagnosis(path=str(path), kind=kind)
    return diagnosis, _VALIDATORS[kind](path, diagnosis)


def diagnose(path) -> Diagnosis:
    """Inspect ``path`` without modifying it; never raises on content."""
    return _examine(path)[0]


def repair(path) -> Diagnosis:
    """Quarantine what is damaged in ``path`` and rebuild the file (or
    quarantine it whole); a healthy file is left alone.

    Raises :class:`JournalError` when the file cannot be repaired (a
    journal with no valid header, an unreadable file).
    """
    path = Path(path)
    diagnosis, plan = _examine(path)
    if not diagnosis.repairable:
        raise JournalError(
            f"{path}: unrepairable — {'; '.join(diagnosis.problems)}")
    if plan is None:
        return diagnosis
    quarantine = path.with_name(path.name + ".quarantine")
    if plan.quarantine:
        append_durable(quarantine, jsonl(plan.quarantine))
        fsync_parent_dir(quarantine)
    if plan.content is None:
        replace_durable(path, quarantine)
        diagnosis.quarantined = 1
    else:
        publish(path, plan.content)
        diagnosis.quarantined = len(plan.quarantine)
        diagnosis.salvaged = plan.salvaged
        diagnosis.healthy = True
        diagnosis.problems = []
    if diagnosis.quarantined:
        diagnosis.quarantine_path = str(quarantine)
    diagnosis.repaired = True
    return diagnosis


#: The flows under the names callers used when each kind had its own.
diagnose_journal = diagnose
repair_journal = repair
