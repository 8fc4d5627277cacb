"""The streaming, crash-safe trace-ingest engine.

``ingest_trace`` reads an arbitrary-size input in bounded memory,
decodes it line-by-line with a tolerant parser, quarantines malformed
records, and publishes a canonical checksummed ``.rtrace``
atomically.  Three sidecar files make it crash-safe (all named after the
output, so one ingest owns one file family):

``<output>.partial``
    The packed payload so far, append-only.
``<output>.quarantine``
    One JSON line per malformed input record (``offset``/``raw``/
    ``reason`` — the doctor's quarantine convention), append-only.
``<output>.ingest``
    The offset journal: a JSON checkpoint (input fingerprint, committed
    input byte offset, payload/quarantine lengths, record counts, parser
    state), published atomically after every flush.  SIGKILL at any
    instant leaves the journal describing a consistent prefix;
    re-running the same command truncates the append-only files back to
    the journaled lengths, seeks the input to the journaled offset, and
    continues.  Because parsing is
    deterministic and the final header carries no timestamps, a resumed
    ingest produces a ``.rtrace`` byte-identical to an uninterrupted one.

Chaos kinds ``trace-truncate-input@BYTES``, ``trace-garbage@N`` and
``trace-eio@N`` (see :mod:`repro.resilience.chaos`) are consulted on
every input chunk read, making corrupt-input drills deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.ingest.formats import (MalformedRecord, get_parser, sniff_format)
from repro.ingest.rtrace import (RECORD_SIZE, RTRACE, pack_record,
                                 write_rtrace)
from repro.resilience import chaos
from repro.resilience.errors import (EXIT_FAILED_CELLS, EXIT_OK,
                                     IngestPausedError, RtraceError,
                                     TraceCorruptionError)
from repro.resilience.fsio import (append_durable, fsync_parent_dir,
                                   publish, read_sealed, truncate_durable)

__all__ = ["IngestReport", "ingest_trace", "sidecar_paths"]

#: Journal (sidecar) format version.
JOURNAL_VERSION = 1
#: Input bytes hashed into the resume fingerprint.
_FINGERPRINT_HEAD = 64 * 1024
#: Default input chunk size (the memory bound on the read side).
_CHUNK_BYTES = 1 << 20
#: Flush the packed-payload buffer at this size even between checkpoints
#: (the memory bound on the write side).
_FLUSH_BYTES = 4 << 20


@dataclass(frozen=True)
class IngestReport:
    """What one ``ingest_trace`` call did."""

    output: str
    records: int
    bad_records: int
    input_bytes: int
    trace_digest: str
    format: str
    quarantine: Optional[str]
    #: input byte offset the run resumed from (0 = fresh start).
    resumed_from: int = 0
    #: True when the output already existed, valid, and nothing ran.
    already_complete: bool = False

    @property
    def exit_code(self) -> int:
        """Per the documented contract: 0 clean (or no-op), 1 when this
        run quarantined records within budget."""
        if self.already_complete or not self.bad_records:
            return EXIT_OK
        return EXIT_FAILED_CELLS


def sidecar_paths(output) -> Dict[str, Path]:
    """The partial/quarantine/journal paths owned by ``output``."""
    output = Path(output)
    return {
        "partial": output.with_name(output.name + ".partial"),
        "quarantine": output.with_name(output.name + ".quarantine"),
        "journal": output.with_name(output.name + ".ingest"),
    }


def default_output(input_path) -> Path:
    """``foo.lackey`` ingests to ``foo.rtrace`` by default."""
    input_path = Path(input_path)
    return input_path.with_name(input_path.stem + ".rtrace")


def _fingerprint(input_path: Path) -> Dict:
    """Identity of the input file, recorded in the offset journal so a
    resume refuses to continue over a different/rewritten input."""
    stat = os.stat(input_path)
    with open(input_path, "rb") as handle:
        head = handle.read(min(_FINGERPRINT_HEAD, stat.st_size))
    return {"size": stat.st_size,
            "head_sha256": hashlib.sha256(head).hexdigest()}


def _paused(path, action: str, exc: OSError) -> IngestPausedError:
    reason = exc.strerror or str(exc)
    return IngestPausedError(
        f"{path}: {action} failed ({reason}); the offset journal reflects "
        f"the last completed checkpoint — re-run the same `repro ingest` "
        f"command to resume")


class _IngestState:
    """Mutable committed-progress counters; the journal stores each
    attribute under its own name."""

    def __init__(self) -> None:
        self.input_offset = 0
        self.records = 0
        self.bad_records = 0
        self.payload_bytes = 0
        self.quarantine_bytes = 0
        self.parser_state: Dict = {}


def _write_journal(journal_path: Path, fingerprint: Dict, fmt: str,
                   name: str, state: _IngestState) -> None:
    payload = dict(vars(state), version=JOURNAL_VERSION, input=fingerprint,
                   format=fmt, name=name)
    try:
        publish(journal_path,
                json.dumps(payload, sort_keys=True).encode("utf-8"))
    except OSError as exc:
        raise _paused(journal_path, "offset-journal write", exc) from exc


def _load_journal(journal_path: Path) -> Optional[Dict]:
    try:
        with open(journal_path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise TraceCorruptionError(
            f"{journal_path}: unreadable ingest offset journal ({exc}); "
            f"remove it (or pass --force) to restart the ingest") from exc
    if not isinstance(payload, dict) \
            or payload.get("version") != JOURNAL_VERSION:
        raise TraceCorruptionError(
            f"{journal_path}: unsupported ingest offset journal; remove it "
            f"(or pass --force) to restart the ingest")
    return payload


def _truncate_to(path: Path, length: int, label: str) -> None:
    """Clamp an append-only sidecar back to its journaled length."""
    try:
        actual = path.stat().st_size
    except FileNotFoundError:
        actual = None
    if length == 0:
        if actual is not None:
            path.unlink()
        return
    if actual is None or actual < length:
        have = 0 if actual is None else actual
        raise TraceCorruptionError(
            f"{path}: {label} holds {have} bytes but the offset journal "
            f"committed {length} — the sidecars were tampered with or "
            f"partially deleted; pass --force to restart the ingest")
    if actual > length:
        truncate_durable(path, length)


def _cleanup_sidecars(output: Path) -> None:
    for side in sidecar_paths(output).values():
        try:
            side.unlink()
        except FileNotFoundError:
            pass


def ingest_trace(input_path, output=None, fmt: str = "auto",
                 name: Optional[str] = None, strict: bool = False,
                 max_bad_records: Optional[int] = None,
                 checkpoint_every: int = 100_000,
                 chunk_bytes: int = _CHUNK_BYTES,
                 force: bool = False) -> IngestReport:
    """Ingest ``input_path`` into a canonical ``.rtrace``.

    Resumable by construction: if the output's offset journal exists
    (a previous run was killed or paused), the run validates the input
    fingerprint and continues from the journaled offset; ``force``
    discards any previous progress *and* an existing final output.
    ``strict`` makes the first malformed record fatal; otherwise bad
    records are quarantined until ``max_bad_records`` is exceeded
    (None = unbounded).
    """
    input_path = Path(input_path)
    output = Path(output) if output is not None else default_output(input_path)
    sides = sidecar_paths(output)
    journal_path, partial_path = sides["journal"], sides["partial"]
    quarantine_path = sides["quarantine"]

    if not input_path.exists():
        raise TraceCorruptionError(f"{input_path}: no such input file")
    if force:
        _cleanup_sidecars(output)
        try:
            output.unlink()
        except FileNotFoundError:
            pass

    if output.exists():
        # Idempotent re-run over a finished ingest: verify, report.
        try:
            header, _payload = read_sealed(output, RTRACE)
        except RtraceError as exc:
            raise RtraceError(
                f"{exc}, or pass --force to ingest it afresh") from exc
        _cleanup_sidecars(output)  # a crash between publish and cleanup
        return IngestReport(
            output=str(output), records=header["records"],
            bad_records=header.get("bad_records", 0),
            input_bytes=0, trace_digest=header["trace_digest"],
            format=header.get("format", "unknown"),
            quarantine=None, already_complete=True)

    fingerprint = _fingerprint(input_path)
    journal = _load_journal(journal_path)
    state = _IngestState()
    resumed_from = 0

    if journal is not None:
        if journal["input"] != fingerprint:
            raise TraceCorruptionError(
                f"{input_path}: input file changed since the interrupted "
                f"ingest (fingerprint mismatch); pass --force to restart")
        if fmt != "auto" and fmt != journal["format"]:
            raise TraceCorruptionError(
                f"resume format {fmt!r} conflicts with the interrupted "
                f"ingest's {journal['format']!r}; pass --force to restart")
        if name is not None and name != journal["name"]:
            raise TraceCorruptionError(
                f"resume name {name!r} conflicts with the interrupted "
                f"ingest's {journal['name']!r}; pass --force to restart")
        fmt, name = journal["format"], journal["name"]
        for key in list(vars(state)):
            setattr(state, key, journal[key])
        resumed_from = state.input_offset
        _truncate_to(partial_path, state.payload_bytes, "partial payload")
        _truncate_to(quarantine_path, state.quarantine_bytes, "quarantine")
    else:
        # Fresh start: stale sidecars from an older family are noise.
        _cleanup_sidecars(output)
        if name is None:
            name = input_path.stem

    clamp = chaos.input_truncate_at()
    pending_payload: List[bytes] = []
    pending_payload_bytes = 0
    pending_quarantine: List[str] = []
    pending_records_since_flush = 0

    def flush(update_journal: bool = True) -> None:
        nonlocal pending_payload, pending_payload_bytes
        nonlocal pending_quarantine, pending_records_since_flush
        if pending_payload:
            blob = b"".join(pending_payload)
            try:
                append_durable(partial_path, blob)
            except OSError as exc:
                raise _paused(partial_path, "partial-payload write",
                              exc) from exc
            state.payload_bytes += len(blob)
            pending_payload = []
            pending_payload_bytes = 0
        if pending_quarantine:
            blob = "".join(pending_quarantine).encode("utf-8")
            try:
                append_durable(quarantine_path, blob)
            except OSError as exc:
                raise _paused(quarantine_path, "quarantine write",
                              exc) from exc
            state.quarantine_bytes += len(blob)
            pending_quarantine = []
        pending_records_since_flush = 0
        if update_journal:
            _write_journal(journal_path, fingerprint, fmt, name, state)

    def fail_corrupt(message: str) -> TraceCorruptionError:
        # Flush what we know (within the committed journal's reach) so
        # the quarantine file documents the damage, then bail typed.
        flush()
        return TraceCorruptionError(message)

    try:
        input_handle = open(input_path, "rb")
    except OSError as exc:
        raise _paused(input_path, "input open", exc) from exc
    with input_handle as handle:
        if fmt == "auto":
            # Sniff from the same (chaos-clamped) view the parser will
            # read, so a truncated copy sniffs like itself.
            sample = handle.read(min(64 * 1024, fingerprint["size"]))
            if clamp is not None:
                sample = sample[:clamp]
            fmt = sniff_format(sample.decode("latin-1"),
                               source=str(input_path))
            handle.seek(0)
        parser = get_parser(fmt)
        parser.restore(state.parser_state)
        # First journal write: even a fault before the first checkpoint
        # leaves a resumable (if empty) journal behind.
        _write_journal(journal_path, fingerprint, fmt, name, state)

        handle.seek(state.input_offset)
        position = state.input_offset
        carry = b""
        carry_start = position
        eof = False
        while not eof:
            try:
                chunk = handle.read(chunk_bytes)
            except OSError as exc:
                raise _paused(input_path, "input read", exc) from exc
            if clamp is not None:
                if position >= clamp:
                    chunk = b""
                else:
                    chunk = chunk[:clamp - position]
            if chunk:
                try:
                    chunk = chaos.ingest_read_fault(chunk)
                except OSError as exc:
                    raise _paused(input_path, "input read", exc) from exc
            position += len(chunk)
            if not chunk:
                eof = True
                lines = [carry] if carry else []
                carry = b""
            else:
                data = carry + chunk
                lines = data.split(b"\n")
                carry = lines.pop()
            line_start = carry_start
            for raw in lines:
                consumed = len(raw) + (0 if eof else 1)
                text = raw.decode("latin-1").rstrip("\r")
                try:
                    for va, is_write, core, gap in parser.parse_line(text):
                        pending_payload.append(
                            pack_record(va, is_write, core, gap))
                        pending_payload_bytes += RECORD_SIZE
                        state.records += 1
                except MalformedRecord as exc:
                    state.bad_records += 1
                    pending_quarantine.append(json.dumps(
                        {"offset": line_start, "raw": text,
                         "reason": str(exc)}, sort_keys=True) + "\n")
                    if strict:
                        raise fail_corrupt(
                            f"{input_path}: malformed {fmt} record at "
                            f"byte {line_start} ({exc}) and --strict "
                            f"is set; see {quarantine_path}") from exc
                    if max_bad_records is not None \
                            and state.bad_records > max_bad_records:
                        raise fail_corrupt(
                            f"{input_path}: more than {max_bad_records} "
                            f"malformed records (budget exceeded); see "
                            f"{quarantine_path}") from exc
                line_start += consumed
                state.input_offset = line_start
                state.parser_state = parser.state()
                pending_records_since_flush += 1
                if pending_records_since_flush >= checkpoint_every \
                        or pending_payload_bytes >= _FLUSH_BYTES:
                    flush()
            carry_start = line_start
        flush()
    # Final assembly: the committed partial payload is the whole trace.
    if state.records == 0:
        raise fail_corrupt(
            f"{input_path}: no decodable {fmt} records "
            f"({state.bad_records} quarantined); see {quarantine_path}"
            if state.bad_records else
            f"{input_path}: no decodable {fmt} records in input")
    try:
        with open(partial_path, "rb") as handle:
            payload = handle.read()
    except OSError as exc:
        raise _paused(partial_path, "partial-payload read", exc) from exc
    if len(payload) != state.payload_bytes \
            or state.payload_bytes != state.records * RECORD_SIZE:
        raise TraceCorruptionError(
            f"{partial_path}: partial payload is {len(payload)} bytes; the "
            f"offset journal committed {state.payload_bytes} for "
            f"{state.records} records — sidecars corrupted; pass --force "
            f"to restart the ingest")
    header = write_rtrace(output, name, fmt, payload,
                          bad_records=state.bad_records)
    had_quarantine = state.quarantine_bytes > 0
    partial_path.unlink()
    journal_path.unlink()
    if not had_quarantine:
        try:
            quarantine_path.unlink()
        except FileNotFoundError:
            pass
    fsync_parent_dir(output)
    return IngestReport(
        output=str(output), records=state.records,
        bad_records=state.bad_records, input_bytes=state.input_offset,
        trace_digest=header["trace_digest"], format=fmt,
        quarantine=str(quarantine_path) if had_quarantine else None,
        resumed_from=resumed_from)
