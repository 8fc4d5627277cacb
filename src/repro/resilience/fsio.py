"""The durable-file layer: every file that must survive a crash is
written, sealed and verified through this module.

Three write recipes:

* :func:`publish` — atomic publish: a sibling temp file (named per
  process and thread, so concurrent writers of one path never share
  one), fsync, ``os.replace``, parent-directory fsync.  On failure the
  temp file is removed and the previous file stays in place.
* :func:`append_durable` — append and fsync.  With ``whole_lines`` a torn
  last line (a crash mid-append leaves one without its newline) is cut
  off first, so a record never lands glued onto a fragment; a journal
  has a single writer, so the cut never races another append.
* :func:`create_exclusive` — ``O_CREAT|O_EXCL`` create, fsync, parent
  fsync: exactly one creator wins (campaign leases, settled markers).

Two formats:

* **checksummed JSONL** — a record's ``checksum`` is
  :func:`record_checksum`, the SHA-256 of its sorted-keys JSON without
  that field; :func:`render_journal` renders the canonical journal
  layout (header line, then one sorted-keys record per cell);
* **sealed files** (checkpoints, ``.rtrace`` traces) — a magic line, a
  sorted-keys JSON header carrying ``payload_bytes`` and
  ``payload_sha256``, then the payload, with one writer
  (:func:`write_sealed`), one verifying reader (:func:`read_sealed`) and
  one non-raising inspector (:func:`inspect_sealed`).

``stream`` names the chaos counter a write consults ("journal" for
journal appends, "checkpoint" for checkpoint publishes), so injected
ENOSPC, EIO and torn writes hit exactly the writes their kinds count.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from repro.resilience import chaos

__all__ = ["SealedFormat", "append_durable", "create_exclusive",
           "fsync_parent_dir", "inspect_sealed", "jsonl", "publish",
           "read_sealed", "record_checksum", "render_journal",
           "replace_durable", "seal", "truncate_durable", "write_sealed"]


def _torn(stream: str, torn: bytes, data: bytes) -> OSError:
    """The error a chaos-torn write raises once its prefix has landed."""
    return OSError(f"chaos: torn {stream} write ({len(torn)} of "
                   f"{len(data)} bytes)")


def fsync_parent_dir(path) -> None:
    """fsync the directory holding ``path`` so a completed rename (or
    create) survives power loss, not just a process crash.

    Best-effort: where a directory cannot be opened or fsynced the
    rename stays crash-consistent and only the power-loss guarantee
    degrades to the platform's default.
    """
    try:
        fd = os.open(Path(path).resolve().parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def replace_durable(temp, target) -> None:
    """``os.replace`` followed by a parent-directory fsync."""
    os.replace(temp, target)
    fsync_parent_dir(target)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def publish(path, data: bytes, stream: Optional[str] = None) -> None:
    """Atomically and durably replace ``path``'s content with ``data``."""
    path = Path(path)
    temp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        torn = chaos.write_fault(stream, data) if stream else None
        with open(temp, "wb") as handle:
            handle.write(data if torn is None else torn)
            handle.flush()
            os.fsync(handle.fileno())
        if torn is not None:
            raise _torn(stream, torn, data)
        replace_durable(temp, path)
    except BaseException:
        try:
            temp.unlink()
        except OSError:
            pass
        raise
    if stream:
        chaos.after_write(stream)


def _cut_torn_line(fd: int) -> None:
    """Truncate whatever follows the file's last newline (a torn append;
    the whole file is read only in that rare case)."""
    end = os.fstat(fd).st_size
    if end and os.pread(fd, 1, end - 1) != b"\n":
        os.ftruncate(fd, os.pread(fd, end, 0).rfind(b"\n") + 1)


def append_durable(path, data: bytes, stream: Optional[str] = None,
                   whole_lines: bool = False) -> None:
    """Append ``data`` to ``path`` (created if missing) and fsync it.

    A chaos-torn write lands its prefix, then raises ``OSError``.
    """
    torn = chaos.write_fault(stream, data) if stream else None
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        if whole_lines:
            _cut_torn_line(fd)
        _write_all(fd, data if torn is None else torn)
        os.fsync(fd)
    finally:
        os.close(fd)
    if torn is not None:
        raise _torn(stream, torn, data)
    if stream:
        chaos.after_write(stream)


def create_exclusive(path, data: bytes) -> bool:
    """Create ``path`` holding ``data``; False when it already exists."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    try:
        _write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    fsync_parent_dir(path)
    return True


def truncate_durable(path, length: int) -> None:
    """Cut ``path`` back to ``length`` bytes and fsync it."""
    with open(path, "r+b") as handle:
        handle.truncate(length)
        handle.flush()
        os.fsync(handle.fileno())


# ------------------------------------------------------- checksummed JSONL

def record_checksum(record: Dict) -> str:
    """SHA-256 of the record's sorted-keys JSON, excluding ``checksum``."""
    body = {key: value for key, value in record.items() if key != "checksum"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def jsonl(objects: Iterable[Dict]) -> bytes:
    """One sorted-keys JSON object per line, newline-terminated."""
    return "".join(json.dumps(item, sort_keys=True) + "\n"
                   for item in objects).encode("utf-8")


def render_journal(header: Dict, records: Dict,
                   order: Sequence = ()) -> bytes:
    """The canonical journal layout: the header, then the record of each
    cell — cells in ``order`` first, the rest sorted by key.  Records
    keep their checksums, so each line is reproduced byte for byte."""
    rank = {key: position for position, key in enumerate(order)}
    ordered = sorted(records.items(),
                     key=lambda item: (rank.get(item[0], len(rank)),
                                       item[0]))
    return jsonl([header, *(record for _key, record in ordered)])


# ------------------------------------------------------------ sealed files

class SealedFormat(NamedTuple):
    """A sealed file kind: its magic line, the noun its messages use, the
    error its reader raises, the header fields it requires beyond the
    payload length and checksum, and the one ``version`` it reads."""

    magic: str
    label: str
    error: type
    required: Tuple[str, ...] = ()
    version: Optional[int] = None


def seal(fmt: SealedFormat, fields: Dict,
         payload: bytes) -> Tuple[Dict, bytes]:
    """``(header, file bytes)`` sealing ``payload`` under ``fields``."""
    header = dict(fields, payload_bytes=len(payload),
                  payload_sha256=hashlib.sha256(payload).hexdigest())
    return header, ((fmt.magic + "\n").encode("ascii")
                    + (json.dumps(header, sort_keys=True)
                       + "\n").encode("utf-8") + payload)


def write_sealed(path, fmt: SealedFormat, fields: Dict, payload: bytes,
                 stream: Optional[str] = None) -> Dict:
    """:func:`publish` ``payload`` sealed; returns the header."""
    header, blob = seal(fmt, fields, payload)
    publish(path, blob, stream)
    return header


def _header_problem(fmt: SealedFormat, header) -> Optional[str]:
    if not isinstance(header, dict):
        return f"{fmt.label} header is not a JSON object"
    for key in ("payload_bytes", "payload_sha256", *fmt.required):
        if key not in header:
            return f"{fmt.label} header missing {key!r}"
    if fmt.version is not None and header.get("version") != fmt.version:
        return (f"{fmt.label} version {header.get('version')} is not "
                f"supported (this build reads version {fmt.version})")
    return None


def inspect_sealed(path, fmt: SealedFormat,
                   header_only: bool = False) -> Dict:
    """Check a sealed file without raising on its content.

    Returns ``magic_ok``, ``header`` (a dict, else None), ``payload_start``,
    ``payload`` and ``payload_bytes`` (as on disk; unread under
    ``header_only``), ``sha_ok`` (None without a header checksum or a
    read payload), and ``problem``: the first failed check, or None.
    Raises ``OSError`` only when the file cannot be read.
    """
    report: Dict = {"magic_ok": False, "header": None, "payload_start": 0,
                    "payload": None, "payload_bytes": 0, "sha_ok": None,
                    "problem": None}
    with open(path, "rb") as handle:
        magic = handle.readline()
        if magic.rstrip(b"\n").decode("ascii", "replace") != fmt.magic:
            report["problem"] = (f"{path}: not a {fmt.label} file (bad "
                                 f"magic line; expected {fmt.magic!r})")
            return report
        header_line = handle.readline()
        payload = None if header_only else handle.read()
    report.update(magic_ok=True, payload_start=len(magic) + len(header_line))
    try:
        header = json.loads(header_line)
        problem = _header_problem(fmt, header)
    except ValueError as exc:
        header, problem = None, f"corrupt {fmt.label} header ({exc})"
    if isinstance(header, dict):
        report["header"] = header
    if payload is not None:
        report.update(payload=payload, payload_bytes=len(payload))
        if report["header"] is not None and "payload_sha256" in header:
            report["sha_ok"] = (
                len(payload) == header.get("payload_bytes")
                and hashlib.sha256(payload).hexdigest()
                == header["payload_sha256"])
        if problem is None and len(payload) != header["payload_bytes"]:
            problem = (f"{fmt.label} payload is {len(payload)} bytes but "
                       f"the header promises {header['payload_bytes']} — "
                       f"truncated or torn")
        elif problem is None and not report["sha_ok"]:
            problem = (f"{fmt.label} payload checksum mismatch — "
                       f"corrupted in place")
    if problem is not None:
        report["problem"] = f"{path}: {problem}"
    return report


def read_sealed(path, fmt: SealedFormat,
                header_only: bool = False) -> Tuple[Dict, Optional[bytes]]:
    """Read and verify a sealed file: ``(header, payload)``; under
    ``header_only`` just the magic and header lines, ``(header, None)``.
    Raises ``fmt.error`` when the file is unreadable or damaged."""
    try:
        report = inspect_sealed(path, fmt, header_only)
    except OSError as exc:
        raise fmt.error(
            f"{path}: cannot read {fmt.label}: {exc.strerror or exc}"
        ) from exc
    if report["problem"] is not None:
        raise fmt.error(f"{report['problem']}; `repro doctor {path}` "
                        f"reports the damage")
    return report["header"], report["payload"]
