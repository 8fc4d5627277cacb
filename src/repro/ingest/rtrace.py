"""The canonical ``.rtrace`` on-disk trace format.

``repro ingest`` normalizes every supported input format into one
canonical, checksummed, binary trace file so the rest of the stack
(simulator, checkpoints, serve result cache, campaign digests) never
touches raw third-party formats.  An ``.rtrace`` is a sealed file, the
layout checkpoints share (:mod:`repro.resilience.fsio`):

* line 1 — magic: ``repro-rtrace v1``;
* line 2 — a JSON header (sorted keys) carrying the format version, the
  trace name, the source format, record / quarantined-record counts, the
  payload length, the payload's SHA-256, and the trace digest
  (:func:`repro.resilience.checkpoint.trace_digest` of the decoded
  trace — the same digest checkpoints, the serve result cache, and
  campaign journals key on);
* the rest — ``records`` fixed-size packed references, 14 bytes each
  (``<QIBB``: virtual address u64, gap u32, flags u8 with bit 0 =
  write, core u8).

The header is deliberately free of timestamps and absolute paths: the
same input ingested twice — or an interrupted ingest resumed to
completion — produces byte-identical files.  This module owns the header
fields, the magic line, the error type and the record packing; writing,
verifying and inspecting are the shared sealed-file primitives.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Dict, List, Tuple

from repro.resilience.errors import RtraceError
from repro.resilience.fsio import (SealedFormat, inspect_sealed, read_sealed,
                                   write_sealed)
from repro.workloads.trace import MemoryTrace

__all__ = [
    "MAGIC",
    "RTRACE",
    "RECORD_SIZE",
    "FLAG_WRITE",
    "pack_record",
    "unpack_payload",
    "header_fields",
    "write_rtrace",
    "read_header",
    "load_rtrace",
    "cached_rtrace",
    "inspect_rtrace",
]

#: First line of every ``.rtrace`` file.
MAGIC = "repro-rtrace v1"
#: Current header/payload format version.
VERSION = 1

#: The sealed-file kind of an ingested trace.
RTRACE = SealedFormat(magic=MAGIC, label="rtrace", error=RtraceError,
                      required=("version", "name", "records",
                                "trace_digest"),
                      version=VERSION)

_RECORD = struct.Struct("<QIBB")
#: Bytes per packed reference.
RECORD_SIZE = _RECORD.size
#: Bit 0 of the flags byte: this reference is a write.
FLAG_WRITE = 0x01

_U64_MAX = (1 << 64) - 1
_U32_MAX = (1 << 32) - 1


def pack_record(virtual_address: int, is_write: bool,
                core: int, gap: int) -> bytes:
    """Pack one reference into its 14-byte canonical form.

    Gap and core saturate at their field widths (a >4-billion-instruction
    gap or >255 cores carries no simulator-visible information anyway);
    the address must fit u64 — parsers reject wider ones as malformed.
    """
    return _RECORD.pack(virtual_address & _U64_MAX,
                        min(gap, _U32_MAX),
                        FLAG_WRITE if is_write else 0,
                        min(core, 0xFF))


def unpack_payload(payload: bytes) -> Tuple[List[int], List[bool],
                                            List[int], List[int]]:
    """Unpack a packed payload into the four trace columns."""
    addresses: List[int] = []
    writes: List[bool] = []
    cores: List[int] = []
    gaps: List[int] = []
    for va, gap, flags, core in _RECORD.iter_unpack(payload):
        addresses.append(va)
        writes.append(bool(flags & FLAG_WRITE))
        cores.append(core)
        gaps.append(gap)
    return addresses, writes, cores, gaps


def build_trace(name: str, payload: bytes) -> MemoryTrace:
    """Decode a packed payload into a :class:`MemoryTrace`."""
    addresses, writes, cores, gaps = unpack_payload(payload)
    return MemoryTrace(name, addresses, writes, cores, gaps)


def header_fields(name: str, source_format: str, payload: bytes,
                  bad_records: int = 0) -> Dict:
    """The ``.rtrace`` header of ``payload``, short of the sealed-file
    length and checksum fields.

    The trace digest is computed by decoding the payload and hashing it
    exactly the way checkpoints hash in-memory traces, so a loaded
    ``.rtrace`` digests identically to the file that claims it.
    """
    from repro.resilience.checkpoint import trace_digest
    return {
        "version": VERSION,
        "name": name,
        "format": source_format,
        "records": len(payload) // RECORD_SIZE,
        "bad_records": bad_records,
        "trace_digest": trace_digest(build_trace(name, payload)),
    }


def write_rtrace(path, name: str, source_format: str, payload: bytes,
                 bad_records: int = 0) -> Dict:
    """Atomically publish a canonical ``.rtrace``; returns its header."""
    if len(payload) % RECORD_SIZE:
        raise RtraceError(
            f"{path}: payload is {len(payload)} bytes, not a multiple of "
            f"the {RECORD_SIZE}-byte record size")
    return write_sealed(path, RTRACE, header_fields(
        name, source_format, payload, bad_records), payload)


def read_header(path) -> Dict:
    """The validated header of an ``.rtrace`` file (payload unread).

    Cheap — two lines of I/O — so digest guards (sweep headers, serve
    admission) can check a trace's identity without decoding it.
    """
    return read_sealed(path, RTRACE, header_only=True)[0]


def load_rtrace(path) -> MemoryTrace:
    """Load and fully verify an ``.rtrace`` into a :class:`MemoryTrace`.

    Verifies payload length and SHA-256 before decoding, so a torn or
    corrupted file raises a typed :class:`RtraceError` (pointing at
    ``repro doctor``) instead of silently simulating garbage.
    """
    header, payload = read_sealed(path, RTRACE)
    return build_trace(header["name"], payload)


#: Tiny (path, size, mtime) -> MemoryTrace memo: sweeps touch the same
#: ingested trace once per (design x workload) cell, and re-ingesting a
#: file bumps its mtime, which invalidates the entry naturally.
_RTRACE_MEMO: Dict[Tuple[str, int, int], MemoryTrace] = {}
_RTRACE_MEMO_MAX = 2


def cached_rtrace(path) -> MemoryTrace:
    """:func:`load_rtrace` behind a small identity-keyed memo.

    Callers must treat the result as read-only (the same contract as
    ``workloads.suite.cached_trace``); fault-injection paths that mutate
    traces load private copies via :func:`load_rtrace` directly.
    """
    resolved = str(Path(path).resolve())
    try:
        stat = os.stat(resolved)
    except OSError as exc:
        raise RtraceError(
            f"{path}: no ingested trace there ({exc.strerror or exc}); "
            f"run `repro ingest` first") from exc
    key = (resolved, stat.st_size, stat.st_mtime_ns)
    trace = _RTRACE_MEMO.get(key)
    if trace is None:
        trace = load_rtrace(resolved)
        if len(_RTRACE_MEMO) >= _RTRACE_MEMO_MAX:
            _RTRACE_MEMO.pop(next(iter(_RTRACE_MEMO)))
        _RTRACE_MEMO[key] = trace
    return trace


def inspect_rtrace(path) -> Dict:
    """Structural report: what is wrong and what is salvageable, without
    raising on content.

    Returns a dict with ``magic_ok``, ``header`` (or None), ``payload_start``,
    ``payload_bytes`` (actual), ``whole_records`` (how many complete
    14-byte records the actual payload holds), ``torn_bytes`` (trailing
    partial record), ``sha_ok`` (None when the header is unreadable), and
    ``resume_offset`` — the exact file offset after the last whole record.
    """
    report = inspect_sealed(path, RTRACE)
    del report["payload"], report["problem"]
    report["whole_records"], report["torn_bytes"] = divmod(
        report["payload_bytes"], RECORD_SIZE)
    report["resume_offset"] = (report["payload_start"]
                               + report["whole_records"] * RECORD_SIZE)
    return report
