"""On-disk checkpoints for :class:`~repro.sim.system.SystemSimulator`.

A checkpoint is a sealed file (:mod:`repro.resilience.fsio`; documented
in README "Resilient runs"):

* line 1 — magic: ``repro-checkpoint v1``;
* line 2 — a sorted-keys JSON header carrying the snapshot version, the
  config and trace digests, the next trace index, the workload name, the
  payload length, and the payload's SHA-256;
* the rest — the pickled snapshot payload produced by
  ``SystemSimulator.snapshot()``.

This module owns only the header fields, the magic line and the error
type: publishing (atomic, so a crash mid-write never replaces the
previous checkpoint) and verification (magic, header, length, payload
checksum) are the shared sealed-file writer and reader.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Dict, Tuple

from repro.resilience.errors import CheckpointError
from repro.resilience.fsio import SealedFormat, read_sealed, write_sealed

__all__ = [
    "MAGIC",
    "CHECKPOINT",
    "CheckpointError",
    "config_digest",
    "trace_digest",
    "config_to_dict",
    "config_from_dict",
    "save_checkpoint",
    "load_checkpoint",
    "restore_simulator",
]

#: First line of every checkpoint file.
MAGIC = "repro-checkpoint v1"

#: The sealed-file kind of a checkpoint.
CHECKPOINT = SealedFormat(magic=MAGIC, label="checkpoint",
                          error=CheckpointError)


# ------------------------------------------------------------------ digests

def config_digest(config) -> str:
    """SHA-256 over the full configuration repr.

    The dataclass repr covers every field (including enums), so any
    config difference — not just the fields ``describe()`` shows —
    changes the digest.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()


def trace_digest(trace) -> str:
    """SHA-256 over a trace's name and all four reference columns."""
    h = hashlib.sha256()
    h.update(repr(trace.name).encode("utf-8"))
    for column in (trace.addresses, trace.writes, trace.cores, trace.gaps):
        h.update(repr(column).encode("utf-8"))
    return h.hexdigest()


# ----------------------------------------------------- config serialization

def config_to_dict(config) -> Dict:
    """Flatten a :class:`~repro.sim.config.SystemConfig` to JSON-safe types
    (enums become their values) for sweep-journal headers."""
    out: Dict = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, enum.Enum):
            value = value.value
        out[field.name] = value
    return out


def config_from_dict(payload: Dict):
    """Inverse of :func:`config_to_dict`."""
    from repro.core.insertion import InsertionPolicy
    from repro.core.scheduling import HitSpeculationPolicy
    from repro.mem.os_policy import THPPolicy
    from repro.sim.config import SystemConfig

    enum_fields = {"insertion": InsertionPolicy,
                   "speculation": HitSpeculationPolicy,
                   "thp_policy": THPPolicy}
    kwargs = {}
    for key, value in payload.items():
        enum_type = enum_fields.get(key)
        if enum_type is not None and not isinstance(value, enum_type):
            value = enum_type(value)
        kwargs[key] = value
    try:
        return SystemConfig(**kwargs)
    except TypeError as exc:
        raise CheckpointError(
            f"journal/checkpoint header holds an incompatible config: {exc}"
        ) from exc


# --------------------------------------------------------------- file format

def save_checkpoint(path, sim) -> None:
    """Atomically write ``sim``'s snapshot to ``path``."""
    fields = {
        "version": sim.SNAPSHOT_VERSION,
        "config_digest": config_digest(sim.config),
        "trace_digest": trace_digest(sim.trace),
        "workload": sim.trace.name,
        "next_index": sim._next_index,
    }
    try:
        write_sealed(path, CHECKPOINT, fields, sim.snapshot(),
                     stream="checkpoint")
    except OSError as exc:
        raise CheckpointError(
            f"{path}: checkpoint write failed ({exc}) — the write was "
            f"atomic, so the previous checkpoint (if any) is "
            f"untouched") from exc


def load_checkpoint(path) -> Tuple[Dict, bytes]:
    """Read and verify a checkpoint; returns ``(header, payload)``.

    Raises :class:`CheckpointError` on a missing file, bad magic, a torn
    or non-object header, or a payload length or checksum mismatch.
    """
    return read_sealed(path, CHECKPOINT)


def restore_simulator(path, config, trace):
    """Build a simulator for ``(config, trace)`` and restore ``path`` into it.

    The header's snapshot version and digests are checked before the
    payload is unpickled: a payload from another snapshot layout may name
    classes this build no longer has.  The snapshot's own digests then
    double-check that the checkpoint belongs to this config and trace.
    """
    from repro.sim.system import SystemSimulator

    header, payload = load_checkpoint(path)
    version = SystemSimulator.SNAPSHOT_VERSION
    if header.get("version") != version:
        raise CheckpointError(
            f"{path}: checkpoint holds snapshot version "
            f"{header.get('version')!r}; this build reads version {version}")
    for key, digest, what in (
            ("config_digest", config_digest(config), "configuration"),
            ("trace_digest", trace_digest(trace), "trace")):
        if header.get(key) != digest:
            raise CheckpointError(
                f"{path}: checkpoint was taken under a different {what}")
    sim = SystemSimulator(config, trace)
    sim.restore(payload)
    return sim
